import math
from fractions import Fraction

import numpy as np
import pytest

import qlevy.subcoalg
from qlevy.bialg import iterated_coproduct
from qlevy.constructions import make_azema
from qlevy.errors import DimCapExceeded, DimensionMismatch, InvalidParameter, TailBoundExceeded
from qlevy.fock import (
    FockFactor,
    UnitaryEvolution,
    azema_wiener_experiment,
    cross_path_report,
    exp_tail_bound,
    exponential_vector,
    fock_inner,
    generator_process,
    product_vacuum_gram,
    quantum_noise_op,
    unitary_product_evolution,
)
from qlevy.gns import UnitaryTripleParams, gns_construct
from qlevy.ncpoly import NcPoly, involute, multiply, random_poly
from qlevy.partition import Partition
from qlevy.subcoalg import conv_exp, conv_exp_series, doubled_product, subcoalgebra_of
from two_leg import TwoLegSubcoalgebra

X, XS, Y = 0, 1, 2


@pytest.fixture(scope="module")
def azema2():
    return make_azema(2.0)


@pytest.fixture(scope="module")
def azema_triple(azema2):
    B, _, psi = azema2
    return gns_construct(psi, B, degree_cap=3)


def test_factor_dimensions():
    f = FockFactor(2, 3)
    assert f.dim == 1 + 2 + 3 + 4
    f1 = FockFactor(1, 8)
    assert f1.dim == 9
    assert FockFactor(0, 5).dim == 1


def test_creation_on_vacuum():
    f = FockFactor(1, 4)
    op = quantum_noise_op("creation", [1.0], (0.0, 1.0), f)
    v = op @ f.vacuum()
    assert abs(v[f.index[(1,)]] - 1.0) < 1e-14
    assert np.abs(np.delete(v, f.index[(1,)])).max() < 1e-14


def test_annihilation_kills_vacuum():
    f = FockFactor(2, 3)
    op = quantum_noise_op("annihilation", [1.0, 0.5j], (0.0, 0.5), f)
    assert np.abs(op @ f.vacuum()).max() == 0.0


def test_ccr_below_cap():
    f = FockFactor(1, 6)
    a = f.annihilation(0)
    ad = f.creation(0)
    comm = a @ ad - ad @ a
    for i in range(f.dim):
        if sum(f.basis[i]) <= f.cap - 1:
            e = np.zeros(f.dim)
            e[i] = 1.0
            assert np.abs(comm @ e - e).max() < 1e-13


def test_adjoint_consistency():
    f = FockFactor(2, 4)
    k = np.array([0.3 - 0.2j, 1.1 + 0.4j])
    cr = quantum_noise_op("creation", k, (0.0, 0.7), f)
    an = quantum_noise_op("annihilation", k, (0.0, 0.7), f)
    assert np.abs(cr.conj().T - an).max() < 1e-14


def test_preservation_number_operator():
    f = FockFactor(2, 3)
    num = quantum_noise_op("preservation", np.eye(2), (0.0, 2.0), f)
    diag = np.diag(num).real
    for i in range(f.dim):
        assert diag[i] == pytest.approx(sum(f.basis[i]))


def test_noise_op_dimension_checks():
    f = FockFactor(2, 3)
    with pytest.raises(DimensionMismatch):
        quantum_noise_op("creation", [1.0], (0.0, 1.0), f)
    with pytest.raises(DimensionMismatch):
        quantum_noise_op("preservation", np.eye(3), (0.0, 1.0), f)


@pytest.mark.parametrize("interval", [(0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0)])
def test_noise_op_and_generator_reject_non_finite_interval(azema_triple, interval):
    f = FockFactor(1, 3)
    for build in (lambda: quantum_noise_op("creation", [1.0], interval, f),
                  lambda: quantum_noise_op("preservation", np.eye(1), interval, f),
                  lambda: generator_process(azema_triple, NcPoly.word((X,)), interval, f),
                  lambda: exponential_vector([1.0], interval, f)):
        with pytest.raises(InvalidParameter, match="interval must be finite"):
            build()


@pytest.mark.parametrize("m", [math.nan, math.inf])
def test_fock_factor_rejects_non_finite_mode_count(m):
    with pytest.raises(InvalidParameter, match="mode count m must be finite"):
        FockFactor(m, 3)


@pytest.mark.parametrize("cap", [math.nan, math.inf])
def test_fock_factor_rejects_non_finite_cap(cap):
    with pytest.raises(InvalidParameter, match="particle cap must be finite"):
        FockFactor(1, cap)


def test_exponential_vector_zero_is_vacuum():
    f = FockFactor(1, 6)
    e = exponential_vector([0.0], (0.0, 1.0), f)
    assert np.abs(e - f.vacuum()).max() == 0.0


def test_exponential_vector_unit_case():
    f = FockFactor(1, 10)
    e = exponential_vector([1.0], (0.0, 1.0), f)
    val = fock_inner(e, e)
    assert abs(val - math.e) <= 3e-8


def test_exponential_vector_pair():
    f = FockFactor(1, 10)
    ef = exponential_vector([1.0], (0.0, 1.0), f)
    eg = exponential_vector([2.0], (0.0, 1.0), f)
    val = fock_inner(ef, eg)
    assert abs(val - math.e ** 2) <= exp_tail_bound(2.0, 10)


@pytest.mark.parametrize("z, cap", [(500.0, 3), (2.0, 10), (0.7, 4), (30.0, 60)])
def test_exp_tail_bound_sums_the_whole_tail(z, cap):
    # against the exact rational sum; the terms past p = 3 z + 100 add nothing
    exact = sum(Fraction(z) ** p / math.factorial(p)
                for p in range(cap + 1, cap + 101 + 3 * int(z)))
    assert exp_tail_bound(z, cap) == pytest.approx(float(exact), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("z", [800.0, -800.0, 1e100])
def test_exp_tail_bound_refuses_a_tail_that_overflows(z):
    with pytest.raises(InvalidParameter, match=r"\bz = .* overflows"):
        exp_tail_bound(z, 3)


def test_exponential_vector_tail_guard():
    f = FockFactor(1, 4)
    with pytest.raises(TailBoundExceeded):
        exponential_vector([4.0], (0.0, 1.0), f)


def test_generator_process_unit(azema_triple):
    f = FockFactor(1, 5)
    op = generator_process(azema_triple, NcPoly.one(), (0.0, 0.4), f)
    assert np.abs(op - np.eye(f.dim)).max() < 1e-14


def test_generator_process_y(azema_triple):
    # I(y) = 1 + (q - 1) Lambda(1) for the Azema triple at q = 2
    f = FockFactor(1, 5)
    op = generator_process(azema_triple, NcPoly.word((Y,)), (0.0, 0.3), f)
    lam = quantum_noise_op("preservation", np.eye(1), (0.0, 0.3), f)
    assert np.abs(op - np.eye(f.dim) - 1.0 * lam).max() < 1e-12


def test_generator_vacuum_expectation(azema2, azema_triple):
    B, _, _ = azema2
    f = FockFactor(1, 5)
    om = f.vacuum()
    rng = np.random.default_rng(7)
    for _ in range(100):
        b = random_poly(B.algebra, rng, 3, n_terms=3)
        dt = float(rng.uniform(0.05, 1.5))
        op = generator_process(azema_triple, b, (0.0, dt), f)
        delta = B.counit(b)
        want = delta + azema_triple.psi(
            b.sub(NcPoly.one().scale(delta))) * dt
        assert abs(np.vdot(om, op @ om) - want) < 1e-12


def test_product_process_x_kills_vacuum(azema2, azema_triple):
    B, _, _ = azema2
    x = NcPoly.word((X,))
    for n in (1, 2, 5):
        val = product_vacuum_gram(azema_triple, x, x, B, Partition.uniform(0, 1, n), 5)
        assert abs(val) < 1e-28


def test_product_process_xstar_norm(azema2, azema_triple):
    # creation heads with second-quantized tails: norm^2 is exactly t
    B, _, _ = azema2
    xs = NcPoly.word((XS,))
    for n in (2, 4, 8):
        val = product_vacuum_gram(azema_triple, xs, xs, B, Partition.uniform(0, 0.8, n), 5)
        assert val.real == pytest.approx(0.8, abs=1e-12)


def _random_cuts(rng, s, t, n):
    return Partition([s] + sorted(rng.uniform(s, t, n - 1)) + [t])


U1_PARAMS = UnitaryTripleParams(1, np.array([[1.0]]), np.array([[[0.3]]]),
                                np.array([[0.5]]))
# on U<2> the interval functionals do not commute, so the order of the
# factors shows on uneven cuts
U2_PARAMS = UnitaryTripleParams(
    2, np.array([[0.6, 0.8j], [0.8j, 0.6]]), np.array([[[0.3], [0.1j]], [[-0.2], [0.4]]]),
    np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]]))


def test_product_vacuum_gram_matches_term_pairs(azema2, azema_triple):
    # cross_path_report pairs the Sweedler terms of Delta_n one by one, an
    # expansion independent of the doubled-coalgebra product
    from qlevy.gns import unitary_triple

    B, _, psi = azema2
    rng = np.random.default_rng(5)
    u1 = unitary_triple(U1_PARAMS)
    u2 = unitary_triple(U2_PARAMS)
    cases = [(azema_triple, random_poly(B.algebra, rng, 2, n_terms=3), B, psi)
             for _ in range(3)]
    cases.append((u1, NcPoly.word((0,)), u1.B, u1.psi))
    cases.append((u2, NcPoly({(1,): 1.0, (2,): 0.5j}), u2.B, u2.psi))
    for triple, b, carrier, phi in cases:
        for alpha in (Partition.uniform(0, 1, 4), _random_cuts(rng, 0.2, 1.1, 5)):
            ref = cross_path_report(triple, b, carrier, phi, alpha, 5)["fock_value"]
            got = product_vacuum_gram(triple, b, b, carrier, alpha, 5)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    # a cross value by polarization: <u, v> = sum_k i^-k |u + i^k v|^2 / 4
    c, d = (random_poly(B.algebra, rng, 2, n_terms=3) for _ in range(2))
    alpha = _random_cuts(rng, 0.0, 1.0, 4)
    ref = sum((1j) ** -k * cross_path_report(
        azema_triple, c.add(d.scale((1j) ** k)), B, psi, alpha, 5)["fock_value"]
        for k in range(4)) / 4.0
    got = product_vacuum_gram(azema_triple, c, d, B, alpha, 5)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    # creation heads with second-quantized tails: norm^2 is t - s at any cuts
    xs = NcPoly.word((XS,))
    alpha = _random_cuts(rng, 0.3, 1.7, 7)
    val = product_vacuum_gram(azema_triple, xs, xs, B, alpha, 5)
    assert val.real == pytest.approx(1.4, abs=1e-12)


def test_cross_path_azema(azema2, azema_triple):
    B, _, psi = azema2
    rep = cross_path_report(azema_triple, NcPoly.word((XS,)), B, psi,
                            Partition.uniform(0, 1, 8), 5)
    assert rep["defect"] <= 10.0 * rep["bound"] + 1e-12
    assert rep["defect"] < 1e-12


def test_cross_path_unitary():
    params = UnitaryTripleParams(1, np.array([[1.0]]),
                                 np.array([[[0.3]]]), np.array([[0.5]]))
    from qlevy.gns import unitary_triple
    triple = unitary_triple(params)
    B = triple.B
    rep = cross_path_report(triple, NcPoly.word((0,)), B, triple.psi,
                            Partition.uniform(0, 1, 8), 6)
    assert rep["defect"] <= 10.0 * rep["bound"] + 1e-12
    assert rep["defect"] > 0.0          # first-order path really differs


def test_unitary_trivial():
    params = UnitaryTripleParams(2, np.eye(2), np.zeros((2, 2, 1)),
                                 np.zeros((2, 2)))
    evo, defect = unitary_product_evolution(params, 2,
                                            Partition.uniform(0, 1, 4), 4)
    amp = evo.vacuum_amplitude()
    assert np.abs(amp - np.eye(2)).max() < 1e-14
    assert defect < 1e-14


def test_unitary_d1_amplitude():
    params = UnitaryTripleParams(1, np.array([[1.0]]),
                                 np.array([[[0.3]]]), np.array([[0.5]]))
    z = 0.5j - 0.045
    t = 1.0
    prev = None
    for n in (4, 8, 16, 32):
        evo, _ = unitary_product_evolution(params, 1,
                                           Partition.uniform(0, t, n), 6)
        amp = evo.vacuum_amplitude()[0, 0]
        # the product amplitude is exactly (1 + z t/n)^n
        assert abs(amp - (1.0 + z * t / n) ** n) < 1e-12
        defect = abs(amp - np.exp(z * t))
        if prev is not None:
            assert defect < prev
        prev = defect


def test_unitary_d2_defect_decreases():
    rng = np.random.default_rng(11)
    m = 1
    a = rng.normal(size=(2 * m, 2 * m)) + 1j * rng.normal(size=(2 * m, 2 * m))
    w, _ = np.linalg.qr(a)
    L = rng.normal(size=(2, 2, m)) + 1j * rng.normal(size=(2, 2, m))
    L = 0.5 * L / np.abs(L).max()
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = (h + h.conj().T) / 2.0
    params = UnitaryTripleParams(2, w, L, h)
    _, d4 = unitary_product_evolution(params, 2, Partition.uniform(0, 1, 4), 6)
    _, d16 = unitary_product_evolution(params, 2,
                                       Partition.uniform(0, 1, 16), 6)
    assert d16 < d4


def test_azema_wiener_experiment():
    prev = None
    for n in (2, 4, 8, 16):
        rep = azema_wiener_experiment(2.0, Partition.uniform(0, 1, n), 5)
        # Wiener from Azema increments is exact at every mesh
        assert rep["wiener_norm_sq"] == pytest.approx(1.0, abs=1e-10)
        assert rep["wiener_defect"] < 1e-10
        # X_t Omega = 0: I(x) is annihilation-only
        assert rep["x_vacuum_norm_sq"] < 1e-24
        # the discrete QSDE holds exactly for the product approximants
        assert rep["qsde_residual"] < 1e-6
        if prev is not None and prev["azema_defect"] > 1e-12:
            assert rep["azema_defect"] <= prev["azema_defect"]
        prev = rep


@pytest.mark.parametrize("n", [16, 24, 28, 32, 40, 48, 64, 128])
def test_azema_wiener_qsde_residual_at_fine_meshes(n):
    # the residual is a difference taken in the last slot, and with the
    # closed-form triple each last-slot operator is its QSDE operator, so it
    # is exactly 0 at every mesh and q; a triple off by one ulp in rho(y)
    # reads 330 at q = 2, n = 128 and 8.7e23 at q = 1000, n = 16.  Past
    # n = 48 at q = 1000, the first n - 1 slots' doubled product overflows
    for q in (2.0,) + ((0.5, 3.7, 1000.0) if n <= 48 else ()):
        rep = azema_wiener_experiment(q, Partition.uniform(0, 1, n), 5)
        assert rep["qsde_residual"] == 0.0, q


def test_azema_wiener_q1_exact():
    rep = azema_wiener_experiment(1.0, Partition.uniform(0, 1, 4), 5)
    assert rep["wiener_defect"] < 1e-10
    assert rep["azema_defect"] < 1e-10
    assert rep["qsde_residual"] < 1e-6


def test_azema_wiener_mesh_builds_each_block_once(monkeypatch):
    # the three vacuum products and the QSDE residual read one Fock factor
    # and one table of blocks I(b) per (basis word, interval): {1, x, x*, y}
    # on the one step class of a uniform mesh, {1, x, y} on its tail
    import qlevy.fock
    from qlevy.gns import azema_triple

    B, primitive, psi = make_azema(2.0)
    triple = azema_triple(2.0, B, psi)
    blocks, factors = [], []
    real_block, real_factor = qlevy.fock.generator_process, qlevy.fock.FockFactor
    monkeypatch.setattr(qlevy.fock, "generator_process",
                        lambda *args: blocks.append(args[1:3]) or real_block(*args))
    monkeypatch.setattr(qlevy.fock, "FockFactor",
                        lambda *args: factors.append(args) or real_factor(*args))
    uneven = Partition([0.0, 0.25, 0.5, 0.6, 0.7, 0.8, 1.05, 1.3, 1.45])
    for alpha, want in ((Partition.uniform(0, 1, 48), 7), (uneven, None)):
        blocks.clear()
        factors.clear()
        rep = qlevy.fock.azema_wiener_mesh(2.0, B, primitive, psi, triple, alpha, 5)
        assert len(blocks) == len(set(blocks)) and len(factors) == 1
        assert want is None or len(blocks) == want
        assert rep["qsde_residual"] == 0.0


# -- the term-pair and per-interval loops the array kernels replaced --------

def _cross_path_oracle(triple, b, B, psi, partition, particle_cap):
    """cross_path_report as one Python loop over term pairs and slots, each
    Gram factor one conv_exp of its own product."""
    alg = B.algebra
    gvals_memo = {}

    def gram_factor(dt, u, v):
        if (dt, u, v) not in gvals_memo:
            gvals_memo[dt, u, v] = conv_exp(psi, dt, multiply(
                involute(NcPoly.word(u), alg), NcPoly.word(v), alg), B)
        return gvals_memo[dt, u, v]

    n = partition.n_intervals()
    steps = partition.steps()
    times = partition.times
    # steps equal to 15 decimals are one step, taken from its first interval
    first = {}
    for r, dt in enumerate(steps):
        first.setdefault(round(dt, 15), r)
    rep = [first[round(dt, 15)] for dt in steps]
    factor = FockFactor(triple.k_dim, particle_cap)
    om = factor.vacuum()
    vecs = {}     # (word, first interval of its step) -> I(word) Omega there
    terms = []
    for legs, c in iterated_coproduct(b, n, B).items():
        for r, w in enumerate(legs):
            if (w, rep[r]) not in vecs:
                vecs[w, rep[r]] = generator_process(
                    triple, NcPoly.word(w), (times[rep[r]], times[rep[r] + 1]),
                    factor) @ om
        terms.append((c, tuple(vecs[w, rep[r]] for r, w in enumerate(legs)), legs))
    fock_total = gram_total = 0.0 + 0.0j
    bound = 0.0
    for ca, va, pa in terms:
        for cb, vb, pb in terms:
            z = complex(ca).conjugate() * cb
            fvals = [complex(np.vdot(a, bb)) for a, bb in zip(va, vb)]
            gvals = [gram_factor(steps[q], a, bb) for a, bb, q in zip(pa, pb, rep)]
            fock_total += z * np.prod(fvals)
            gram_total += z * np.prod(gvals)
            mx = [max(abs(f), abs(g)) for f, g in zip(fvals, gvals)]
            for r in range(n):
                rest = np.prod(mx[:r] + mx[r + 1:]) if n > 1 else 1.0
                bound += abs(z) * abs(fvals[r] - gvals[r]) * rest
    return {"fock_value": fock_total, "gram_value": gram_total, "bound": bound}


def test_cross_path_report_matches_term_pair_oracle(azema2, azema_triple):
    from qlevy.gns import unitary_triple

    B, _, psi = azema2
    rng = np.random.default_rng(41)
    c = 0.7 - 0.2j
    u1 = unitary_triple(U1_PARAMS)
    u2 = unitary_triple(U2_PARAMS)
    cases = [
        # n = 32 is the largest cross-path report of the fock-trotter benchmark
        (azema_triple, NcPoly.word((XS,), c), B, psi, (1, 3, 8, 32)),
        (azema_triple, NcPoly({(XS,): c, (X, XS): 0.4}), B, psi, (1, 3, 5)),
        (azema_triple, random_poly(B.algebra, rng, 2, n_terms=3), B, psi, (1, 4)),
        (u1, NcPoly.word((0,)), u1.B, u1.psi, (1, 4, 8)),
        (u2, NcPoly({(1,): 1.0, (2,): 0.5j}), u2.B, u2.psi, (1, 3, 5)),
        # 0.8 x11 x22 + 0.3i x12: each slot table closes one subcoalgebra
        # over 309 words of the products of its leg words
        (u2, NcPoly({(0, 3): 0.8, (1,): 0.3j}), u2.B, u2.psi, (1, 2)),
    ]
    for triple, b, carrier, phi, ns in cases:
        for n in ns:
            for alpha in (Partition.uniform(0, 1, n), _random_cuts(rng, 0.2, 1.1, n)):
                got = cross_path_report(triple, b, carrier, phi, alpha, 5)
                ref = _cross_path_oracle(triple, b, carrier, phi, alpha, 5)
                for key in ("fock_value", "gram_value"):
                    assert abs(got[key] - ref[key]) <= 1e-13 * abs(ref[key]), (key, n)
                assert abs(got["bound"] - ref["bound"]) <= 1e-12 * ref["bound"], n
                assert got["defect"] == abs(got["fock_value"] - got["gram_value"])
                assert got["defect"] <= 10.0 * got["bound"] + 1e-12


def test_cross_path_report_builds_each_vacuum_vector_once(azema2, azema_triple, monkeypatch):
    # the Fock table of a step pairs its leg words with themselves, so each
    # I(u) Omega is one generator_process call per step class
    import qlevy.fock

    B, _, psi = azema2
    b = NcPoly({(XS,): 0.7 - 0.2j, (X, XS): 0.4})
    alpha = Partition([0.0, 0.25, 0.5, 1.0])       # steps 1/4, 1/4, 1/2: two classes
    legs = iterated_coproduct(b, 3, B)
    want = len({(w, r > 1) for words in legs for r, w in enumerate(words)})
    ref = _cross_path_oracle(azema_triple, b, B, psi, alpha, 5)
    calls = []
    real = qlevy.fock.generator_process
    monkeypatch.setattr(qlevy.fock, "generator_process",
                        lambda *args: calls.append(args[1:3]) or real(*args))
    got = cross_path_report(azema_triple, b, B, psi, alpha, 5)
    assert len(calls) == want
    for key in ("fock_value", "gram_value", "bound"):
        assert abs(got[key] - ref[key]) <= 1e-13 * abs(ref[key]), key


def test_cross_path_report_lays_out_its_term_pairs_once(azema2, azema_triple, monkeypatch):
    # the Fock value, the Gram value and the bound pair the same terms:
    # one _TermPairs, called three times
    import qlevy.gram

    B, _, psi = azema2
    built, called = [], []
    real = qlevy.gram._TermPairs

    class Counted(real):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

        def __call__(self, *args):
            called.append(1)
            return super().__call__(*args)

    monkeypatch.setattr(qlevy.gram, "_TermPairs", Counted)
    cross_path_report(azema_triple, NcPoly({(XS,): 0.7 - 0.2j, (X, XS): 0.4}), B, psi,
                      Partition([0.0, 0.25, 0.5, 1.0]), 5)
    assert (len(built), len(called)) == (1, 3)


def test_cross_path_degree_two_at_n16(azema2, azema_triple):
    # 257 Sweedler terms, about 66 000 term pairs; the per-pair loop took
    # minutes here
    B, _, psi = azema2
    b = NcPoly({(XS,): 0.7 - 0.2j, (X, XS): 0.4})
    alpha = Partition.uniform(0, 1, 16)
    rep = cross_path_report(azema_triple, b, B, psi, alpha, 5)
    assert rep["defect"] <= 10.0 * rep["bound"] + 1e-12
    ref = product_vacuum_gram(azema_triple, b, b, B, alpha, 5)
    assert abs(rep["fock_value"] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_cross_path_slot_table_names_step_and_size_above_dim_cap(monkeypatch):
    # x11 x21* x12 at n = 1: the coideal of the products of its leg words
    # filtered by psi has 36 words, so a cap of 35 binds and is named with
    # the step
    from qlevy.gns import unitary_triple

    u2 = unitary_triple(U2_PARAMS)
    monkeypatch.setattr(qlevy.subcoalg, "DIM_CAP", 35)
    with pytest.raises(DimCapExceeded, match=r"step 1: .* reached 36 words, above cap 35"):
        cross_path_report(u2, NcPoly.word((0, 6, 1)), u2.B, u2.psi, Partition([0, 1]), 5)


def test_cross_path_report_past_the_subcoalgebra_cap():
    # x11 x21* x12 at n = 1: the products of its leg words close under both
    # legs to more than DIM_CAP = 512 words, but to a coideal of left legs of
    # 36, and the factor table reads T(psi) on that coideal filtered by psi.
    # The Gram value is e_*^{psi}(b* b), checked against the series, and the
    # Fock value against the doubled product
    from qlevy.gns import unitary_triple

    u2 = unitary_triple(U2_PARAMS)
    B, psi, alg = u2.B, u2.psi, u2.B.algebra
    b = NcPoly.word((0, 6, 1))
    bb = multiply(involute(b, alg), b, alg)
    with pytest.raises(DimCapExceeded, match="subcoalgebra of a 1-term element reached 513"):
        TwoLegSubcoalgebra(bb, B)
    assert subcoalgebra_of(bb, B).dim() == 36
    rep = cross_path_report(u2, b, B, psi, Partition([0, 1]), 5)
    want, _terms = conv_exp_series(psi, 1.0, multiply(involute(b, alg), b, alg), B)
    assert abs(rep["gram_value"] - want) <= 1e-13 * abs(want)
    ref = product_vacuum_gram(u2, b, b, B, Partition([0, 1]), 5)
    assert abs(rep["fock_value"] - ref) <= 1e-13 * abs(ref)
    assert rep["defect"] <= rep["bound"] * (1.0 + 1e-12)


def test_vacuum_gram_of_xxstar_cubed_matches_the_two_leg_oracle(azema2, azema_triple,
                                                                  monkeypatch):
    # (x x*)^3 + 1: its coideal has 33 words and 394 structure constants, so
    # the doubled layout has 1 089 states and 155 236 constants; on the
    # two-leg subcoalgebra (117 words) it has 1 044 484, above TERM_BUDGET,
    # which the oracle's layout alone is let past
    from qlevy.fock import _FockMesh

    B, _, _ = azema2
    c = NcPoly({(X, XS) * 3: 0.7 - 0.4j, (): 1.0})
    sub = subcoalgebra_of(c, B)
    assert (sub.dim(), sub.constants[0].size) == (33, 394)
    for alpha in (Partition.uniform(0, 1, 4), Partition([0.0, 0.25, 0.5, 1.0])):
        got = product_vacuum_gram(azema_triple, c, c, B, alpha, 5)
        oracle = TwoLegSubcoalgebra(c, B)
        mesh = _FockMesh(azema_triple, alpha, 5)
        factors = mesh.vacuum_factors(oracle, oracle, mesh.factor.vacuum())
        monkeypatch.setattr(qlevy.subcoalg, "TERM_BUDGET", 2 * 10 ** 6)
        want = doubled_product(oracle, oracle, c, c, factors)
        monkeypatch.undo()
        assert abs(got - want) <= 1e-13 * abs(want), (alpha.times, got, want)


def _vacuum_amplitude_oracle(evo):
    d = evo.params.d
    om = evo.factor.vacuum()
    out = np.eye(d, dtype=complex)
    for b in evo.block_of:
        blk = evo.blocks[b]
        out = out @ np.array([[np.vdot(om, blk[i][j] @ om) for j in range(d)]
                              for i in range(d)])
    return out


def _unitarity_defect_oracle(evo):
    """Each probe pair advanced alone through one transfer matrix per interval."""
    d, m = evo.params.d, evo.factor.m
    n = len(evo.block_of)
    probe_slots = sorted({0, n // 2, n - 1})
    variants = [evo.factor.vacuum()]
    for mu in range(m):
        e = np.zeros(evo.factor.dim, dtype=complex)
        e[evo.factor.index[(0,) * mu + (1,) + (0,) * (m - mu - 1)]] = 1.0
        variants.append(e)

    def transfer(r, u, v):
        blk = evo.blocks[evo.block_of[r]]
        au = [[blk[i][j] @ variants[u] for j in range(d)] for i in range(d)]
        av = [[blk[i][j] @ variants[v] for j in range(d)] for i in range(d)]
        p = np.empty((d * d, d * d), dtype=complex)
        for k in range(d):
            for kp in range(d):
                for l in range(d):
                    for lp in range(d):
                        p[k * d + kp, l * d + lp] = np.vdot(au[k][l], av[kp][lp])
        return p

    probes = [None] + [(r, v) for r in probe_slots for v in range(1, len(variants))]
    start = np.zeros(d * d, dtype=complex)
    for i in range(d):
        start[i * d + i] = 1.0
    defect = 0.0
    for pa in probes:
        for pb in probes:
            row = start.copy()
            for r in range(n):
                u = pa[1] if pa is not None and pa[0] == r else 0
                v = pb[1] if pb is not None and pb[0] == r else 0
                row = row @ transfer(r, u, v)
            for j in range(d):
                for jp in range(d):
                    want = 1.0 if (j == jp and pa == pb) else 0.0
                    defect = max(defect, abs(row[j * d + jp] - want))
    return float(defect)


def _params_d2_m1():
    rng = np.random.default_rng(11)
    w, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    L = rng.normal(size=(2, 2, 1)) + 1j * rng.normal(size=(2, 2, 1))
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return UnitaryTripleParams(2, w, 0.5 * L / np.abs(L).max(), (h + h.conj().T) / 2.0)


def _params_d1_m2():
    rng = np.random.default_rng(12)
    w, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return UnitaryTripleParams(1, w, np.array([[[0.3, -0.2j]]]), np.array([[0.5]]))


@pytest.mark.parametrize("make_params", [_params_d1_m2, _params_d2_m1])
def test_unitary_evolution_matches_per_interval_oracle(make_params):
    params = make_params()
    uneven = Partition([0.0, 0.25, 0.5, 0.6, 0.7, 0.8, 1.05, 1.3, 1.45])
    for alpha in (Partition.uniform(0, 0.4, 64), uneven):
        evo, defect = unitary_product_evolution(params, params.d, alpha, 6)
        assert len(evo.blocks) <= len(set(np.round(alpha.steps(), 15)))
        assert defect == _unitarity_defect_oracle(evo)
        assert np.array_equal(evo.vacuum_amplitude(), _vacuum_amplitude_oracle(evo))
    assert len(evo.blocks) >= 3
