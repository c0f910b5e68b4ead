import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qlevy.bialg
import qlevy.subcoalg
from qlevy.bialg import LinearFunctional, convolve_eval, counit_functional
from qlevy.constructions import make_azema, make_unitary_bialgebra
from qlevy.errors import DimCapExceeded, InvalidParameter, MeshTooCoarse, TermBudgetExceeded
from qlevy.gns import UnitaryTripleParams, unitary_triple
from qlevy.ncpoly import NcPoly, involute, multiply, parse_poly, random_poly
from qlevy.partition import Partition
from qlevy.subcoalg import (
    DENSE_POWER_DIM,
    ProductFamilySpec,
    _counit_row,
    banach_product_check,
    coalgebra_product_check,
    conv_exp,
    conv_exp_series,
    doubled_product,
    factor_table,
    subcoalgebra_of,
    transfer_matrix,
)

X, XS, Y = 0, 1, 2


@pytest.fixture(scope="module")
def azema2():
    return make_azema(2.0)


def span_words(sub):
    words = set()
    for b in sub.basis:
        words |= set(b.terms)
    return words


def test_sub_of_x(azema2):
    B, _, _ = azema2
    sub = subcoalgebra_of(NcPoly.word((X,)), B)
    assert sub.dim() == 3
    assert span_words(sub) == {(), (X,), (Y,)}
    assert sub.check(B) < 1e-10


def test_sub_of_grouplike(azema2):
    B, _, _ = azema2
    sub = subcoalgebra_of(NcPoly.word((Y,)), B)
    assert sub.dim() == 1


def test_sub_of_xxstar(azema2):
    B, _, _ = azema2
    sub = subcoalgebra_of(NcPoly.word((X, XS)), B)
    assert sub.dim() == 8
    assert span_words(sub) == {
        (), (X,), (XS,), (Y,), (Y, Y), (X, Y), (XS, Y), (X, XS)}
    assert sub.check(B) < 1e-10


def test_dim_cap(monkeypatch):
    # the cap is checked when a subcoalgebra is first closed: a fresh carrier
    B, _, _ = make_azema(2.0)
    monkeypatch.setattr(qlevy.subcoalg, "DIM_CAP", 4)
    with pytest.raises(DimCapExceeded):
        subcoalgebra_of(NcPoly.word((X, XS)), B)
    assert not B._subs


def test_subcoalgebra_of_is_held_once_per_word_set():
    B, _, psi = make_azema(2.0)
    p = NcPoly.word((X, XS))
    sub = subcoalgebra_of(p, B)
    conv_exp(psi, 1.0, p, B)
    assert subcoalgebra_of(p.scale(2.0), B) is sub
    assert len(B._subs) == 1        # the closure depends on the words only


def test_dim_cap_boundary(monkeypatch):
    # (x x*)^2 closes at exactly dim words: a cap of dim passes, dim - 1 fails,
    # both when extracting and on a fresh carrier's first conv_exp
    p = NcPoly.word((X, XS, X, XS))
    B, _, psi = make_azema(2.0)
    dim = subcoalgebra_of(p, B).dim()
    want = conv_exp(psi, 0.5, p, B)
    monkeypatch.setattr(qlevy.subcoalg, "DIM_CAP", dim)
    B, _, psi = make_azema(2.0)
    assert subcoalgebra_of(p, B).dim() == dim
    B, _, psi = make_azema(2.0)
    assert conv_exp(psi, 0.5, p, B) == want
    monkeypatch.setattr(qlevy.subcoalg, "DIM_CAP", dim - 1)
    B, _, psi = make_azema(2.0)
    with pytest.raises(DimCapExceeded):
        subcoalgebra_of(p, B)
    B, _, psi = make_azema(2.0)
    with pytest.raises(DimCapExceeded):
        conv_exp(psi, 0.5, p, B)


def test_transfer_counit_identity(azema2):
    B, _, _ = azema2
    sub = subcoalgebra_of(NcPoly.word((X, XS)), B)
    m = transfer_matrix(counit_functional(B), sub)
    assert np.abs(m - np.eye(sub.dim())).max() < 1e-10


def test_transfer_psi_zero_on_x(azema2):
    B, _, psi = azema2
    sub = subcoalgebra_of(NcPoly.word((X,)), B)
    m = transfer_matrix(psi, sub)
    assert np.abs(m).max() < 1e-12


def test_transfer_grouplike_scalar(azema2):
    B, _, _ = azema2
    z = 0.7 - 0.2j
    f = LinearFunctional("f", lambda w: z if w == (Y,) else 0.0)
    sub = subcoalgebra_of(NcPoly.word((Y,)), B)
    m = transfer_matrix(f, sub)
    assert m.shape == (1, 1)
    assert abs(m[0, 0] - z) < 1e-12


def test_conv_exp_unit(azema2):
    B, _, psi = azema2
    assert conv_exp(psi, 1.7, NcPoly.one(), B) == pytest.approx(1.0)


def test_conv_exp_grouplike(azema2):
    B, _, _ = azema2
    z = 0.3 + 0.4j
    f = LinearFunctional("f", lambda w: z if w == (Y,) else 0.0)
    v = conv_exp(f, 1.25, NcPoly.word((Y,)), B)
    assert abs(v - np.exp(1.25 * z)) < 1e-12


def test_conv_exp_xxstar_linear(azema2):
    B, _, psi = azema2
    for t in (0.1, 0.7, 2.0):
        assert conv_exp(psi, t, NcPoly.word((X, XS)), B) == pytest.approx(t, abs=1e-12)


def test_conv_exp_primitive(azema2):
    _, prim, psi = azema2
    # x is primitive in the companion structure; psi(x) = 0 but use custom f
    z = 1.1 - 0.6j
    f = LinearFunctional("f", lambda w: z if w == (X,) else 0.0)
    v = conv_exp(f, 0.8, NcPoly.word((X,)), prim)
    assert abs(v - 0.8 * z) < 1e-12


def test_series_matches_matrix(azema2):
    B, _, psi = azema2
    rng = np.random.default_rng(21)
    for _ in range(40):
        p = random_poly(B.algebra, rng, 4)
        t = float(rng.uniform(0.0, 2.0))
        v1 = conv_exp(psi, t, p, B)
        v2, _n = conv_exp_series(psi, t, p, B, tol=1e-12)
        assert abs(v1 - v2) < 1e-10


@settings(max_examples=100, derandomize=True, deadline=None)
@given(log_q=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1),
       t=st.floats(0.0, 2.0))
def test_series_matches_matrix_across_q(log_q, seed, t):
    B, _, psi = make_azema(10.0 ** log_q)
    p = random_poly(B.algebra, np.random.default_rng(seed), 4)
    v1 = conv_exp(psi, t, p, B)
    v2, _n = conv_exp_series(psi, t, p, B, tol=1e-12)
    assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v2), p.norm1())


def test_series_unit(azema2):
    B, _, psi = azema2
    v, n_terms = conv_exp_series(psi, 1.0, NcPoly.one(), B, tol=1e-12)
    assert v == pytest.approx(1.0)


@pytest.mark.parametrize("q", [1e-3, 2.0])
@pytest.mark.parametrize("t", [0.1, 1.0, 2.0])
def test_series_reaches_first_nonzero_power(q, t):
    # psi, psi^{*2} and psi^{*3} vanish on (x x*)^4 and psi^{*4} = 24, so
    # e_*^{t psi} = t^4 there; the series must not stop on the zero terms
    B, _, psi = make_azema(q)
    v, _n = conv_exp_series(psi, t, NcPoly.word((X, XS) * 4), B)
    assert abs(v - t ** 4) <= 1e-12 * t ** 4


@pytest.mark.parametrize("t", [0.1, 1.0, 2.0])
def test_conv_exp_matches_series_at_q1e3_degree8(t):
    # psi^{*4}((x x*)^4) = 24 and every other power is 0, which the series
    # sums exactly to t^4; T(psi) is nilpotent, so conv_exp sums it exactly
    # too, where dense expm read 0.9999874603 at t = 1 (1.3e-5 relative)
    B, _, psi = make_azema(1e3)
    p = NcPoly.word((X, XS) * 4)
    v, _n = conv_exp_series(psi, t, p, B)
    assert abs(conv_exp(psi, t, p, B) - v) <= 1e-10 * abs(v)


# -- the counit-row route: terminating sum on nilpotent T, dense expm otherwise --

@pytest.fixture
def expm_calls(monkeypatch):
    """Every matrix handed to scipy.linalg.expm while the test runs."""
    seen = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda m: seen.append(np.array(m)) or expm(m))
    return seen


@pytest.mark.parametrize("q", [1e-3, 2.0, 1e3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_nilpotent_row_matches_dense_oracle_on_azema(q, k, expm_calls):
    # T(psi) is strictly upper triangular in key order on c (x x*)^k + 1
    B, _, psi = make_azema(q)
    p = NcPoly({(X, XS) * k: 0.7 - 0.4j, (): 1.0})
    sub = subcoalgebra_of(p, B)
    m = transfer_matrix(psi, sub)
    assert not np.tril(m).any()
    for t in (0.1, 1.0, 2.0):
        oracle = sub.counit_vector @ scipy.linalg.expm(t * m)
        del expm_calls[:]
        value = conv_exp(psi, t, p, B)
        want = oracle @ sub.coords(p)
        assert abs(value - want) <= 1e-13 * abs(want), (t, value, want)
        table = factor_table(psi, t, [NcPoly.one()], [p], B)
        assert table[0, 0] == value
        row = _counit_row(sub.counit_vector, m, t)
        assert np.abs(row - oracle).max() <= 1e-13 * np.abs(oracle).max(), t
        assert expm_calls == []


def test_nilpotent_row_keeps_every_term_of_a_full_jordan_block(expm_calls):
    # the shift N on C^4 has N^3 != 0 = N^4: e_0 e^{tN} = (1, t, t^2/2, t^3/6),
    # so every one of the d terms counts and each carries its own 1/k!
    n = np.diag(np.ones(3, dtype=complex), 1)
    delta = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    for t in (0.1, 1.0, 2.0, -3.0):
        row = _counit_row(delta, n, t)
        want = np.array([1.0, t, t ** 2 / 2.0, t ** 3 / 6.0])
        assert np.abs(row - want).max() <= 1e-15 * np.abs(want).max(), t
    assert expm_calls == []


@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (2, 2)])
def test_one_nonzero_on_the_diagonal_takes_dense_expm(entry, expm_calls):
    m = np.zeros((3, 3), dtype=complex)
    m[entry] = 1.0
    m[0, 2] = 0.5
    delta = np.ones(3, dtype=complex)
    row = _counit_row(delta, m, 2.0)
    assert len(expm_calls) == 1
    want = delta @ scipy.linalg.expm(2.0 * m)
    assert np.abs(row - want).max() <= 1e-14 * np.abs(want).max()


def test_unitary2_transfer_with_a_diagonal_takes_dense_expm(expm_calls):
    t = unitary_triple(UnitaryTripleParams(
        2, np.eye(2), 0.3 * np.ones((2, 2, 1)), np.array([[0.2, 0.1j], [-0.1j, -0.3]])))
    B, psi = t.B, t.psi
    p = parse_poly("x11 x21^*", B.algebra).scale(0.6 + 0.2j).add(NcPoly.one())
    assert np.diag(transfer_matrix(psi, subcoalgebra_of(p, B))).any()
    for s in (0.1, 1.0, 2.0):
        del expm_calls[:]
        got = conv_exp(psi, s, p, B)
        assert len(expm_calls) == 1
        v, _n = conv_exp_series(psi, s, p, B)
        assert abs(got - v) <= 1e-10 * abs(v)


def test_shipped_convexp_config_hands_no_nilpotent_matrix_to_expm(tmp_path, expm_calls):
    from qlevy.cli import builtin_config_path, run_experiment

    _csv, _json, summary = run_experiment(builtin_config_path("convexp_azema_q2.json"),
                                          str(tmp_path))
    assert summary["assertions"] and all(summary["assertions"].values()), summary
    assert all(np.tril(m).any() for m in expm_calls)


@pytest.mark.parametrize("word", ["x11 x21^*", "x12 x22^* x21", "x11 x21^* x12 x22"])
def test_series_matches_matrix_on_unitary2(word):
    # degree-3 and -4 words of U<2>: Delta_n has 8^(n-1) legs and more, the
    # series only ever holds a subset of the subcoalgebra's words
    t = unitary_triple(UnitaryTripleParams(
        2, np.eye(2), 0.3 * np.ones((2, 2, 1)), np.array([[0.2, 0.1j], [-0.1j, -0.3]])))
    B, psi = t.B, t.psi
    p = parse_poly(word, B.algebra)
    for s in (0.1, 1.0, 2.0):
        v, _n = conv_exp_series(psi, s, p, B)
        assert abs(conv_exp(psi, s, p, B) - v) <= 1e-10 * abs(v)


def test_coproduct_series_and_convolve_eval_retain_little_memory():
    # Delta_n is built without a memo, and the series and convolve_eval
    # never build it: what the spec holds afterwards is its coproducts of
    # words, subcoalgebras and normal forms
    B, _, psi = make_azema(2.0)
    p = NcPoly({(X, XS) * 3: 0.7 - 0.4j, (): 1.0})
    tracemalloc.start()
    try:
        exp = B.iterated_coproduct(NcPoly.word((X,)), 256)
        assert len(exp.terms) == 256
        del exp
        for t in (0.1, 1.0, 2.0):
            conv_exp_series(psi, t, p, B)
        convolve_eval([psi] * 4, p, B)
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2e6


def test_factor_table_memory_stays_flat_over_distinct_steps():
    # a partition with random times never repeats a step, so nothing may be
    # held per step: after a warm-up, 2 500 more calls retain under 0.5 MB
    B, _, psi = make_azema(2.0)
    entries = [parse_poly("x x^*", B.algebra), NcPoly.word((X,)), NcPoly.one()]
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        for i in range(3000):
            factor_table(psi, rng.uniform(0.01, 0.1), entries, entries, B)
            if i == 499:
                warm, _peak = tracemalloc.get_traced_memory()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained - warm < 5e5


@pytest.mark.parametrize("q", [1e-3, 0.013, 49.0, 1e3])
def test_coproduct_keeps_every_leg_across_q(q):
    # normal words are a basis, so a leg with a q^-k-small coefficient is
    # exact: Delta((x x*)^4) has 177 legs at every q, and psi^{*4} reads 24
    B, _, psi = make_azema(q)
    dims = [len(subcoalgebra_of(NcPoly.word((X, XS) * k), B).basis) for k in (1, 2, 3, 4)]
    assert dims == [8, 34, 117, 368]
    w = (X, XS) * 4
    assert len(B.key_delta(w)) == 177
    assert abs(convolve_eval([psi] * 4, NcPoly.word(w), B) - 24.0) <= 1e-12 * 24.0


def test_series_budget_names_the_term(azema2, monkeypatch):
    B, _, psi = azema2
    monkeypatch.setattr(qlevy.bialg, "TERM_BUDGET", 2)
    with pytest.raises(TermBudgetExceeded, match="series, term 2: .* more than 2 terms"):
        conv_exp_series(psi, 1.0, NcPoly.word((X, XS) * 3), B)


def test_conv_exp_zero_time(azema2):
    B, _, psi = azema2
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = random_poly(B.algebra, rng, 3)
        assert conv_exp(psi, 0.0, p, B) == pytest.approx(B.counit(p), abs=1e-12)


def test_semigroup_law(azema2):
    B, _, psi = azema2
    rng = np.random.default_rng(23)
    for _ in range(25):
        p = random_poly(B.algebra, rng, 3)
        s, t = rng.uniform(0.0, 1.0, size=2)
        phi_s = LinearFunctional("phi_s", lambda w: conv_exp(psi, s, NcPoly.word(w), B))
        phi_t = LinearFunctional("phi_t", lambda w: conv_exp(psi, t, NcPoly.word(w), B))
        lhs = convolve_eval([phi_s, phi_t], p, B)
        rhs = conv_exp(psi, s + t, p, B)
        assert abs(lhs - rhs) < 1e-10


def test_choice_independence(azema2):
    B, _, psi = azema2
    rng = np.random.default_rng(24)
    p = NcPoly.word((X, XS))
    for _ in range(10):
        q = random_poly(B.algebra, rng, 3)
        big = subcoalgebra_of(p.add(q), B)
        # enlarge so that p itself is inside
        try:
            x = big.coords(p)
        except InvalidParameter:
            continue   # p need not lie in the subcoalgebra of p + q
        v = complex(_counit_row(big.counit_vector, transfer_matrix(psi, big), 0.9) @ x)
        assert abs(v - conv_exp(psi, 0.9, p, B)) < 1e-12


def test_positivity(azema2):
    B, _, psi = azema2
    rng = np.random.default_rng(25)
    for _ in range(20):
        p = random_poly(B.algebra, rng, 2, n_terms=3)
        t = float(rng.uniform(0.0, 1.0))
        pp = multiply(involute(p, B.algebra), p, B.algebra)
        v = conv_exp(psi, t, pp, B)
        assert v.real >= -1e-10
        assert abs(v.imag) <= 1e-10


def test_banach_nilpotent_exact():
    g = np.array([[0.0, 1.0], [0.0, 0.0]])
    spec = ProductFamilySpec("matrix-family", g, remainder=None, R=1.0, C=0.0)
    rep = banach_product_check(spec, Partition.uniform(0.0, 1.0, 8), draws=5)
    assert rep["lhs_max"] <= 1e-13
    assert rep["passed"]


def test_banach_zero_g():
    spec = ProductFamilySpec("matrix-family", np.zeros((3, 3)), R=1.0, C=0.0)
    rep = banach_product_check(spec, Partition.uniform(0.0, 1.0, 4), draws=3)
    assert rep["lhs_max"] == 0.0


def test_banach_random_instances():
    rng = np.random.default_rng(26)
    for _ in range(30):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g *= 0.5
        c = 1.0
        perts = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                 for _ in range(4)]
        perts = [m / np.linalg.norm(m, 2) for m in perts]

        def remainder(r, mu):
            return (r * r * c * c / 2.0) * perts[mu]

        spec = ProductFamilySpec("matrix-family", g, remainder=remainder,
                                 n_choices=4, R=0.5, C=c)
        n = int(rng.integers(2, 9))
        rep = banach_product_check(spec, Partition.uniform(0.0, 1.0, max(n, 2)),
                                   draws=20, rng=rng)
        assert rep["passed"], rep


def test_banach_targets_memoized_per_span(monkeypatch):
    import scipy.linalg

    rng = np.random.default_rng(27)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    spec = ProductFamilySpec("matrix-family", g, R=1.0, C=0.0)
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda m: calls.append(1) or expm(m))
    reps = [banach_product_check(spec, Partition([0.0, cut, 0.8]), draws=1)
            for cut in (0.2, 0.5, 0.6)]
    reps.append(banach_product_check(spec, Partition.uniform(0.0, 0.5, 2), draws=1))
    assert len(calls) == 2
    target, norm_g = spec.target(0.8)
    assert np.array_equal(target, expm(0.8 * g))
    assert norm_g == np.linalg.norm(g, 2)
    assert all(rep["norm_G"] == norm_g for rep in reps)


def _banach_oracle(spec, partition, draws, rng):
    """banach_product_check with I + rG built afresh at every step."""
    g = np.asarray(spec.baseline, dtype=complex)
    n = g.shape[0]
    span = partition.t - partition.s
    norm_g = float(np.linalg.norm(g, 2))
    target = scipy.linalg.expm(span * g)
    mesh = partition.mesh()
    c = float(spec.C) if spec.C is not None else 0.0
    bound = (mesh * span * np.exp(span * max(norm_g, c))
             * (c ** 2 + norm_g ** 2 * np.exp(mesh * norm_g)) / 2.0)
    worst = 0.0
    for _ in range(draws):
        prod = np.eye(n, dtype=complex)
        for r in partition.steps():
            a = np.eye(n, dtype=complex) + r * g
            if spec.remainder is not None:
                mu = int(rng.integers(spec.n_choices))
                a = a + np.asarray(spec.remainder(r, mu), dtype=complex)
            prod = prod @ a
        worst = max(worst, float(np.linalg.norm(prod - target, 2)))
    return {"lhs_max": worst, "bound": float(bound), "passed": bool(worst <= bound + 1e-12),
            "mesh": mesh, "draws": draws, "norm_G": norm_g, "C": c}


@pytest.mark.parametrize("with_remainder", [False, True])
def test_banach_check_matches_fresh_step_oracle(with_remainder):
    rng = np.random.default_rng(28)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    perts = [0.5 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
             for _ in range(3)]

    def remainder(r, mu):
        return r * r * perts[mu]

    def spec():
        return ProductFamilySpec("matrix-family", 0.4 * g,
                                 remainder=remainder if with_remainder else None,
                                 n_choices=3, R=1.0, C=1.0)

    for part in (Partition.uniform(0.0, 1.0, 8), Partition([0.0, 0.1, 0.4, 0.5, 0.9, 1.0])):
        got = banach_product_check(spec(), part, draws=6, rng=np.random.default_rng(3))
        assert got == _banach_oracle(spec(), part, 6, np.random.default_rng(3))


def test_banach_mesh_guard():
    spec = ProductFamilySpec("matrix-family", np.zeros((2, 2)), R=0.1, C=0.0)
    with pytest.raises(MeshTooCoarse):
        banach_product_check(spec, Partition.uniform(0.0, 1.0, 2), draws=1)


def test_coalgebra_check_exact_grouplike(azema2):
    B, _, _ = azema2
    z = 0.6
    f = LinearFunctional("f", lambda w: z if w == (Y,) else 0.0)
    spec = ProductFamilySpec("functional-family", f, remainder=None, R=1.0)
    p = NcPoly.word((Y,))
    rep = coalgebra_product_check(spec, p, B, Partition.uniform(0.0, 1.0, 16))
    # scalar: |prod (1 + r z) - e^{t z}|
    want = abs(np.prod([1 + z / 16.0] * 16) - np.exp(z))
    assert rep["lhs_max"] == pytest.approx(want, abs=1e-12)
    assert rep["passed"]


def test_coalgebra_check_unit(azema2):
    B, _, psi = azema2
    spec = ProductFamilySpec("functional-family", psi, remainder=None, R=1.0)
    rep = coalgebra_product_check(spec, NcPoly.one(), B,
                                  Partition.uniform(0.0, 1.0, 8))
    assert rep["lhs_max"] <= 1e-13


def test_coalgebra_check_true_semigroup(azema2):
    B, _, psi = azema2
    delta = counit_functional(B)
    p = NcPoly.word((X, XS))

    def remainder(r, mu):
        # phi_r - delta - r psi
        return LinearFunctional(
            f"rem{r}", lambda w: conv_exp(psi, r, NcPoly.word(w), B)
            - delta(NcPoly.word(w)) - r * psi(NcPoly.word(w)))

    spec = ProductFamilySpec("functional-family", psi, remainder=remainder,
                             n_choices=1, R=1.0)
    prev = None
    for n in (2, 4, 8, 16, 32, 64):
        rep = coalgebra_product_check(spec, p, B, Partition.uniform(0.0, 1.0, n),
                                      draws=1)
        assert rep["passed"], rep
        if prev is not None and prev > 1e-13:
            assert rep["lhs_max"] <= prev
        prev = rep["lhs_max"]


def _carrier_cases():
    for q in (1e-3, 2.0, 1e3):
        B, _, psi = make_azema(q)
        yield f"azema q={q:g}", B, psi
    for d in (1, 2):
        B = make_unitary_bialgebra(d)
        # a generic functional: the table must match conv_exp for any psi
        psi = LinearFunctional(f"psi-u{d}", lambda w: (0.3 - 0.2j * len(w))
                               / (1.0 + sum(w)) if w else 0.0)
        yield f"U<{d}>", B, psi


def test_factor_table_matches_per_pair_conv_exp():
    rng = np.random.default_rng(48)
    for name, B, psi in _carrier_cases():
        alg = B.algebra
        left = [B.random_element(rng, 2) for _ in range(3)] + [NcPoly.one()]
        right = [B.random_element(rng, 2) for _ in range(2)]
        for dt in (0.05, 0.3, 1.0):
            table = factor_table(psi, dt, left, right, B)
            assert table.shape == (len(left), len(right))
            for i, a in enumerate(left):
                for j, b in enumerate(right):
                    want = conv_exp(psi, dt, multiply(involute(a, alg), b, alg), B)
                    assert abs(table[i, j] - want) <= 1e-13 * max(1.0, abs(want)), \
                        (name, dt, i, j)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_conv_exp_rejects_non_finite_t(azema2, t):
    B, _, psi = azema2
    with pytest.raises(InvalidParameter, match="t must be finite"):
        conv_exp(psi, t, NcPoly.word((X,)), B)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_conv_exp_series_rejects_non_finite_t(azema2, t):
    B, _, psi = azema2
    with pytest.raises(InvalidParameter, match=f"t must be finite, got {t}"):
        conv_exp_series(psi, t, NcPoly.word((X, XS)), B)


@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_factor_table_rejects_non_finite_dt(azema2, dt):
    B, _, psi = azema2
    x = NcPoly.word((X,))
    with pytest.raises(InvalidParameter, match=f"at step {dt}: t must be finite, got {dt}"):
        factor_table(psi, dt, [x], [x], B)


def test_conv_exp_names_an_overflowing_t():
    # e_*^{t psi}((x x*)^4) = t^4 at q = 1e3 overflows at t = 1e300
    B, _, psi = make_azema(1e3)
    with np.errstate(all="ignore"), \
            pytest.raises(InvalidParameter, match=r"at t = 1e\+300 overflowed"):
        conv_exp(psi, 1e300, NcPoly.word((X, XS) * 4), B)


def test_conv_exp_series_names_an_overflowing_t():
    # t ** 2 overflows a float at t = 1e300: a typed error naming t and the
    # term, not a bare OverflowError
    B, _, psi = make_azema(2.0)
    with pytest.raises(InvalidParameter, match=r"term 2 at t = 1e\+300 is not finite"):
        conv_exp_series(psi, 1e300, NcPoly.word((X, XS) * 2), B)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_conv_exp_series_rejects_a_tol_that_is_not_positive_and_finite(azema2, tol):
    B, _, psi = azema2
    with pytest.raises(InvalidParameter, match=f"tol must be positive and finite, got {tol}"):
        conv_exp_series(psi, 1.0, NcPoly.word((X, XS)), B, tol=tol)


def test_nilpotent_sum_stops_after_the_side_of_the_matrix_on_nan():
    # every v_k past the first is NaN; the sum still ends after d terms
    n = np.diag(np.full(3, 1e300, dtype=complex), 1)
    with np.errstate(all="ignore"), pytest.raises(InvalidParameter, match="overflowed"):
        _counit_row(np.ones(4, dtype=complex), n, 1e300)
    with pytest.raises(InvalidParameter, match="non-finite entry"):
        _counit_row(np.ones(2, dtype=complex), np.array([[0, np.nan], [0, 0]]), 1.0)


def _nan_at(mu_bad, calls_before_nan=0):
    """Remainder functional reading NaN at choice mu_bad, after that many
    finite calls at it."""
    calls = []

    def remainder(r, mu):
        if mu == mu_bad:
            calls.append(r)
        z = float("nan") if mu == mu_bad and len(calls) > calls_before_nan else 1e-3 * r * r
        return LinearFunctional(f"rem{r},{mu}", lambda w: z if w == (X, XS) else 0.0)

    return remainder


def test_coalgebra_check_rejects_a_nan_remainder(azema2):
    # at the parent lhs_max read 0.0 and the check passed: max() skips NaN
    B, _, psi = azema2
    spec = ProductFamilySpec("functional-family", psi, remainder=_nan_at(1), n_choices=2)
    with pytest.raises(InvalidParameter, match=r"remainder at step r = 0.25, mu = 1 is not"):
        coalgebra_product_check(spec, NcPoly.word((X, XS)), B, Partition.uniform(0.0, 1.0, 4))


def test_coalgebra_check_rejects_a_nan_step_product(azema2):
    # finite for the constants (one call: both steps are 0.5) and the first
    # step of the draw, NaN from the second step on
    B, _, psi = azema2
    spec = ProductFamilySpec("functional-family", psi, remainder=_nan_at(0, 2), n_choices=1)
    with pytest.raises(InvalidParameter, match=r"coalgebra_product_check: the step product "
                       r"is not finite on \[0.5, 1\] at mu = 0"):
        coalgebra_product_check(spec, NcPoly.word((X, XS)), B, Partition.uniform(0.0, 1.0, 2))


def test_banach_check_rejects_a_nan_remainder():
    g = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def remainder(r, mu):
        return np.full((2, 2), np.nan if mu == 1 else r * r)

    spec = ProductFamilySpec("matrix-family", g, remainder=remainder, n_choices=2, C=1.0)
    with pytest.raises(InvalidParameter, match=r"banach_product_check: the step product is "
                       r"not finite on \[[0-9.]+, [0-9.]+\] at mu = 1"):
        banach_product_check(spec, Partition.uniform(0.0, 1.0, 8), draws=5)


def test_banach_check_names_an_overflowing_product():
    spec = ProductFamilySpec("matrix-family", np.zeros((2, 2)), n_choices=1, C=1.0,
                             remainder=lambda r, mu: np.full((2, 2), 1e200))
    with np.errstate(all="ignore"), \
            pytest.raises(InvalidParameter, match="the step product overflowed"):
        banach_product_check(spec, Partition.uniform(0.0, 1.0, 4), draws=1)


def test_matrix_family_rejects_a_nan_baseline():
    spec = ProductFamilySpec("matrix-family", np.array([[0.0, np.nan], [0.0, 0.0]]), C=0.0)
    with pytest.raises(InvalidParameter, match="baseline G is not finite"):
        spec.target(1.0)
    with pytest.raises(InvalidParameter, match="baseline G is not finite"):
        banach_product_check(spec, Partition.uniform(0.0, 1.0, 4), draws=1)


# -- doubled_product against an explicit step product -------------------------

# (left, right) subcoalgebra words: doubled dimensions 9, 24, 51, 64 and 136,
# on both sides of DENSE_POWER_DIM; Delta(x x* x) has two legs with the same
# left word, so two constants of the doubled step land on one entry
_DOUBLED_PAIRS = [((X,), (X,)), ((XS,), (X, XS)), ((X,), (X, XS, X)), ((X, XS), (X, XS)),
                  ((X, XS, X), (X, XS))]


def _doubled_step(B, subc, subd, values):
    """T(Psi) on conj(subc) (x) subd, entry by entry from the coproducts of
    the basis words: column (j1, j2) gets conj(z1) z2 Psi[v1, v2] at row
    (u1, u2) for each leg pair z1 u1 (x) v1 of Delta j1 and z2 u2 (x) v2 of
    Delta j2."""
    wc = [next(iter(b.terms)) for b in subc.basis]
    wd = [next(iter(b.terms)) for b in subd.basis]
    ic = {w: i for i, w in enumerate(wc)}
    idd = {w: i for i, w in enumerate(wd)}
    q = len(wd)
    t = np.zeros((len(wc) * q, len(wc) * q), dtype=complex)
    for j1, w1 in enumerate(wc):
        for (a1, b1), z1 in B.key_delta(w1).items():
            for j2, w2 in enumerate(wd):
                for (a2, b2), z2 in B.key_delta(w2).items():
                    t[ic[a1] * q + idd[a2], j1 * q + j2] += (
                        np.conj(z1) * z2 * values[ic[b1], idd[b2]])
    return t


def _explicit_product(B, subc, subd, c, d, factors):
    # delta T_1^{g_1} ... T_k^{g_k} applied to conj(c) (x) d, one step at a time
    m = np.eye(subc.dim() * subd.dim(), dtype=complex)
    for values, g in factors:
        t = _doubled_step(B, subc, subd, values)
        for _ in range(g):
            m = m @ t
    counit = np.kron([np.conj(B.key_counit(next(iter(b.terms)))) for b in subc.basis],
                     [B.key_counit(next(iter(b.terms))) for b in subd.basis])
    return complex(counit @ m @ np.kron(subc.coords(c).conj(), subd.coords(d)))


def _near_counit(rng, subc, subd, g):
    # Psi = conj(delta) (x) delta + O(1/g), so Psi^{*g} stays of order one
    noise = rng.normal(size=(subc.dim(), subd.dim())) + 1j * rng.normal(
        size=(subc.dim(), subd.dim()))
    return np.outer(subc.counit_vector.conj(), subd.counit_vector) + noise / max(g, 1)


def test_doubled_pairs_cover_both_routes(azema2):
    B, _, _ = azema2
    sizes = [subcoalgebra_of(NcPoly.word(a), B).dim() * subcoalgebra_of(NcPoly.word(b), B).dim()
             for a, b in _DOUBLED_PAIRS]
    assert sizes == [9, 24, 51, 64, 136]
    assert min(sizes) <= DENSE_POWER_DIM < max(sizes)


@pytest.mark.parametrize("pair", _DOUBLED_PAIRS, ids=lambda p: f"{len(p[0])}x{len(p[1])}")
def test_doubled_product_matches_explicit_step_product(azema2, pair):
    B, _, _ = azema2
    rng = np.random.default_rng(18)
    subc, subd = (subcoalgebra_of(NcPoly.word(w), B) for w in pair)
    c = NcPoly({next(iter(b.terms)): complex(rng.normal(), rng.normal()) for b in subc.basis})
    d = NcPoly({next(iter(b.terms)): complex(rng.normal(), rng.normal()) for b in subd.basis})
    for g in (0, 1, 2, 3, 7, 64, 512):
        factors = [(_near_counit(rng, subc, subd, g), g)]
        got = doubled_product(subc, subd, c, d, factors)
        want = _explicit_product(B, subc, subd, c, d, factors)
        assert abs(got - want) <= 1e-12 * abs(want), (g, got, want)
    # several factors in interval order, one of them the identity
    factors = [(_near_counit(rng, subc, subd, 9), g) for g in (3, 0, 5, 1)]
    got = doubled_product(subc, subd, c, d, factors)
    want = _explicit_product(B, subc, subd, c, d, factors)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_doubled_product_grouplike_power_in_closed_form(azema2):
    # sub(y) is one group-like word, so Psi^{*g}(conj(y) (x) y) = v^g; at
    # g = 10^6 only repeated squaring finishes quickly.  v -> v^g has
    # condition number g, so rounding in the squarings may reach g eps.
    B, _, _ = azema2
    sub = subcoalgebra_of(NcPoly.word((Y,)), B)
    g = 10 ** 6
    v = np.exp((-0.5 + 2j) / g)
    got = doubled_product(sub, sub, NcPoly.word((Y,)), NcPoly.word((Y,)),
                          [(np.array([[v]]), g)])
    want = complex(v) ** g
    assert abs(got - want) <= 4 * g * np.finfo(float).eps * abs(want)
    assert abs(want - np.exp(-0.5 + 2j)) <= 1e-9


def test_doubled_product_power_zero_is_the_counit(azema2):
    B, _, _ = azema2
    sub = subcoalgebra_of(NcPoly.word((X, XS)), B)
    c = NcPoly({(X, XS): 2.0, (): 0.5 - 1j})
    d = NcPoly({(X, XS): 1.0, (): 3.0})
    values = np.ones((sub.dim(), sub.dim()), dtype=complex)
    got = doubled_product(sub, sub, c, d, [(values, 0)])
    assert got == pytest.approx(np.conj(B.counit(c)) * B.counit(d), abs=1e-15)


@pytest.mark.parametrize("g", [-1, -7, 2.0, 1.5, "3"])
def test_doubled_product_rejects_a_power_that_is_not_a_natural_number(azema2, g):
    B, _, _ = azema2
    sub = subcoalgebra_of(NcPoly.word((X,)), B)
    x = NcPoly.word((X,))
    values = np.ones((sub.dim(), sub.dim()), dtype=complex)
    with pytest.raises(InvalidParameter, match=r"power g of factor 1 .*" + re.escape(repr(g))):
        doubled_product(sub, sub, x, x, [(values, 2), (values, g)])
