import functools
import math

import numpy as np
import pytest

from qlevy.bialg import LinearFunctional, iterated_coproduct
from qlevy.constructions import Morphism, make_azema, make_grouplike
from qlevy.errors import InvalidParameter, TermBudgetExceeded
from qlevy.gram import (
    DEFECT_FLOOR,
    FactorizedVectorSum,
    _uniform_mesh,
    convergence_sweep,
    gram,
    gram_matrix,
    identity_morphism,
    limit_value,
    reverse_check,
    theta_expand,
    zeta_expand,
)
from qlevy.ncpoly import NcPoly, involute, multiply, normal_form, random_poly
from qlevy.partition import TIME_TOL, Partition
from qlevy.subcoalg import conv_exp, doubled_product, subcoalgebra_of

X, XS, Y = 0, 1, 2

# Azema's psi sees no y-letters, under which its transfer tables commute;
# psi_skew tells every factor order apart
PSI_SKEW = LinearFunctional(
    "psi-skew", lambda w: (1.0 - 0.4 * w.count(X) + 0.5j * w.count(Y)) / len(w)
    if w else 0.0)


@pytest.fixture(scope="module")
def azema2():
    return make_azema(2.0)


@pytest.fixture(scope="module")
def chain(azema2):
    B, _, psi = azema2
    G, kappa, kappa_tilde = make_grouplike(B, 6)
    return B, psi, G, kappa, kappa_tilde


def test_theta_grouplike_single_term(chain):
    B, psi, G, kappa, _kt = chain
    ghat = G.hat(NcPoly.word((Y,)))
    u = theta_expand(ghat, kappa, Partition.uniform(0, 1, 4))
    assert len(u.terms) == 1
    (entries, z), = u.terms.items()
    assert z == 1.0
    assert all(e.terms == {(Y,): 1.0} for e in entries)


def test_limit_value_grouplike_closed_form(chain):
    # every key of G is group-like, so e_*^{tau psi o kappa} is diagonal:
    # sum c hat(g)  ->  sum c exp(tau psi(kappa(hat(g))))
    B, psi, G, kappa, _kt = chain
    rng = np.random.default_rng(41)
    for _ in range(10):
        elem = G.random_element(rng, 3)
        for tau in (0.3, 1.0, 2.5):
            want = sum(c * np.exp(tau * psi(kappa.map_key(k)))
                       for k, c in elem.terms.items())
            got = limit_value(psi, kappa, tau, elem)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_theta_primitive_letter(azema2):
    B, prim, _psi = azema2
    u = theta_expand(NcPoly.word((X,)), identity_morphism(prim),
                     Partition.uniform(0, 1, 2))
    want = {
        (NcPoly.word((X,)), NcPoly.one()): 1.0,
        (NcPoly.one(), NcPoly.word((X,))): 1.0,
    }
    assert u.terms == want


def test_theta_azema_x_three(azema2):
    B, _, _ = azema2
    u = theta_expand(NcPoly.word((X,)), identity_morphism(B),
                     Partition.uniform(0, 1, 3))
    kx, ky, k1 = NcPoly.word((X,)), NcPoly.word((Y,)), NcPoly.one()
    assert u.terms == {(kx, ky, ky): 1.0, (k1, kx, ky): 1.0, (k1, k1, kx): 1.0}


def test_gram_singleton_is_conv_exp(azema2):
    B, _, psi = azema2
    rng = np.random.default_rng(41)
    for _ in range(10):
        b = random_poly(B.algebra, rng, 2, n_terms=2)
        c = random_poly(B.algebra, rng, 2, n_terms=2)
        u = FactorizedVectorSum.singleton(b, 0.0, 0.7)
        v = FactorizedVectorSum.singleton(c, 0.0, 0.7)
        want = conv_exp(psi, 0.7, multiply(involute(b, B.algebra), c, B.algebra), B)
        assert abs(gram(u, v, psi, B) - want) < 1e-12


def test_grouplike_gram_exponential(chain):
    B, psi, G, kappa, _kt = chain
    b = NcPoly({(XS,): 1.0, (): 1.0})     # x* + 1, counit 1
    c = NcPoly({(X,): 0.5, (): 1.0})
    bh, ch = G.hat(b), G.hat(c)
    alg = B.algebra
    want = np.exp(0.9 * psi(multiply(involute(b, alg), c, alg)))
    # arbitrarily different partitions on both sides
    u = theta_expand(bh, kappa, Partition([0.0, 0.31, 0.9]))
    v = theta_expand(ch, kappa, Partition([0.0, 0.2, 0.55, 0.8, 0.9]))
    assert abs(gram(u, v, psi, B) - want) < 1e-12


def test_prop43_two_orders(azema2):
    B, _, psi = azema2
    rng = np.random.default_rng(42)
    for _ in range(50):
        b = random_poly(B.algebra, rng, 2, n_terms=2)
        c = random_poly(B.algebra, rng, 2, n_terms=2)
        n = int(rng.integers(2, 5))
        cuts = np.sort(rng.uniform(0.05, 0.95, size=n - 1))
        gamma = Partition([0.0, *cuts, 1.0])
        u = FactorizedVectorSum.singleton(b, 0.0, 1.0).refine(gamma, B)
        v = FactorizedVectorSum.singleton(c, 0.0, 1.0)
        direct = conv_exp(psi, 1.0, multiply(involute(b, B.algebra), c, B.algebra), B)
        assert abs(gram(u, v, psi, B) - direct) < 1e-12


def test_refinement_invariance(azema2):
    B, _, psi = azema2
    rng = np.random.default_rng(43)
    u = theta_expand(NcPoly.word((X,)), identity_morphism(B),
                     Partition.uniform(0, 1, 2))
    v = theta_expand(NcPoly({(XS,): 1.0, (Y,): 0.3}), identity_morphism(B),
                     Partition.uniform(0, 1, 3))
    base = gram(u, v, psi, B)
    for _ in range(5):
        cuts = np.sort(rng.uniform(0.01, 0.99, size=4))
        gamma = Partition([0.0, *cuts, 1.0]).common_refinement(u.partition)
        assert abs(gram(u.refine(gamma, B), v, psi, B) - base) < 1e-12


def test_gram_entries_differing_only_by_coefficient(azema2):
    # entries of one slot may share their words; gram must not order them
    B, _, psi = azema2
    u = FactorizedVectorSum(Partition([0.0, 1.0]))
    u.add_term((NcPoly.word((XS,), 2.0),), 1.0)
    u.add_term((NcPoly.word((XS,), 3.0),), 1.0)
    v = FactorizedVectorSum.singleton(NcPoly.word((XS,)), 0.0, 1.0)
    want = 5.0 * conv_exp(psi, 1.0, NcPoly.word((X, XS)), B)
    assert abs(want) > 0.1
    assert abs(gram(u, v, psi, B) - want) < 1e-12


def test_add_term_merges_equal_entries_and_drops_cancelled_terms():
    # entries built separately with coefficients 1, 1.0 and 1+0j are one key
    entries = [NcPoly({(X,): c, (): 0.5}) for c in (1, 1.0, 1 + 0j)]
    assert all(e == entries[0] and hash(e) == hash(entries[0]) for e in entries)
    assert NcPoly({(): 0.5, (X,): 1.0}) == entries[0]
    assert NcPoly({(X,): 1.0}) not in (NcPoly({(X,): 1.0 + 1e-12}), NcPoly({(Y,): 1.0}))
    u = FactorizedVectorSum(Partition.uniform(0.0, 1.0, 2))
    for e in entries:
        u.add_term((e, NcPoly.one()), 0.5)
    assert list(u.terms.values()) == [1.5]
    (kept, _z), = u.terms.items()
    assert kept[0].terms == {(X,): 1, (): 0.5}     # the first-seen entry
    # an exact cancellation drops the term; a tiny residue is an exact value
    u.add_term((NcPoly({(): 0.5, (X,): 1 + 0j}), NcPoly({(): 1 + 0j})), -1.5)
    assert len(u.terms) == 0
    u.add_term((NcPoly.one(), NcPoly.one()), 0.0)
    assert len(u.terms) == 0
    u.add_term((NcPoly.one(), NcPoly.one()), 1e-300)
    assert list(u.terms.values()) == [1e-300]


def test_hermitian_symmetry_and_positivity(azema2):
    B, _, psi = azema2
    rng = np.random.default_rng(44)
    for _ in range(10):
        b = random_poly(B.algebra, rng, 2, n_terms=2)
        c = random_poly(B.algebra, rng, 2, n_terms=2)
        u = theta_expand(b, identity_morphism(B), Partition.uniform(0, 1, 3))
        v = theta_expand(c, identity_morphism(B), Partition.uniform(0, 1, 2))
        assert abs(gram(u, v, psi, B)
                   - np.conj(gram(v, u, psi, B))) < 1e-12
        nn = gram(u, u, psi, B)
        assert nn.real >= -1e-10
        assert abs(nn.imag) < 1e-10


def test_sweep_grouplike_zero_defect(chain):
    # the image kappa(y-hat) = y is group-like in B itself, so theta is
    # partition independent and the defect vanishes at every mesh
    B, psi, G, kappa, _kt = chain
    ghat = G.hat(NcPoly.word((Y,)))
    rows = convergence_sweep(ghat, ghat, kappa, psi, 0.0, 1.0, [2, 4, 8])
    for r in rows:
        assert r.defect < 1e-12


def test_sweep_unit(azema2):
    B, _, psi = azema2
    rows = convergence_sweep(NcPoly.one(), NcPoly.one(), identity_morphism(B),
                             psi, 0.0, 1.0, [2, 4])
    for r in rows:
        assert r.norm_sq == pytest.approx(1.0, abs=1e-12)
        assert r.defect < 1e-12


def test_sweep_grouplike_chain_converges(chain):
    B, psi, G, _kappa, kappa_tilde = chain
    _G, kappa, _kt = None, None, None
    from qlevy.constructions import make_grouplike
    G2, kappa2, kt2 = make_grouplike(B, 6)
    c = kt2.apply(NcPoly.word((XS,)))     # widehat(x*+1) - widehat(1)
    rows = convergence_sweep(c, c, kappa2, psi, 0.0, 1.0, [2, 4, 8, 16, 32])
    # |(1 + 1/n)^n - e| decays like 1/n
    for r in rows:
        want = abs((1.0 + 1.0 / r.n) ** r.n - np.e)
        assert r.defect == pytest.approx(want, abs=1e-10)
    assert rows[-1].defect < rows[0].defect / 4
    incs = [r.cauchy_increment for r in rows[1:]]
    assert all(b < a for a, b in zip(incs, incs[1:]))


def test_zeta_unit(chain):
    B, psi, G, _kappa, kappa_tilde = chain
    u = zeta_expand(NcPoly.one(), kappa_tilde, Partition.uniform(0, 1, 3))
    assert len(u.terms) == 1
    (entries, z), = u.terms.items()
    assert z == pytest.approx(1.0)
    assert all(e.terms == {(): 1.0} for e in entries)


def test_zeta_grouplike_reduces(chain):
    B, psi, G, kappa, kappa_tilde = chain
    # y is group-like in B: zeta legs are all widehat(y)
    u = zeta_expand(NcPoly.word((Y,)), kappa_tilde, Partition.uniform(0, 1, 2),
                    inner_mesh_factor=2)
    assert u.partition.n_intervals() == 4
    assert len(u.terms) == 1
    (entries, z), = u.terms.items()
    assert all(e.terms == {(Y,): 1.0} for e in entries)


def test_reverse_unit(chain):
    B, psi, G, _kappa, kappa_tilde = chain
    rows = reverse_check(NcPoly.one(), NcPoly.one(), kappa_tilde, psi,
                         0.0, 1.0, [2, 4])
    for r in rows:
        assert r.defect < 1e-12


def test_zero_element_sweep_and_reverse_are_zero(chain):
    # the subcoalgebra of 0 has no basis: its powers have no block values
    B, psi, _G, kappa, kappa_tilde = chain
    x, zero = NcPoly.word((X,)), NcPoly.word((X,)).scale(0.0)
    assert not zero.terms
    for row in reverse_check(zero, x, kappa_tilde, psi, 0.0, 1.0, [2, 4]):
        assert row.norm_sq == 0.0 and row.cross == 0.0
    for row in reverse_check(x, zero, kappa_tilde, psi, 0.0, 1.0, [2]):
        assert row.cross == 0.0
    for row in convergence_sweep(x, zero, identity_morphism(B), psi, 0.0, 1.0, [2, 4]):
        assert row.cross == 0.0
    assert gram_matrix([], [FactorizedVectorSum.singleton(x, 0.0, 1.0)],
                       psi, B).shape == (0, 1)


def test_reverse_azema_x(chain):
    B, psi, G, _kappa, kappa_tilde = chain
    rows = reverse_check(NcPoly.word((X,)), NcPoly.word((X,)), kappa_tilde, psi,
                         0.0, 1.0, [2, 4, 8, 16, 32, 64])
    defects = [r.defect for r in rows]
    assert defects[-1] <= 1e-2
    nontrivial = [d for d in defects if d > 1e-13]
    if len(nontrivial) >= 2:
        assert nontrivial[-1] <= nontrivial[0]


def test_primitive_companion_theta_counts(azema2):
    # x is primitive there, so Delta_3(x) has one term per slot
    _B, primitive, _psi = azema2
    kappa = identity_morphism(primitive)
    u = theta_expand(NcPoly.word((X,)), kappa, Partition.uniform(0, 1, 3))
    assert len(u.terms) == 3


def test_bialgebra_memo_tables_are_freed_with_it():
    # subcoalgebras, transfer matrices and Gram factors live on the
    # bialgebra, so dropping it and its generator frees them all
    import gc
    import weakref

    from qlevy.fock import cross_path_report
    from qlevy.gns import gns_construct

    def run():
        B, _prim, psi = make_azema(2.0)
        x = NcPoly.word((X,))
        conv_exp(psi, 0.5, multiply(involute(x, B.algebra), x, B.algebra), B)
        _G, _kappa, kappa_tilde = make_grouplike(B, 6)
        reverse_check(x, x, kappa_tilde, psi, 0.0, 1.0, [2, 4])
        convergence_sweep(x, x, identity_morphism(B), psi, 0.0, 1.0, [2, 4])
        cross_path_report(gns_construct(psi, B, degree_cap=3),
                          NcPoly.word((XS,)), B, psi, Partition.uniform(0, 1, 4), 5)
        return weakref.ref(B), weakref.ref(psi)

    refs = run()
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_transfer_route_matches_fine_blocks_and_conv_exp(azema2):
    # a coarse side over a nested fine side: gram takes the transfer route;
    # refining the coarse side too leaves one-interval blocks only
    B, _, psi_azema = azema2
    alg = B.algebra
    rng = np.random.default_rng(45)
    for trial in range(30):
        psi = (psi_azema, PSI_SKEW)[trial % 2]
        b = random_poly(alg, rng, 2, n_terms=3)
        c = random_poly(alg, rng, 2, n_terms=3)
        n = int(rng.integers(2, 7))
        gamma = Partition([0.0, *np.sort(rng.uniform(0.05, 0.95, size=n - 1)), 1.0])
        keep = [t for t in gamma.times[1:-1] if rng.uniform() < 0.4]
        alpha = Partition([0.0, *keep, 1.0])
        if alpha.n_intervals() == n:
            alpha = Partition([0.0, 1.0])
        fine = FactorizedVectorSum.singleton(b, 0.0, 1.0).refine(gamma, B)
        coarse = FactorizedVectorSum.singleton(c, 0.0, 1.0).refine(alpha, B)
        for left, right, got in ((b, c, gram(fine, coarse, psi, B)),
                                 (c, b, gram(coarse, fine, psi, B))):
            want = conv_exp(psi, 1.0, multiply(involute(left, alg), right, alg), B)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        # a term with independent entries per sub-interval: the order of the
        # factors matters, since the coproduct is not cocommutative
        fine.add_term(tuple(random_poly(alg, rng, 2, n_terms=2) for _ in range(n)),
                      complex(rng.normal(), rng.normal()))
        coarse_fine = coarse.refine(gamma, B)
        for got, oracle in (
                (gram(fine, coarse, psi, B), gram(fine, coarse_fine, psi, B)),
                (gram(coarse, fine, psi, B), gram(coarse_fine, fine, psi, B)),
        ):
            assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_transfer_route_near_coincident_points(azema2):
    # common points equal within TIME_TOL but not bit for bit: every block
    # value must still match the fully refined pairing
    B, _, psi = azema2
    alg = B.algebra
    rng = np.random.default_rng(47)
    cases = [([0.0, 0.25, 0.3, 1.0], [0.0, 0.1 + 0.2, 1.0]),
             ([0.0, 0.25, 0.1 + 0.2, 1.0], [0.0, 0.3, 1.0])]
    for _ in range(10):
        n = int(rng.integers(2, 7))
        times = [0.0, *np.sort(rng.choice(np.linspace(0.05, 0.95, 19), n - 1,
                                          replace=False)), 1.0]
        keep = sorted(rng.choice(range(1, n), size=int(rng.integers(0, n - 1)),
                                 replace=False))
        shifted = [times[i] + rng.uniform(-0.4, 0.4) * TIME_TOL for i in keep]
        cases.append((times, [0.0, *shifted, 1.0]))
    for fine_times, coarse_times in cases:
        b = random_poly(alg, rng, 2, n_terms=3)
        c = random_poly(alg, rng, 2, n_terms=3)
        fine = FactorizedVectorSum.singleton(b, 0.0, 1.0).refine(Partition(fine_times), B)
        fine.add_term(tuple(random_poly(alg, rng, 2, n_terms=2)
                            for _ in range(len(fine_times) - 1)),
                      complex(rng.normal(), rng.normal()))
        coarse = FactorizedVectorSum.singleton(c, 0.0, 1.0).refine(Partition(coarse_times), B)
        gamma = fine.partition.common_refinement(coarse.partition)
        fine_r, coarse_r = fine.refine(gamma, B), coarse.refine(gamma, B)
        for got, oracle in (
                (gram(fine, coarse, psi, B), gram(fine_r, coarse_r, psi, B)),
                (gram(coarse, fine, psi, B), gram(coarse_r, fine_r, psi, B)),
        ):
            assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))


def _brute_gram_singleton(u, d, psi, B):
    """<u, j_{s,t}(d) Omega> as a plain sum over the terms of u and the
    Sweedler legs of d, each factor one conv_exp."""
    alg = B.algebra
    steps = u.partition.steps()
    legs = iterated_coproduct(d, len(steps), B)
    factors = {}

    def factor(dt, a, w):
        if (dt, a, w) not in factors:
            factors[dt, a, w] = conv_exp(
                psi, dt, multiply(involute(a, alg), NcPoly.word(w), alg), B)
        return factors[dt, a, w]

    total = 0.0 + 0.0j
    for entries, z in u.terms.items():
        for ws, c in legs.items():
            prod = np.conj(z) * c
            for dt, a, w in zip(steps, entries, ws):
                prod *= factor(dt, a, w)
            total += prod
    return total


@pytest.mark.parametrize("n", [8, 16])
def test_transfer_route_grouplike_zeta(chain, n):
    B, psi, G, _kappa, kappa_tilde = chain
    x = NcPoly.word((X,))
    d = NcPoly({(X,): 0.7j, (XS,): 0.5 - 0.25j, (XS, Y): 1.0, (): 0.3})
    for b in (x, NcPoly.word((XS,))):
        u = zeta_expand(b, kappa_tilde, Partition.uniform(0.0, 1.0, n))
        for e in (x, d):
            v = FactorizedVectorSum.singleton(e, 0.0, 1.0)
            want = _brute_gram_singleton(u, e, psi, B)
            tol = 1e-12 * max(1.0, abs(want))
            assert abs(gram(u, v, psi, B) - want) <= tol
            assert abs(gram(v, u, psi, B) - np.conj(want)) <= tol


def test_refine_accepts_exactly_the_targets_of_the_quadratic_scan(azema2):
    # a sum on b refines onto a when every point of b is within TIME_TOL of
    # a point of a, and the ends of a are within TIME_TOL of those of b
    B = azema2[0]
    x = NcPoly.word((X,))
    rng = np.random.default_rng(46)
    grid = np.linspace(0.0, 1.0, 13)
    decisions = []
    for k in range(200):
        a = np.sort(rng.choice(grid, size=6, replace=False))
        # every other b is drawn from the points of a, so that some refine
        b = np.sort(rng.choice(a, size=rng.integers(2, 7), replace=False) if k % 2
                    else rng.choice(grid, size=5, replace=False))
        # shift some points of b by just under or just over the tolerance
        b = b + rng.choice([0.0, 0.5, 2.0, -0.5, -2.0], size=b.size) * TIME_TOL
        b = np.sort(b)
        if np.any(np.diff(b) <= 0):
            continue
        want = (all(min(abs(u - w) for w in a) <= TIME_TOL for u in b)
                and abs(a[0] - b[0]) <= TIME_TOL and abs(a[-1] - b[-1]) <= TIME_TOL)
        u = FactorizedVectorSum(Partition(b))
        u.add_term((x,) * (b.size - 1), 1.0)
        try:
            u.refine(Partition(a), B)
        except InvalidParameter:
            decisions.append(False)
        else:
            decisions.append(True)
        assert decisions[-1] == want, (a, b)
    assert set(decisions) == {True, False}


def test_refine_refuses_a_partition_of_another_interval(azema2):
    # every point of [0.5, 1] is a point of each target, whose ends differ
    B = azema2[0]
    u = FactorizedVectorSum.singleton(NcPoly.word((X,)), 0.5, 1.0)
    for target in ([0.0, 0.5, 1.0], [0.5, 0.75, 1.0, 2.0], [0.25, 0.5, 1.0, 1.5]):
        with pytest.raises(InvalidParameter, match="does not refine"):
            u.refine(Partition(target), B)


def test_bialgebras_freed_without_the_cycle_collector():
    # no reference cycle keeps a carrier alive once a sweep returns: the
    # carrier owns its subcoalgebras, which refer back to it weakly, and its
    # algebra (with the normal-form memo) goes with it
    import gc
    import weakref

    def run():
        B, _prim, psi = make_azema(2.0)
        x = NcPoly.word((X,))
        G, kappa, kappa_tilde = make_grouplike(B, 6)
        reverse_check(x, x, kappa_tilde, psi, 0.0, 1.0, [2, 4])
        convergence_sweep(x, x, identity_morphism(B), psi, 0.0, 1.0, [2, 4])
        c = kappa_tilde.apply(NcPoly.word((XS,)))
        convergence_sweep(c, c, kappa, psi, 0.0, 1.0, [2, 4])
        return weakref.ref(B), weakref.ref(G), weakref.ref(B.algebra)

    enabled = gc.isenabled()
    gc.disable()
    try:
        refs = run()
        assert [r() for r in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def test_gram_tolerance_chain_points(azema2):
    # two points of u near 0.3, 1.4e-12 apart, and one point of v between
    # them: both u points are common to v within TIME_TOL, which once made
    # gram pair the entries with the wrong steps
    B, _, psi = azema2
    alg = B.algebra
    b = normal_form(NcPoly({(X,): 1.0, (XS, X): 0.5j, (): 0.2}), alg)
    c = normal_form(NcPoly({(XS,): 0.7, (X, XS): 1.0, (Y,): -0.3}), alg)
    u = FactorizedVectorSum.singleton(b, 0.0, 1.0).refine(
        Partition([0.0, 0.25, 0.3, 0.3 + 1.4e-12, 1.0]), B)
    v = FactorizedVectorSum.singleton(c, 0.0, 1.0).refine(
        Partition([0.0, 0.3 + 0.7e-12, 1.0]), B)
    want = conv_exp(psi, 1.0, multiply(involute(b, alg), c, alg), B)
    tol = 1e-12 * max(1.0, abs(want))
    assert abs(gram(u, v, psi, B) - want) <= tol
    assert abs(np.conj(gram(v, u, psi, B)) - want) <= tol


def test_gram_rejects_points_within_time_tol(azema2):
    B, _, psi = azema2
    x = NcPoly.word((X,))
    with pytest.raises(InvalidParameter, match="TIME_TOL"):
        gram(FactorizedVectorSum.singleton(x, 0.0, 1.0).refine(
            Partition([0.0, 0.3, 0.3 + 0.5e-12, 1.0]), B),
            FactorizedVectorSum.singleton(x, 0.0, 1.0), psi, B)


def _sweep_oracle(c, d, kappa, psi, ns):
    """(norm_sq, cross, cauchy_increment, size of the terms the increment
    is the difference of) per n, from explicit theta expansions over the
    whole mesh, paired term by term by gram."""
    B = kappa.target
    rows = []
    prev_u = prev_norm = None
    for n in ns:
        alpha = Partition.uniform(0.0, 1.0, n)
        u = theta_expand(c, kappa, alpha)
        norm_sq = gram(u, u, psi, B).real
        cross = gram(u, theta_expand(d, kappa, alpha), psi, B)
        inc = size = None
        if prev_u is not None:
            g = gram(u, prev_u, psi, B)
            inc = abs(norm_sq + prev_norm - 2.0 * g.real)
            size = abs(norm_sq) + abs(prev_norm) + 2.0 * abs(g)
        rows.append((norm_sq, cross, inc, size))
        prev_u, prev_norm = u, norm_sq
    return rows


def _close(got, want, size=None):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want) if size is None else size)


@pytest.mark.parametrize("ns", [[2, 4, 8, 16], [2, 3, 5], [4, 6, 12]])
def test_sweep_rows_match_explicit_theta_expansions(azema2, ns):
    B, prim, psi_azema = azema2
    G, kappa, kappa_tilde = make_grouplike(B, 6)
    a2p = Morphism(B, prim, "algebra-homomorphism",
                   key_map=lambda k: NcPoly.word(k), name="a2p")
    p2a = Morphism(prim, B, "algebra-homomorphism",
                   key_map=lambda k: NcPoly.word(k), name="p2a")
    x, xs = NcPoly.word((X,)), NcPoly.word((XS,))
    chains = [
        (identity_morphism(B), NcPoly({(X, XS): 1.0, (): 0.3}),
         NcPoly({(XS,): 1.0, (X,): 0.5j})),
        (kappa, kappa_tilde.apply(NcPoly({(XS,): 1.0, (X,): 0.5j})),
         kappa_tilde.apply(x)),
        (a2p, NcPoly({(X, XS): 1.0, (XS,): 0.4}), NcPoly({(X,): 1.0, (Y,): 0.2})),
        (p2a, x.add(xs.scale(0.3j)), NcPoly({(XS,): 1.0, (): 0.5})),
    ]
    for i, (chain, c, d) in enumerate(chains):
        psi = (psi_azema, PSI_SKEW)[i % 2]
        rows = convergence_sweep(c, d, chain, psi, 0.0, 1.0, ns)
        for row, (norm_sq, cross, inc, size) in zip(
                rows, _sweep_oracle(c, d, chain, psi, ns)):
            assert _close(row.norm_sq, norm_sq)
            assert _close(row.cross, cross)
            assert (row.cauchy_increment is None) == (inc is None)
            if inc is not None:
                # a difference of Gram values is only as exact as they are
                # (the oracle sums up to 4e4 terms): relative to their size
                assert _close(row.cauchy_increment, inc, size)


@pytest.mark.parametrize("inner_mesh_factor", [1, 2])
@pytest.mark.parametrize("ns", [[2, 4, 8, 16], [2, 3, 5]])
def test_reverse_rows_match_explicit_zeta_expansions(chain, ns, inner_mesh_factor):
    B, psi_azema, _G, _kappa, kappa_tilde = chain
    x = NcPoly.word((X,))
    d = NcPoly({(X,): 0.7j, (XS,): 0.5 - 0.25j, (XS, Y): 1.0, (): 0.3})
    cases = [(x, x), (NcPoly.word((XS,)), d), (x.add(NcPoly.word((XS,), 0.5j)), d)]
    for i, (b, e) in enumerate(cases):
        psi = (psi_azema, PSI_SKEW)[i % 2]
        rows = reverse_check(b, e, kappa_tilde, psi, 0.0, 1.0, ns, inner_mesh_factor)
        v = FactorizedVectorSum.singleton(e, 0.0, 1.0)
        for row, n in zip(rows, ns):
            u = zeta_expand(b, kappa_tilde, Partition.uniform(0.0, 1.0, n),
                            inner_mesh_factor)
            assert _close(row.norm_sq, gram(u, u, psi, B).real)
            assert _close(row.cross, gram(u, v, psi, B))


def _sweep_per_mesh(c, d, kappa, psi, ns):
    """(norm_sq, cross, defect, bound, cauchy_increment) per mesh of
    convergence_sweep on [0, 1], by the route with no layout across meshes:
    fresh theta blocks, one gram_matrix call and one doubled_product per
    right at every mesh and every Cauchy increment."""
    B, S, tau = kappa.target, kappa.source, 1.0
    limit = limit_value(psi, kappa, tau, S.mul(S.star(c), d))

    def powers(n, m, ys):
        g = math.gcd(n, m)
        block = {k: functools.partial(theta_expand, kappa=kappa,
                                      alpha=Partition.uniform(0.0, tau / g, k // g))
                 for k in {n, m}}
        subc = subcoalgebra_of(c, S)
        lefts = [block[n](a) for a in subc.basis]
        subs = [subcoalgebra_of(y, S) for y in ys]
        vs = [v for sub in subs
              for v in (lefts if n == m and sub is subc else map(block[m], sub.basis))]
        values = gram_matrix(lefts, vs, psi, B)
        ends = np.cumsum([0] + [sub.dim() for sub in subs])
        return [doubled_product(subc, sub, c, y, [(values[:, a:b], g)])
                for y, sub, a, b in zip(ys, subs, ends, ends[1:])]

    rows = []
    prev_n = prev_norm = c_fit = None
    for n in ns:
        mesh = Partition.uniform(0.0, tau, n).mesh()
        norm_cross = powers(n, n, [c, d] if c.sub(d).terms else [c])
        norm_sq, cross = norm_cross[0].real, norm_cross[-1]
        defect = abs(cross - limit)
        if c_fit is None and defect > DEFECT_FLOOR:
            c_fit = defect * n / tau
        bound = (mesh * tau * c_fit) if c_fit is not None else 0.0
        inc = None
        if prev_n is not None:
            inc = abs(norm_sq + prev_norm - 2.0 * powers(n, prev_n, [c])[0].real)
        rows.append((norm_sq, cross, defect, bound, inc))
        prev_n, prev_norm = n, norm_sq
    return rows


@pytest.mark.parametrize("ns", [[2, 4, 8, 16], [2, 3, 5], [3, 6, 12]])
def test_sweep_rows_equal_the_per_mesh_route_bit_for_bit(chain, ns):
    # one layout per sweep, evaluated at each mesh's own steps, changes no bit
    B, psi_azema, _G, kappa, kappa_tilde = chain
    c = NcPoly({(X, XS): 1.0, (): 0.3})
    d = NcPoly({(XS,): 1.0, (X,): 0.5j})
    cs, ds = kappa_tilde.apply(d), kappa_tilde.apply(NcPoly.word((X,)))
    cases = [(identity_morphism(B), c, c), (identity_morphism(B), c, d),
             (kappa, cs, cs), (kappa, cs, ds)]
    for i, (morphism, a, e) in enumerate(cases):
        psi = (psi_azema, PSI_SKEW)[i % 2]
        rows = convergence_sweep(a, e, morphism, psi, 0.0, 1.0, ns)
        got = [(r.norm_sq, r.cross, r.defect, r.bound, r.cauchy_increment) for r in rows]
        assert repr(got) == repr(_sweep_per_mesh(a, e, morphism, psi, ns)), i


def _reverse_two_calls(b, d, kappa_tilde, psi, ns, inner_mesh_factor):
    """(norm_sq, cross) per mesh of reverse_check on [0, 1] by two powers,
    each with its own zeta blocks and its own gram_matrix call."""
    B = kappa_tilde.source

    def power(c, e, block_c, block_e, n):
        subc, sube = subcoalgebra_of(c, B), subcoalgebra_of(e, B)
        values = gram_matrix([block_c(a) for a in subc.basis],
                             [block_e(a) for a in sube.basis], psi, B)
        return doubled_product(subc, sube, c, e, [(values, n)])

    rows = []
    for n in ns:
        dt = 1.0 / n

        def zeta(a):
            return zeta_expand(a, kappa_tilde, Partition([0.0, dt]), inner_mesh_factor)

        def j(e):
            return FactorizedVectorSum.singleton(e, 0.0, dt)

        rows.append((power(b, b, zeta, zeta, n).real, power(b, d, zeta, j, n)))
    return rows


@pytest.mark.parametrize("inner_mesh_factor", [1, 2, 3])
@pytest.mark.parametrize("ns", [[2, 4, 8, 16], [2, 3, 5]])
def test_reverse_rows_equal_the_two_call_route_bit_for_bit(chain, ns, inner_mesh_factor):
    # one layout over zeta(sub b) and zeta(sub b) + j(sub d), evaluated per
    # mesh, changes no bit
    B, psi_azema, _G, _kappa, kappa_tilde = chain
    x = NcPoly.word((X,))
    d = NcPoly({(X,): 0.7j, (XS,): 0.5 - 0.25j, (XS, Y): 1.0, (): 0.3})
    zero = x.scale(0.0)
    cases = [(x, x), (NcPoly.word((XS,)), d), (x.add(NcPoly.word((XS,), 0.5j)), d),
             (zero, x), (x, zero)]
    for i, (b, e) in enumerate(cases):
        psi = (psi_azema, PSI_SKEW)[i % 2]
        rows = reverse_check(b, e, kappa_tilde, psi, 0.0, 1.0, ns, inner_mesh_factor)
        want = _reverse_two_calls(b, e, kappa_tilde, psi, ns, inner_mesh_factor)
        assert [(r.norm_sq, r.cross) for r in rows] == want, (i, b, e)


def _count_calls(monkeypatch, *names):
    """Counters of the calls to each named function of qlevy.gram."""
    import qlevy.gram

    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _f=getattr(qlevy.gram, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(qlevy.gram, name, counted)
    return counts


def test_shipped_reverse_run_builds_each_zeta_block_once(monkeypatch, tmp_path):
    # one layout for all six meshes, over the zeta blocks of the three basis
    # words of sub(x); 6 gram_matrix and 18 zeta_expand calls with one
    # gram_matrix call per mesh
    from qlevy.cli import builtin_config_path, run_experiment

    counts = _count_calls(monkeypatch, "gram_matrix", "_GramLayout", "zeta_expand")
    run_experiment(builtin_config_path("reverse_azema_x.json"), tmp_path)
    assert counts == {"gram_matrix": 0, "_GramLayout": 1, "zeta_expand": 3}


def test_sweep_takes_norm_and_cross_off_one_gram_matrix(azema2, monkeypatch):
    # c != d: one layout for norm and cross, one for the Cauchy increments,
    # each over the theta blocks of sub(c) (8 words) and sub(d) (4 words);
    # 3 + 2 gram_matrix and 68 theta_expand calls with one layout per mesh
    # and increment
    B, _, psi = azema2
    c, d = NcPoly({(X, XS): 1.0, (): 0.3}), NcPoly({(XS,): 1.0, (X,): 0.5j})
    counts = _count_calls(monkeypatch, "gram_matrix", "_GramLayout", "theta_expand")
    convergence_sweep(c, d, identity_morphism(B), psi, 0.0, 1.0, [2, 4, 8])
    assert counts == {"gram_matrix": 0, "_GramLayout": 2, "theta_expand": (8 + 4) + (8 + 8)}


def test_sweep_builds_one_layout_per_piece_count_pair(azema2, monkeypatch):
    # norm and cross on (1, 1) pieces; Cauchy increments on (3, 2) and
    # (2, 3), the second (3, 2) mesh evaluating the first one's layout
    B, _, psi = azema2
    c = NcPoly({(X, XS): 1.0, (): 0.3})
    ns = [2, 3, 2, 3]
    counts = _count_calls(monkeypatch, "_GramLayout")
    rows = convergence_sweep(c, c, identity_morphism(B), psi, 0.0, 1.0, ns)
    assert counts == {"_GramLayout": 3}
    got = [(r.norm_sq, r.cross, r.defect, r.bound, r.cauchy_increment) for r in rows]
    assert repr(got) == repr(_sweep_per_mesh(c, c, identity_morphism(B), psi, ns))


def test_uniform_refinements_have_the_step_classes_of_their_piece_counts():
    # the step classes of the common refinement of uniform(0, dt, a) and
    # uniform(0, dt, b) depend on (a, b) only, so _ConvolutionPowers keys
    # its layouts by piece counts
    dts = [tau / g for tau in (0.5, 1.0, 3.0) for g in (1, 2, 7, 64, 256)]
    for a in range(1, 25):
        for b in range(1, 25):
            classes = {repr(Partition.uniform(0.0, dt, a).common_refinement(
                Partition.uniform(0.0, dt, b)).step_classes()) for dt in dts}
            assert len(classes) == 1, (a, b, classes)


def test_layout_work_does_not_grow_with_the_meshes(chain, monkeypatch):
    # a reverse check and a sweep expand and lay out their blocks once:
    # six meshes cost as much of that work as two
    B, psi, _G, kappa, kappa_tilde = chain
    c = NcPoly({(X, XS): 1.0, (): 0.3})
    cs = kappa_tilde.apply(NcPoly({(XS,): 1.0, (X,): 0.5j}))

    def work(ns):
        counts = _count_calls(monkeypatch, "zeta_expand", "theta_expand", "index_terms",
                              "_TermPairs")
        reverse_check(c, c, kappa_tilde, psi, 0.0, 1.0, ns, 2)
        convergence_sweep(c, NcPoly.word((XS,)), identity_morphism(B), psi, 0.0, 1.0, ns)
        convergence_sweep(cs, cs, kappa, psi, 0.0, 1.0, ns)
        monkeypatch.undo()
        return counts

    few, many = work([2, 4]), work([2, 4, 8, 16, 32, 64])
    assert few == many
    assert few["zeta_expand"] > 0 and few["theta_expand"] > 0
    # two index_terms and one _TermPairs per layout: 1 reverse + 2 per sweep
    assert few["index_terms"] == 2 * 5 and few["_TermPairs"] == 5


@pytest.mark.parametrize("s, t", [(0.0, 1.0), (0.3, 1.7), (-2.0, 5.0), (1e3, 1e3 + 0.4)])
def test_sweep_meshes_are_the_uniform_partitions_bit_for_bit(s, t):
    for n in (1, 2, 3, 7, 64, 72, 512):
        mesh = _uniform_mesh(s, t, n)
        assert type(mesh) is float and mesh == Partition.uniform(s, t, n).mesh(), n


def test_sweeps_build_no_partition_of_the_interval(chain, monkeypatch):
    # each mesh reads its step off np.linspace; the partitions a sweep
    # builds all start at 0
    B, psi, _G, kappa, kappa_tilde = chain
    c = NcPoly({(X, XS): 1.0, (): 0.3})
    starts = []
    init = Partition.__init__
    monkeypatch.setattr(Partition, "__init__",
                        lambda self, times: starts.append(float(times[0])) or init(self, times))
    rows = reverse_check(c, c, kappa_tilde, psi, 0.25, 1.25, [2, 4], 2)
    rows += convergence_sweep(c, c, identity_morphism(B), psi, 0.25, 1.25, [2, 4])
    assert starts and set(starts) == {0.0}
    assert [r.mesh for r in rows] == [0.5, 0.25] * 2


@pytest.mark.parametrize("s, t", [(1.0, 1.0), (1.0, 0.5), (0.0, float("nan")),
                                  (0.0, float("inf"))])
def test_sweeps_refuse_an_empty_or_non_finite_interval(chain, s, t):
    # the limit refuses a non-finite span, the sweep's partitions the rest
    B, psi, _G, _kappa, kappa_tilde = chain
    x = NcPoly.word((X,))
    why = "partition times|t must be finite"
    with pytest.raises(InvalidParameter, match=why):
        reverse_check(x, x, kappa_tilde, psi, s, t, [2])
    with pytest.raises(InvalidParameter, match=why):
        convergence_sweep(x, x, identity_morphism(B), psi, s, t, [2])


def test_sweeps_refuse_a_mesh_of_no_intervals(chain):
    B, psi, _G, _kappa, kappa_tilde = chain
    x = NcPoly.word((X,))
    with pytest.raises(InvalidParameter, match="n >= 1 intervals, got 0"):
        reverse_check(x, x, kappa_tilde, psi, 0.0, 1.0, [2, 0])
    with pytest.raises(InvalidParameter, match="n >= 1 intervals, got 0"):
        convergence_sweep(x, x, identity_morphism(B), psi, 0.0, 1.0, [0])


def test_convolution_power_respects_the_term_budget(azema2, monkeypatch):
    import qlevy.subcoalg

    B, _, psi = azema2
    c = NcPoly({(X, XS): 1.0, (): 0.3})
    monkeypatch.setattr(qlevy.subcoalg, "TERM_BUDGET", 100)
    with pytest.raises(TermBudgetExceeded, match="doubled coalgebra"):
        convergence_sweep(c, c, identity_morphism(B), psi, 0.0, 1.0, [4])


def test_gram_sum_is_accurate_on_many_pairs(chain):
    # 39 360 term pairs: gram must stay within a few ulp of the exact sum of
    # the same pair terms, each factor here one conv_exp of its product
    B, _psi, _G, kappa, kappa_tilde = chain
    alg = B.algebra
    c = kappa_tilde.apply(NcPoly({(XS,): 1.0, (X,): 0.5j}))
    u = theta_expand(c, kappa, Partition.uniform(0.0, 1.0, 16))
    v = theta_expand(c, kappa, Partition.uniform(0.0, 1.0, 8))
    got = gram(u, v, PSI_SKEW, B)
    v = v.refine(u.partition, B)
    terms = np.multiply.outer(np.conj(list(u.terms.values())), list(v.terms.values()))
    for r, dt in enumerate(u.partition.steps()):
        ue = list(dict.fromkeys(entries[r] for entries in u.terms))
        ve = list(dict.fromkeys(entries[r] for entries in v.terms))
        factors = np.array([[conv_exp(PSI_SKEW, dt, multiply(
            involute(a, alg), b, alg), B) for b in ve] for a in ue])
        terms *= factors[np.ix_([ue.index(entries[r]) for entries in u.terms],
                                [ve.index(entries[r]) for entries in v.terms])]
    terms = terms.ravel()
    assert terms.size == 39360
    exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
    assert abs(got - exact) <= 1e-14 * np.abs(terms).sum()


def test_step_classes_group_equal_steps():
    # np.linspace leaves the steps of a uniform partition a few ulp apart
    alpha = Partition.uniform(0.0, 1.0, 10)
    assert len(set(alpha.steps())) > 1
    assert alpha.step_classes() == ([0], [0] * 10)
    # steps an ulp apart are one step, wherever their decimals fall
    gamma = Partition.uniform(0.0, 1.0, 14)
    assert max(gamma.steps()) - min(gamma.steps()) < 2e-16
    assert gamma.step_classes() == ([0], [0] * 14)
    # steps 1e-13 apart are two steps
    beta = Partition([0.0, 0.1, 0.2 + 1e-13, 0.3 + 1e-13, 0.4 + 1e-13])
    assert beta.step_classes() == ([0, 1], [0, 1, 0, 0])


def test_step_classes_number_by_first_appearance_and_do_not_chain():
    assert Partition([0.0, 0.2, 0.3, 0.4]).step_classes() == ([0, 1], [0, 1, 1])
    # steps 3e-16 apart, each within reach of the next, span more than one class
    drift = Partition(np.concatenate([[0.0], np.cumsum(0.1 + 3e-16 * np.arange(10))]))
    steps = np.array(drift.steps())
    first, of = drift.step_classes()
    assert len(first) > 1
    for k in range(len(first)):
        run = steps[np.array(of) == k]
        assert run.max() - run.min() <= 4 * np.finfo(float).eps * drift.t


@pytest.mark.parametrize("t", [1.0, 0.4])
def test_step_classes_one_class_for_uniform_partitions(t):
    split = [n for n in range(1, 2049)
             if Partition.uniform(0.0, t, n).step_classes()[0] != [0]]
    assert split == []


@pytest.mark.parametrize("times", [[0.0, float("nan"), 1.0], [0.0, float("inf")],
                                   [-float("inf"), 0.0, 1.0]])
def test_partition_rejects_non_finite_times(times):
    with pytest.raises(InvalidParameter, match="partition times must be finite"):
        Partition(times)
