import numpy as np
import pytest

from qlevy.constructions import make_azema, make_grouplike, make_primitive_tensor
from qlevy.gram import (
    FactorizedVectorSum,
    convergence_sweep,
    gram,
    identity_morphism,
    limit_value,
    reverse_check,
    theta_expand,
    zeta_expand,
)
from qlevy.ncpoly import NcPoly, involute, multiply, random_poly
from qlevy.partition import Partition
from qlevy.subcoalg import conv_exp

X, XS, Y = 0, 1, 2


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
    assert u.n_terms() == 1
    (keys, z), = u.terms.items()
    assert z == 1.0
    assert all(u.registry[k].terms == {(Y,): 1.0} for k in keys)


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
        (NcPoly.word((X,)).key(), NcPoly.one().key()): 1.0,
        (NcPoly.one().key(), NcPoly.word((X,)).key()): 1.0,
    }
    assert u.terms == want


def test_theta_azema_x_three(azema2):
    B, _, _ = azema2
    u = theta_expand(NcPoly.word((X,)), identity_morphism(B),
                     Partition.uniform(0, 1, 3))
    kx, ky, k1 = NcPoly.word((X,)).key(), NcPoly.word((Y,)).key(), NcPoly.one().key()
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
    assert u.n_terms() == 1
    (keys, z), = u.terms.items()
    assert z == pytest.approx(1.0)
    assert all(u.registry[k].terms == {(): 1.0} for k in keys)


def test_zeta_grouplike_reduces(chain):
    B, psi, G, kappa, kappa_tilde = chain
    # y is group-like in B: zeta legs are all widehat(y)
    u = zeta_expand(NcPoly.word((Y,)), kappa_tilde, Partition.uniform(0, 1, 2),
                    inner_mesh_factor=2)
    assert u.partition.n_intervals() == 4
    assert u.n_terms() == 1
    (keys, z), = u.terms.items()
    assert all(u.registry[k].terms == {(Y,): 1.0} for k in keys)


def test_reverse_unit(chain):
    B, psi, G, _kappa, kappa_tilde = chain
    rows = reverse_check(NcPoly.one(), NcPoly.one(), kappa_tilde, psi,
                         0.0, 1.0, [2, 4])
    for r in rows:
        assert r.defect < 1e-12


def test_reverse_azema_x(chain):
    B, psi, G, _kappa, kappa_tilde = chain
    rows = reverse_check(NcPoly.word((X,)), NcPoly.word((X,)), kappa_tilde, psi,
                         0.0, 1.0, [2, 4, 8, 16, 32, 64])
    defects = [r.defect for r in rows]
    assert defects[-1] <= 1e-2
    nontrivial = [d for d in defects if d > 1e-13]
    if len(nontrivial) >= 2:
        assert nontrivial[-1] <= nontrivial[0]


def test_primitive_tensor_theta_counts(azema2):
    B, _, _psi = azema2
    T, kappa = make_primitive_tensor(B, 1)
    u = theta_expand(NcPoly.word((0,)), kappa, Partition.uniform(0, 1, 3))
    assert u.n_terms() == 3


def test_bialgebra_memo_tables_are_freed_with_it():
    # subcoalgebras, transfer matrices, Gram factors and slot expansions live
    # on the bialgebra, so dropping it and its generator frees them all
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
