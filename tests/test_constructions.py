import numpy as np
import pytest

from qlevy.bialg import iterated_coproduct
from qlevy.constructions import (
    Morphism,
    b0_basis,
    counit_residual,
    make_azema,
    make_grouplike,
    make_unitary_bialgebra,
    normal_words,
)
from qlevy.errors import DegreeCapExceeded, InvalidParameter
from qlevy.ncpoly import NcPoly, random_poly
from sampled_axioms import check_counit_preserving, first_leg_coproduct

X, XS, Y = 0, 1, 2


@pytest.fixture(scope="module")
def azema2():
    return make_azema(2.0)


def test_q_zero_rejected():
    with pytest.raises(InvalidParameter):
        make_azema(0.0)


def test_normal_words_azema(azema2):
    alg = azema2[0].algebra
    words = normal_words(alg, 2)
    # degree 2: all 9 pairs minus the two redexes yx, yx*
    assert len(words) == 1 + 3 + 7
    assert (Y, X) not in words and (Y, XS) not in words
    assert (X, Y) in words and (Y, Y) in words


def test_b0_basis_in_kernel(azema2):
    B = azema2[0]
    for _w, p in b0_basis(B, 3):
        assert abs(B.counit(p)) < 1e-14


def test_grouplike_registry(azema2):
    B = azema2[0]
    G, kappa, _kt = make_grouplike(B, 3)
    ky = G.register(NcPoly.word((Y,)))
    assert G.key_counit(ky) == 1.0
    assert G.key_delta(ky) == {(ky, ky): 1.0}
    kyy = G.key_mul(ky, ky)
    assert kyy.terms == {(Y, Y): 1.0}
    rep = check_counit_preserving(kappa, n_samples=50)
    assert rep["max_residual"] <= 1e-12


def test_grouplike_keys_are_their_polynomials(azema2):
    # two keys 4e-13 apart stay two keys, and kappa returns each exactly
    B = azema2[0]
    G, kappa, _kt = make_grouplike(B, 3)
    p1 = NcPoly({(): 1.0, (X,): 0.3})
    p2 = NcPoly({(): 1.0, (X,): 0.3 + 4e-13})
    assert G.register(p1) != G.register(p2)
    assert kappa.apply(G.hat(p2)) == p2
    assert kappa.apply(G.hat(p1).add(G.hat(p2))) == p1.add(p2)


def test_grouplike_rejects(azema2):
    B = azema2[0]
    G, _k, _kt = make_grouplike(B, 2)
    with pytest.raises(InvalidParameter):
        G.register(NcPoly.word((X,)))     # counit 0
    with pytest.raises(InvalidParameter):
        G.register(NcPoly({(): 1.0 + 1e-9}))     # beyond COUNIT_TOL
    with pytest.raises(DegreeCapExceeded):
        G.register(NcPoly.word((Y, Y, Y)))


def test_kappa_tilde_section(azema2):
    # kappa(kappa_tilde(b)) recovers the kernel part of b
    B = azema2[0]
    G, kappa, kappa_tilde = make_grouplike(B, 5)
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = random_poly(B.algebra, rng, 4)
        kernel = p.sub(NcPoly.one().scale(B.counit(p)))
        lifted = kappa_tilde.apply(kernel)
        back = kappa.apply(lifted)
        assert back.sub(kernel).norm1() < 1e-10


def test_kappa_tilde_counit_zero(azema2):
    B = azema2[0]
    G, _k, kappa_tilde = make_grouplike(B, 5)
    rng = np.random.default_rng(12)
    for _ in range(30):
        p = random_poly(B.algebra, rng, 4)
        kernel = p.sub(NcPoly.one().scale(B.counit(p)))
        assert abs(G.counit(kappa_tilde.apply(kernel))) < 1e-12


def test_unitary_monomials_grouplike():
    B = make_unitary_bialgebra(1)
    G, _k, _kt = make_grouplike(B, 4)
    k = G.register(NcPoly.word((0, 0)))
    assert G.key_delta(k) == {(k, k): 1.0}
    # x x* rewrites to 1
    assert G.key_mul(G.register(NcPoly.word((0,))), G.register(NcPoly.word((1,)))) \
        == NcPoly.one()


def test_grouplike_star(azema2):
    B = azema2[0]
    G, _k, _kt = make_grouplike(B, 3)
    k = G.register(NcPoly({(X,): 1.0, (): 1.0}))
    (k2, c), = G.star(G.hat(k)).terms.items()
    assert c == 1.0
    assert k2.terms == {(XS,): 1.0, (): 1.0}


@pytest.fixture(scope="module", params=["azema", "grouplike"])
def carrier(request, azema2):
    B = azema2[0]
    return B if request.param == "azema" else make_grouplike(B, 4)[0]


def test_carrier_counit_of_one(carrier):
    assert carrier.counit(carrier.one()) == 1.0


def test_carrier_counit_multiplicative(carrier):
    rng = np.random.default_rng(31)
    for _ in range(20):
        a, b = carrier.random_element(rng, 2), carrier.random_element(rng, 2)
        want = carrier.counit(a) * carrier.counit(b)
        assert abs(carrier.counit(carrier.mul(a, b)) - want) <= 1e-12 * max(1.0, abs(want))


def test_carrier_star_is_an_involution(carrier):
    rng = np.random.default_rng(32)
    for _ in range(20):
        a = carrier.random_element(rng, 3)
        assert a.terms
        assert not carrier.star(carrier.star(a)).sub(a).terms
        want = np.conj(carrier.counit(a))
        assert abs(carrier.counit(carrier.star(a)) - want) <= 1e-12 * max(1.0, abs(want))


def _oracle_arities(degree):
    return (1, 2, 3, 7, 16) + {1: (64,), 2: (32,)}.get(degree, ())


def _assert_matches_first_leg_oracle(B, p, n):
    got, want = iterated_coproduct(p, n, B), first_leg_coproduct(p, n, B)
    assert got.keys() == want.keys(), n
    for legs, c in want.items():
        assert abs(got[legs] - c) <= 4 * np.finfo(float).eps * abs(c), (n, legs)


def test_carrier_iterated_coproduct_matches_first_leg_oracle(carrier):
    # Delta_n by halving against the first leg split n - 1 times
    rng = np.random.default_rng(33)
    for degree in (1, 2, 3):
        p = carrier.random_element(rng, degree)
        for n in _oracle_arities(degree):
            _assert_matches_first_leg_oracle(carrier, p, n)


@pytest.mark.parametrize("q", [1e-3, 2.0, 1e3])
def test_azema_iterated_coproduct_matches_first_leg_oracle(q):
    # x, x x* and x x* x have no group-like letter: the most legs per arity
    B = make_azema(q)[0]
    rng = np.random.default_rng(34)
    for degree in (1, 2, 3):
        p = NcPoly.word((X, XS, X)[:degree]).add(B.random_element(rng, degree))
        for n in _oracle_arities(degree):
            _assert_matches_first_leg_oracle(B, p, n)


def test_unitary_iterated_coproduct_matches_first_leg_oracle():
    # Delta_n of a degree-d word of U<2> has 2^(d (n - 1)) legs, so the
    # arities stop where that stays in the thousands
    B = make_unitary_bialgebra(2)
    rng = np.random.default_rng(35)
    for degree, arities in ((1, (1, 2, 3, 7)), (2, (1, 2, 3, 7)), (3, (1, 2, 3))):
        p = B.random_element(rng, degree)
        for n in arities:
            _assert_matches_first_leg_oracle(B, p, n)


def test_broken_morphism_detected(azema2):
    B, primitive, _psi = azema2
    # the Azema -> primitive word map with x shifted off the counit kernel
    images = {g: NcPoly.word((g,)) for g in range(B.algebra.ngen())}
    images[X] = images[X].add(NcPoly.one())

    def product_of_images(w):
        img = primitive.one()
        for g in w:
            img = primitive.mul(img, images[g])
        return img

    bad = Morphism(B, primitive, "algebra-homomorphism", key_map=product_of_images,
                   name="bad")
    rep = check_counit_preserving(bad, n_samples=50, sample_degree=2)
    assert rep["max_residual"] >= 0.5
    # the exact check reads it off the generators, with no sample
    letters = [(g,) for g in range(B.algebra.ngen())]
    assert counit_residual(bad, letters) >= 0.5


def _chain_of(name):
    # the chain and its generating keys, as qlevy run builds them
    import json

    from qlevy.cli import _Run, builtin_config_path

    cfg = json.loads(builtin_config_path("sweep_grouplike_xstar.json").read_text())
    if name != "grouplike":
        # lift and morphism.degree_cap are read by the grouplike chain only
        del cfg["lift"]
        cfg["morphism"] = {"chain": name}
    return _Run(cfg).chain


@pytest.mark.parametrize("chain", ["grouplike", "azema-to-primitive", "primitive-to-azema"])
def test_exact_counit_check_agrees_with_the_sampled_oracle(chain):
    kappa, _kt, _c, _d, gens = _chain_of(chain)
    assert gens
    exact = counit_residual(kappa, gens)
    sampled = check_counit_preserving(kappa, n_samples=30)["max_residual"]
    assert exact <= 1e-12 and sampled <= 1e-12


@pytest.mark.parametrize("q", [float("nan"), float("inf"), -float("inf")])
def test_azema_rejects_non_finite_q(q):
    with pytest.raises(InvalidParameter, match="q must be finite"):
        make_azema(q)
