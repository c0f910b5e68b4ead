import numpy as np
import pytest

from qlevy.bialg import (
    BialgebraSpec,
    LinearFunctional,
    TensorPoly,
    bialgebra_from_json,
    bialgebra_to_json,
    check_bialgebra_axioms,
    convolve_eval,
    counit_functional,
)
from qlevy.constructions import make_azema, make_grouplike, make_unitary_bialgebra
from qlevy.errors import InvalidParameter, UnknownGenerator
from qlevy.gns import UnitaryTripleParams, unitary_triple
from qlevy.ncpoly import NcPoly, random_poly

X, XS, Y = 0, 1, 2


@pytest.fixture(scope="module")
def azema2():
    return make_azema(2.0)


def test_coproduct_x(azema2):
    B, _, _ = azema2
    d = B.coproduct(NcPoly.word((X,)))
    assert d.terms == {((X,), (Y,)): 1.0, ((), (X,)): 1.0}


def test_coproduct_unit(azema2):
    B, _, _ = azema2
    assert B.coproduct(NcPoly.one()).terms == {((), ()): 1.0}


def test_coproduct_xxstar(azema2):
    B, _, _ = azema2
    d = B.coproduct(NcPoly.word((X, XS)))
    expected = {
        ((X, XS), (Y, Y)): 1.0,
        ((X,), (XS, Y)): 2.0,
        ((XS,), (X, Y)): 1.0,
        ((), (X, XS)): 1.0,
    }
    assert d.sub(TensorPoly(expected)).max_abs() < 1e-14


def test_counit_values(azema2):
    B, _, _ = azema2
    assert B.counit(NcPoly.word((X, X, Y))) == 0.0
    assert B.counit(NcPoly.one()) == 1.0
    assert B.counit(NcPoly.word((Y, Y, Y))) == 1.0


def test_iterated_grouplike(azema2):
    B, _, _ = azema2
    e = B.iterated_coproduct(NcPoly.word((Y,)), 3)
    assert e.terms == {((Y,), (Y,), (Y,)): 1.0}


def test_iterated_x(azema2):
    B, _, _ = azema2
    e = B.iterated_coproduct(NcPoly.word((X,)), 3)
    assert e.terms == {
        ((X,), (Y,), (Y,)): 1.0,
        ((), (X,), (Y,)): 1.0,
        ((), (), (X,)): 1.0,
    }


def test_iterated_unit(azema2):
    B, _, _ = azema2
    e = B.iterated_coproduct(NcPoly.one(), 5)
    assert e.terms == {((),) * 5: 1.0}


def test_counit_is_convolution_unit(azema2):
    B, _, psi = azema2
    rng = np.random.default_rng(3)
    delta = counit_functional(B)
    for _ in range(50):
        p = random_poly(B.algebra, rng, 4)
        lhs = convolve_eval([delta, psi], p, B)
        assert abs(lhs - psi(p)) < 1e-12


def test_psi_convolution_square(azema2):
    B, _, psi = azema2
    p = NcPoly.word((X, XS))
    assert convolve_eval([psi, psi], p, B) == pytest.approx(0.0, abs=1e-14)
    assert psi(p) == pytest.approx(1.0)


def test_convolve_associative(azema2):
    B, _, psi = azema2
    rng = np.random.default_rng(4)
    delta = counit_functional(B)
    f = LinearFunctional("f", lambda w: complex(len(w), -0.3 * len(w)))
    for _ in range(20):
        p = random_poly(B.algebra, rng, 3)
        v1 = convolve_eval([psi, f, delta], p, B)
        # group as (psi * f) * delta via an intermediate functional
        pf = LinearFunctional("pf", lambda w: convolve_eval([psi, f], NcPoly.word(w), B))
        v2 = convolve_eval([pf, delta], p, B)
        assert abs(v1 - v2) < 1e-12


def _leg_sum(fs, p, B):
    # the explicit Sweedler sum over the legs of Delta_n(p)
    total = complex(0.0)
    for legs, c in B.iterated_coproduct(p, len(fs)).terms.items():
        z = complex(c)
        for f, leg in zip(fs, legs):
            z *= f.on_word(leg)
        total += z
    return total


def _convolve_carrier(name):
    if name.startswith("azema"):
        B, _, psi = make_azema(float(name[len("azema-"):]))
        return B, psi
    if name == "unitary2":
        t = unitary_triple(UnitaryTripleParams(
            2, np.eye(2), 0.3 * np.ones((2, 2, 1)), np.array([[0.2, 0.1j], [-0.1j, -0.3]])))
        return t.B, t.psi
    B, _, psi = make_azema(2.0)
    G, _, _ = make_grouplike(B, 3)
    return G, LinearFunctional("psi.kappa", lambda k: psi(G.poly(k)))


@pytest.mark.parametrize("name", [
    "azema-0.001", "azema-2", "azema-1000", "unitary2", "grouplike"])
def test_convolve_eval_matches_sweedler_legs(name):
    # convolve_eval applies one transfer image per factor; the oracle sums
    # the value products over the legs of Delta_n
    B, psi = _convolve_carrier(name)
    rng = np.random.default_rng(41)
    drawn = {}

    def table(k):
        # a complex table functional, one seeded draw per key on first use
        if k not in drawn:
            drawn[k] = complex(rng.normal(), rng.normal())
        return drawn[k]

    pool = [psi, counit_functional(B), LinearFunctional("table", table)]
    for _ in range(4):
        p = B.random_element(rng, 3)
        for n in range(1, 6):
            fs = [pool[i] for i in rng.integers(len(pool), size=n)]
            want = _leg_sum(fs, p, B)
            assert abs(convolve_eval(fs, p, B) - want) <= 1e-12 * abs(want)


def test_axioms_azema(azema2):
    B, prim, _ = azema2
    rep = check_bialgebra_axioms(B, sample_degree=4, n_samples=60)
    assert rep["max_residual"] <= 1e-12
    rep = check_bialgebra_axioms(prim, sample_degree=4, n_samples=60)
    assert rep["max_residual"] <= 1e-12


@pytest.mark.parametrize("q, seed", [
    (1e3, None), (1e3, 1), (1e3, 5), (1e-3, None), (1e-3, 1), (1e-3, 5),
])
def test_axioms_at_extreme_q(q, seed):
    # words rewrite with coefficients near q^k; their normal forms are kept
    # at coefficient 1 and scaled afterwards, and only exact zeros are
    # dropped, so no small but exact leg of a product is lost
    rng = None if seed is None else np.random.default_rng(seed)
    rep = check_bialgebra_axioms(make_azema(q)[0], rng=rng)
    assert rep["max_residual"] <= 1e-12


def test_tensor_poly_keeps_nan_coefficient():
    t = TensorPoly({((X,), ()): float("nan"), ((), (X,)): 0.0})
    assert list(t.terms) == [((X,), ())] and np.isnan(t.terms[(X,), ()])


def test_axioms_unitary_d2():
    B = make_unitary_bialgebra(2)
    rep = check_bialgebra_axioms(B, sample_degree=3, n_samples=30)
    assert rep["max_residual"] <= 1e-12


def test_corrupted_spec_reports(azema2):
    B, _, _ = azema2
    alg = B.algebra
    bad_delta = dict(B.delta_on_gen)
    bad_delta[X] = TensorPoly({((X,), (X,)): 1.0})
    bad = BialgebraSpec(alg, bad_delta, B.counit_on_gen, name="corrupted")
    rep = check_bialgebra_axioms(bad, sample_degree=2, n_samples=20)
    assert rep["counit_law"] >= 0.5


def test_json_roundtrip(azema2):
    B, _, _ = azema2
    doc = bialgebra_to_json(B)
    B2 = bialgebra_from_json(doc)
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = random_poly(B.algebra, rng, 4)
        assert B2.coproduct(p).sub(B.coproduct(p)).max_abs() < 1e-14
        assert abs(B2.counit(p) - B.counit(p)) < 1e-14


@pytest.mark.parametrize("build, n_pairs", [
    (lambda: make_azema(2.0)[0], 0),
    (lambda: make_unitary_bialgebra(1), 2),
    (lambda: make_unitary_bialgebra(2), 8),
    (lambda: make_unitary_bialgebra(3), 18),
], ids=["azema", "unitary1", "unitary2", "unitary3"])
def test_shipped_specs_confluent_through_json(build, n_pairs):
    from qlevy.ncpoly import critical_pairs
    B = build()
    assert len(list(critical_pairs(B.algebra))) == n_pairs
    B2 = bialgebra_from_json(bialgebra_to_json(B))
    assert [r.lhs for r in B2.algebra.rules] == [r.lhs for r in B.algebra.rules]


def test_non_confluent_spec_rejected():
    # ab -> c and bc -> a overlap on abc, which rewrites to cc and to aa
    names = ["a", "b", "c"]
    doc = {
        "name": "overlap",
        "alphabet": [{"name": n, "adjoint": n} for n in names],
        "rules": [{"lhs": list(lhs), "rhs": [{"word": [rhs], "coeff": [1.0, 0.0]}]}
                  for lhs, rhs in (("ab", "c"), ("bc", "a"))],
        "delta_on_gen": {n: [{"left": [n], "right": [n], "coeff": [1.0, 0.0]}]
                         for n in names},
        "counit_on_gen": {n: [1.0, 0.0] for n in names},
    }
    with pytest.raises(InvalidParameter, match="'a b c'"):
        bialgebra_from_json(doc)


def _azema_doc_with(azema2, edit):
    doc = bialgebra_to_json(azema2[0])
    edit(doc)
    return doc


def test_json_repeated_generator_name_is_named(azema2):
    doc = _azema_doc_with(azema2, lambda d: d["alphabet"][2].update(name="x*"))
    with pytest.raises(InvalidParameter, match="'x\\*' is repeated"):
        bialgebra_from_json(doc)


def test_json_missing_coproduct_is_named(azema2):
    doc = _azema_doc_with(azema2, lambda d: d["delta_on_gen"].pop("y"))
    with pytest.raises(InvalidParameter, match=r"no coproduct for generators \['y'\]"):
        bialgebra_from_json(doc)


def test_json_rule_rhs_not_below_lhs(azema2):
    # x y -> y x points upward in deg-lex order (x < y), so rewriting
    # would not terminate
    doc = _azema_doc_with(azema2, lambda d: d["rules"][0].update(
        lhs=["x", "y"], rhs=[{"word": ["y", "x"], "coeff": [0.5, 0.0]}]))
    with pytest.raises(InvalidParameter, match="'y x' not below lhs 'x y'"):
        bialgebra_from_json(doc)


@pytest.mark.parametrize("edit", [
    lambda d: d["alphabet"][0].update(adjoint="z"),
    lambda d: d["rules"][0].update(lhs=["y", "z"]),
    lambda d: d["letter_order"].append("z"),
    lambda d: d["delta_on_gen"]["y"][0].update(left=["z"]),
    lambda d: d["counit_on_gen"].update(z=[1.0, 0.0]),
], ids=["adjoint", "rule", "letter_order", "delta", "counit"])
def test_json_unknown_name_is_named(azema2, edit):
    with pytest.raises(UnknownGenerator, match="'z'"):
        bialgebra_from_json(_azema_doc_with(azema2, edit))


def test_misuse_raises_invalid_parameter(azema2):
    B = azema2[0]
    with pytest.raises(InvalidParameter, match="arity"):
        B.iterated_coproduct(NcPoly.one(), 0)
    with pytest.raises(InvalidParameter, match="at least one functional"):
        convolve_eval([], NcPoly.one(), B)


def test_hermitian_spotcheck(azema2):
    B, _, psi = azema2
    from qlevy.ncpoly import involute
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = random_poly(B.algebra, rng, 4)
        assert abs(psi(involute(p, B.algebra)) - complex(psi(p)).conjugate()) < 1e-12


@pytest.mark.parametrize("q", [2.0, 1e-3, 1e3])
def test_tensor_star_matches_legwise_involute(q):
    # TensorPoly.star reads the starred legs from the normal-form memo; the
    # reference involutes each leg as a one-term polynomial.  At degree 6 some
    # legs carry coefficients down to 1e-21 at q = 1e3, which both must keep
    from qlevy.ncpoly import involute

    B, _, _ = make_azema(q)
    alg = B.algebra
    rng = np.random.default_rng(31)
    for _ in range(10):
        t = B.coproduct(random_poly(alg, rng, 6, n_terms=4))
        want = {}
        for (a, b), c in t.terms.items():
            left = involute(NcPoly({a: 1.0}), alg)
            right = involute(NcPoly({b: 1.0}), alg)
            for wl, cl in left.terms.items():
                for wr, cr in right.terms.items():
                    want[wl, wr] = want.get((wl, wr), 0.0) + complex(c).conjugate() * cl * cr
        assert t.star(alg).terms == TensorPoly(want).terms
