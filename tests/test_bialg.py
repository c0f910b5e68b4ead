import numpy as np
import pytest
import qlevy.bialg
from hypothesis import given, settings
from hypothesis import strategies as st

from qlevy.bialg import (
    BialgebraSpec,
    LinearFunctional,
    certify_bialgebra,
    complete_by_involution,
    convolve_eval,
    iterated_coproduct,
)
from qlevy.constructions import (
    make_azema,
    make_grouplike,
    make_unitary_bialgebra,
)
from qlevy.errors import InvalidParameter, TermBudgetExceeded
from qlevy.gns import UnitaryTripleParams, unitary_triple
from qlevy.ncpoly import AlgebraSpec, GeneratorSymbol, NcPoly, RewriteRule, random_poly
from qlevy.subcoalg import conv_exp
from sampled_axioms import check_bialgebra_axioms, star_legs

X, XS, Y = 0, 1, 2


@pytest.fixture(scope="module")
def azema2():
    return make_azema(2.0)


def test_coproduct_x(azema2):
    B, _, _ = azema2
    d = B.coproduct(NcPoly.word((X,)))
    assert d == {((X,), (Y,)): 1.0, ((), (X,)): 1.0}


def test_coproduct_unit(azema2):
    B, _, _ = azema2
    assert B.coproduct(NcPoly.one()) == {((), ()): 1.0}


def test_coproduct_xxstar(azema2):
    B, _, _ = azema2
    d = B.coproduct(NcPoly.word((X, XS)))
    expected = {
        ((X, XS), (Y, Y)): 1.0,
        ((X,), (XS, Y)): 2.0,
        ((XS,), (X, Y)): 1.0,
        ((), (X, XS)): 1.0,
    }
    assert d == expected


def test_counit_values(azema2):
    B, _, _ = azema2
    assert B.counit(NcPoly.word((X, X, Y))) == 0.0
    assert B.counit(NcPoly.one()) == 1.0
    assert B.counit(NcPoly.word((Y, Y, Y))) == 1.0


def test_iterated_grouplike(azema2):
    B, _, _ = azema2
    e = iterated_coproduct(NcPoly.word((Y,)), 3, B)
    assert e == {((Y,), (Y,), (Y,)): 1.0}


def test_iterated_x(azema2):
    B, _, _ = azema2
    e = iterated_coproduct(NcPoly.word((X,)), 3, B)
    assert e == {
        ((X,), (Y,), (Y,)): 1.0,
        ((), (X,), (Y,)): 1.0,
        ((), (), (X,)): 1.0,
    }


def test_iterated_unit(azema2):
    B, _, _ = azema2
    e = iterated_coproduct(NcPoly.one(), 5, B)
    assert e == {((),) * 5: 1.0}


def _prefix_delta(B, w, memo):
    """Delta(w) by the recursion on prefixes: Delta(w[:-1]) Delta(w[-1])."""
    got = memo.get(w)
    if got is None:
        got = memo[w] = qlevy.bialg._tensor_mul(
            _prefix_delta(B, w[:-1], memo), B.delta_on_gen[w[-1]], B.algebra)
    return got


@pytest.mark.parametrize("build", [lambda: make_azema(1e-3)[0], lambda: make_azema(2.0)[0],
                                   lambda: make_azema(1e3)[0],
                                   lambda: make_unitary_bialgebra(2)],
                         ids=["azema-1e-3", "azema-2", "azema-1e3", "U2"])
def test_key_delta_equals_the_prefix_recursion(build):
    # random words share prefixes, so key_delta starts from memoized
    # prefixes of every length
    B = build()
    rng = np.random.default_rng(53)
    memo = {(): {((), ()): 1.0}}
    for _ in range(60):
        for w in B.random_element(rng, 7).terms:
            assert B.key_delta(w) == _prefix_delta(B, w, memo), w


def test_conv_exp_of_a_long_grouplike_word_is_exact():
    # Delta(y^1500) = y^1500 (x) y^1500, found one letter at a time, with no
    # call per letter
    B, _, psi = make_azema(2.0)
    assert conv_exp(psi, 1.0, NcPoly.word((Y,) * 1500), B) == 1.0


def test_iterated_coproduct_refuses_a_block_before_building_it(azema2, monkeypatch):
    # Delta_128(x): the blocks x (x) y^64 and 1 (x) Delta_64(x) reach 128 > 100
    # terms; x + x* at arity 64 reaches it in the sum over words
    B, _, _ = azema2
    monkeypatch.setattr(qlevy.bialg, "TERM_BUDGET", 100)
    assert len(iterated_coproduct(NcPoly.word((X,)), 64, B)) == 64
    with pytest.raises(TermBudgetExceeded, match=r"arity 128: Delta_n would reach 128 terms > 100"):
        iterated_coproduct(NcPoly.word((X,)), 128, B)
    with pytest.raises(TermBudgetExceeded, match=r"arity 64: Delta_n would reach 128 terms"):
        iterated_coproduct(NcPoly({(X,): 1.0, (XS,): 1.0}), 64, B)


def test_counit_is_convolution_unit(azema2):
    B, _, psi = azema2
    rng = np.random.default_rng(3)
    delta = LinearFunctional("counit", B.key_counit)
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
    delta = LinearFunctional("counit", B.key_counit)
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
    for legs, c in iterated_coproduct(p, len(fs), B).items():
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
    return G, LinearFunctional("psi.kappa", psi)


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

    pool = [psi, LinearFunctional("counit", B.key_counit), LinearFunctional("table", table)]
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


def test_stored_coproduct_keeps_nan_coefficient(azema2):
    B = azema2[0]
    nan_x = {((X,), ()): float("nan"), ((), (X,)): 0.0}
    t = BialgebraSpec(B.algebra, {**B.delta_on_gen, X: nan_x}, B.counit_on_gen).delta_on_gen[X]
    assert list(t) == [((X,), ())] and np.isnan(t[(X,), ()])


def test_axioms_unitary_d2():
    B = make_unitary_bialgebra(2)
    rep = check_bialgebra_axioms(B, sample_degree=3, n_samples=30)
    assert rep["max_residual"] <= 1e-12


def test_corrupted_spec_reports(azema2):
    B, _, _ = azema2
    alg = B.algebra
    bad_delta = dict(B.delta_on_gen)
    bad_delta[X] = {((X,), (X,)): 1.0}
    bad = BialgebraSpec(alg, bad_delta, B.counit_on_gen, name="corrupted")
    rep = check_bialgebra_axioms(bad, sample_degree=2, n_samples=20)
    assert rep["counit_law"] >= 0.5


def _grouplike_x_mutant(B):
    # Delta(x) = x (x) x and eps(x) = 1, completed to x* by the *-law: the
    # rules yx -> q^-1 xy and yx* -> q x*y no longer respect Delta or eps
    delta, counit = complete_by_involution(
        B.algebra, {X: {((X,), (X,)): 1.0}, Y: B.delta_on_gen[Y]},
        {X: 1.0, Y: 1.0})
    return BialgebraSpec(B.algebra, delta, counit, name="grouplike-x")


def test_certificate_names_the_rule_delta_breaks(azema2):
    # Delta(y x*) = y x* (x) y x* -> 4 x*y (x) x*y against Delta(2 x*y) =
    # 2 x*y (x) x*y; eps(y x) = 1 against eps(q^-1 x y) = 1/2
    rep = certify_bialgebra(_grouplike_x_mutant(azema2[0]))
    assert rep["residuals"]["rule_delta"] == 0.5
    assert rep["where"]["rule_delta"] == "rule 'y x*'"
    assert rep["residuals"]["rule_counit"] == 0.5
    assert rep["where"]["rule_counit"] == "rule 'y x'"
    assert rep["max_residual"] > 1e-9


def test_certificate_names_the_rule_the_counit_breaks(azema2):
    # eps(x) = 1 while eps(x*) stays 0: eps(y x) = 1 against eps(q^-1 x y) =
    # 1/2, and eps(x*) against conj eps(x)
    B = azema2[0]
    bad = BialgebraSpec(B.algebra, B.delta_on_gen, {**B.counit_on_gen, X: 1.0})
    rep = certify_bialgebra(bad)
    assert rep["residuals"]["rule_delta"] == 0.0
    assert rep["residuals"]["rule_counit"] == 0.5
    assert rep["where"]["rule_counit"] == "rule 'y x'"
    assert rep["residuals"]["counit_star"] == 1.0
    assert rep["where"]["counit_star"] == "generator 'x'"


def test_certificate_names_a_rule_the_involution_breaks(azema2):
    # beside y x -> q^-1 x y, the rule y x* -> 2q x*y: (y x)* = x* y, but
    # (q^-1 x y)* = q^-1 y x* -> 2 x*y.  Delta and eps respect both rules
    B = azema2[0]
    alg = AlgebraSpec(B.algebra.alphabet, [
        RewriteRule((Y, X), NcPoly({(X, Y): 0.5})),
        RewriteRule((Y, XS), NcPoly({(XS, Y): 4.0})),
    ], name="azema-mutant")
    rep = certify_bialgebra(BialgebraSpec(alg, B.delta_on_gen, B.counit_on_gen))
    assert rep["residuals"]["rule_star"] == 0.5
    assert rep["where"] == {"rule_star": "rule 'y x'"}


def _scaled_delta(B, g, s):
    scaled = {k: s * c for k, c in B.delta_on_gen[g].items()}
    return BialgebraSpec(B.algebra, {**B.delta_on_gen, g: scaled}, B.counit_on_gen)


@pytest.mark.parametrize("mutate, want", [
    # (Delta (x) id) Delta(x) ends in x (x) y (x) y, (id (x) Delta) Delta(x)
    # in 1.01 x (x) y (x) y; (eps (x) id) Delta(y) = 1.01 y
    (lambda B: _scaled_delta(B, Y, 1.01),
     {"coassociativity": (0.01 / 1.01, "generator 'x'"),
      "counit_law": (0.01 / 1.01, "generator 'y'")}),
    # Delta(x) = 1.5 (x (x) y + 1 (x) x) while Delta(x*) stays unscaled
    (lambda B: _scaled_delta(B, X, 1.5),
     {"coassociativity": (0.5 / 1.5, "generator 'x'"),
      "counit_law": (0.5 / 1.5, "generator 'x'"),
      "involution_compatibility": (0.5 / 1.5, "generator 'x'")}),
    # Delta(x) = x (x) y + 1 (x) x + x (x) 1: the left counit law holds, the
    # right one reads 2x
    (lambda B: BialgebraSpec(B.algebra, {**B.delta_on_gen, X: {
        **B.delta_on_gen[X], ((X,), ()): 1.0}}, B.counit_on_gen),
     {"coassociativity": (1.0, "generator 'x'"), "counit_law": (0.5, "generator 'x'"),
      "involution_compatibility": (1.0, "generator 'x'")}),
    # a NaN coefficient proves nothing: each check it reaches reads inf
    (lambda B: _scaled_delta(B, X, float("nan")),
     {"rule_delta": (np.inf, "rule 'y x'"), "coassociativity": (np.inf, "generator 'x'"),
      "counit_law": (np.inf, "generator 'x'"),
      "involution_compatibility": (np.inf, "generator 'x'")}),
], ids=["delta-y", "delta-x", "right-counit-x", "nan-delta-x"])
def test_certificate_names_the_generator_a_law_fails_on(azema2, mutate, want):
    rep = certify_bialgebra(mutate(azema2[0]))
    for check, r in rep["residuals"].items():
        value, at = want.get(check, (0.0, None))
        assert r == pytest.approx(value, rel=1e-12), check
        assert rep["where"].get(check) == at, check


_SMALL_SAMPLE = {"sample_degree": 3, "n_samples": 10}


def _primitive_tensor_bialgebra():
    """The tensor *-bialgebra on a, a* and a self-adjoint p, every letter primitive."""
    alg = AlgebraSpec([GeneratorSymbol("a", 1), GeneratorSymbol("a*", 0), GeneratorSymbol("p", 2)],
                      [], name="T(a, a*, p)")
    delta = {i: {((i,), ()): 1.0, ((), (i,)): 1.0} for i in range(3)}
    return BialgebraSpec(alg, delta, {i: 0.0 for i in range(3)}, name="T(a, a*, p)")


def _induced_tensor_bialgebra():
    """The free *-bialgebra on a self-adjoint primitive p and a self-adjoint
    h = g - 1, g group-like: Delta h = h (x) 1 + 1 (x) h + h (x) h."""
    alg = AlgebraSpec([GeneratorSymbol("p", 0), GeneratorSymbol("h", 1)], [], name="free(p, h)")
    delta = {0: {((0,), ()): 1.0, ((), (0,)): 1.0},
             1: {((1,), ()): 1.0, ((), (1,)): 1.0, ((1,), (1,)): 1.0}}
    return BialgebraSpec(alg, delta, {0: 0.0, 1: 0.0}, name="free(p, h)")


@pytest.mark.parametrize("build, sampling", [
    pytest.param(lambda: make_azema(2.0)[0], {}, id="azema-2"),
    pytest.param(lambda: make_azema(1e-3)[0], {}, id="azema-1e-3"),
    pytest.param(lambda: make_azema(1e3)[0], {}, id="azema-1e3"),
    pytest.param(lambda: make_azema(2.0)[1], {}, id="azema-primitive"),
    pytest.param(lambda: make_unitary_bialgebra(1), {}, id="unitary1"),
    pytest.param(lambda: make_unitary_bialgebra(2), _SMALL_SAMPLE, id="unitary2"),
    pytest.param(_primitive_tensor_bialgebra, _SMALL_SAMPLE, id="primitive-tensor"),
    pytest.param(_induced_tensor_bialgebra, _SMALL_SAMPLE, id="induced-tensor"),
])
def test_certificate_agrees_with_sampled_axioms(build, sampling):
    B = build()
    cert = certify_bialgebra(B)
    sampled = check_bialgebra_axioms(B, **sampling)
    assert cert["max_residual"] == 0.0 and cert["where"] == {}
    assert sampled["max_residual"] <= 1e-12


def test_certificate_and_sampled_axioms_flag_the_same_mutant(azema2):
    # a NaN coefficient reads inf in both, not a residual max() passed over
    for bad in (_grouplike_x_mutant(azema2[0]), _scaled_delta(azema2[0], X, float("nan"))):
        assert certify_bialgebra(bad)["max_residual"] > 1e-9
        assert check_bialgebra_axioms(bad, sample_degree=2, n_samples=20)["max_residual"] > 1e-9


@settings(max_examples=60, derandomize=True, deadline=None)
@given(log_q=st.floats(-3.0, 3.0))
def test_certificate_exact_across_q(log_q):
    # every check is exact; the one rounding is that of the stored rule
    # coefficients, q^-1 and q, whose product the involution check forms
    q = 10.0 ** log_q
    rep = certify_bialgebra(make_azema(q)[0])
    want = dict.fromkeys(rep["residuals"], 0.0)
    want["rule_star"] = abs(1.0 - (1.0 / q) * q)
    assert rep["residuals"] == want


def test_certificate_rejects_non_confluent_rules_first():
    # ab -> c and bc -> a overlap on abc, which rewrites to cc and to aa
    alphabet = [GeneratorSymbol(n, i) for i, n in enumerate("abc")]
    alg = AlgebraSpec(alphabet, [RewriteRule((0, 1), NcPoly({(2,): 1.0})),
                                 RewriteRule((1, 2), NcPoly({(0,): 1.0}))], name="overlap")
    B = BialgebraSpec(alg, {g: {((g,), (g,)): 1.0} for g in range(3)},
                      {g: 1.0 for g in range(3)})

    def residual(*args):
        raise AssertionError("a residual was computed before confluence")

    B.key_delta = B.counit = B.key_counit = residual
    with pytest.raises(InvalidParameter, match="'a b c'"):
        certify_bialgebra(B)


@pytest.mark.parametrize("build, n_pairs", [
    (lambda: make_azema(2.0)[0], 0),
    (lambda: make_unitary_bialgebra(1), 2),
    (lambda: make_unitary_bialgebra(2), 8),
    (lambda: make_unitary_bialgebra(3), 18),
], ids=["azema", "unitary1", "unitary2", "unitary3"])
def test_shipped_specs_confluent_through_json(build, n_pairs):
    from qlevy.ncpoly import check_confluent, critical_pairs
    B = build()
    assert len(list(critical_pairs(B.algebra))) == n_pairs
    assert check_confluent(B.algebra)["critical_pairs"] == n_pairs


def _azema_spec_with(azema2, edit):
    # the Azema spec's generators, coproduct and counit, edited, rebuilt
    B = azema2[0]
    alphabet = list(B.algebra.alphabet)
    delta, counit = dict(B.delta_on_gen), dict(B.counit_on_gen)
    edit(alphabet, delta, counit)
    alg = AlgebraSpec(alphabet, B.algebra.rules, name=B.algebra.name)
    return BialgebraSpec(alg, delta, counit)


def test_repeated_generator_name_is_refused(azema2):
    with pytest.raises(InvalidParameter, match="generator names must be unique"):
        _azema_spec_with(azema2, lambda a, d, c: a.__setitem__(Y, GeneratorSymbol("x*", Y)))


def test_missing_coproduct_is_named(azema2):
    with pytest.raises(InvalidParameter, match=r"no coproduct for generators \['y'\]"):
        _azema_spec_with(azema2, lambda a, d, c: d.pop(Y))


def test_missing_counit_is_named(azema2):
    with pytest.raises(InvalidParameter, match=r"no counit for generators \['y'\]"):
        _azema_spec_with(azema2, lambda a, d, c: c.pop(Y))


def test_rule_rhs_not_below_lhs_is_named(azema2):
    # x y -> y x points upward in deg-lex order (x < y), so rewriting
    # would not terminate
    with pytest.raises(InvalidParameter, match="'y x' not below lhs 'x y'"):
        AlgebraSpec(azema2[0].algebra.alphabet, [RewriteRule((X, Y), NcPoly({(Y, X): 0.5}))])


def test_coproduct_leg_not_normal_is_named(azema2):
    # y x rewrites to x y / 2, so it is no basis key of B (x) B
    with pytest.raises(InvalidParameter, match="coproduct of 'y' has the leg 'y x', which is not"):
        _azema_spec_with(azema2, lambda a, d, c: d.__setitem__(Y, {((Y, X), (Y,)): 1.0}))


def test_misuse_raises_invalid_parameter(azema2):
    B = azema2[0]
    with pytest.raises(InvalidParameter, match="arity"):
        iterated_coproduct(NcPoly.one(), 0, B)
    with pytest.raises(InvalidParameter, match="arity must be an integer >= 1, got 2.0"):
        iterated_coproduct(NcPoly.one(), 2.0, B)
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
    # _tensor_star reads the starred legs from the normal-form memo; the
    # reference involutes each leg as a one-term polynomial.  At degree 6 some
    # legs carry coefficients down to 1e-21 at q = 1e3, which both must keep
    B, _, _ = make_azema(q)
    alg = B.algebra
    rng = np.random.default_rng(31)
    for _ in range(10):
        t = B.coproduct(random_poly(alg, rng, 6, n_terms=4))
        want = {k: c for k, c in star_legs(t, alg).items() if c != 0.0}
        assert qlevy.bialg._tensor_star(t, alg) == want
