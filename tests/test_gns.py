import numpy as np
import pytest

from qlevy.bialg import LinearFunctional
from qlevy.constructions import make_azema, make_unitary_bialgebra, unitary_letter
from qlevy.errors import InvalidParameter, PositivityViolation
from qlevy.gns import (
    LevyTriple,
    UnitaryTripleParams,
    azema_triple,
    check_conditional_positivity,
    gns_construct,
    levy_triple_residuals,
    unitary_triple,
)
from qlevy.ncpoly import NcPoly, involute, multiply

X, XS, Y = 0, 1, 2


@pytest.fixture(scope="module")
def azema2():
    return make_azema(2.0)


@pytest.fixture(scope="module")
def gns_azema(azema2):
    B, _, psi = azema2
    return gns_construct(psi, B, degree_cap=3)


def test_positivity_azema(azema2):
    B, _, psi = azema2
    rep = check_conditional_positivity(psi, B, degree_cap=3)
    assert rep["min_eigenvalue"] >= -1e-12
    assert rep["hermiticity_residual"] <= 1e-12
    assert rep["passed"]


def test_positivity_zero(azema2):
    B, _, _ = azema2
    zero = LinearFunctional("zero", lambda w: 0.0)
    rep = check_conditional_positivity(zero, B, degree_cap=2)
    assert rep["min_eigenvalue"] == pytest.approx(0.0, abs=1e-14)
    assert rep["max_eigenvalue"] == pytest.approx(0.0, abs=1e-14)


def test_positivity_violation_detected(azema2):
    B, _, _ = azema2

    def bad_word(w):
        k = len(w)
        while k > 0 and w[k - 1] == Y:
            k -= 1
        return -1.0 if w[:k] == (X, XS) else 0.0

    bad = LinearFunctional("bad", bad_word)
    rep = check_conditional_positivity(bad, B, degree_cap=2)
    assert rep["min_eigenvalue"] <= -1.0
    assert not rep["passed"]
    with pytest.raises(PositivityViolation):
        gns_construct(bad, B, degree_cap=2)


def test_positivity_check_passes_exactly_when_gns_builds(azema2):
    # psi - eps [y y] has one eigenvalue near -1.3 eps; the check and the
    # construction read it against one threshold, NULL_TOL * max(1, 2)
    B, _, psi = azema2
    outcomes = set()
    for eps in (1e-11, 5e-10, 2e-9, 5e-9, 2e-8):
        f = LinearFunctional(f"psi-{eps:g}[y y]",
                             lambda w, eps=eps: psi.on_word(w) - (eps if w == (Y, Y) else 0.0))
        passed = check_conditional_positivity(f, B, degree_cap=2)["passed"]
        try:
            gns_construct(f, B, degree_cap=2)
            built = True
        except PositivityViolation:
            built = False
        assert passed == built, eps
        outcomes.add(built)
    assert outcomes == {True, False}


def test_gns_azema_values(gns_azema):
    t = gns_azema
    assert t.k_dim == 1
    assert abs(t.eta(NcPoly.word((XS,)))[0] - 1.0) <= 1e-12
    assert abs(t.eta(NcPoly.word((X,)))[0]) <= 1e-12
    assert abs(t.eta(NcPoly.word((Y,)))[0]) <= 1e-12
    assert abs(t.rho(NcPoly.word((X,)))[0, 0]) <= 1e-12
    assert abs(t.rho(NcPoly.word((Y,)))[0, 0] - 2.0) <= 1e-12


@pytest.mark.parametrize("q", [1e-3, 0.5, 2.0, 3.7, 1e3, None],
                         ids=["azema_q0.001", "azema_q0.5", "azema_q2", "azema_q3.7",
                              "azema_q1000", "unitary1"])
def test_closed_form_triples_match_gns(q):
    # each closed form against the GNS quotient of its psi on every normal
    # word up to degree 3, and psi against the recursion of the closed form's
    # generator data, which does not read psi
    from qlevy.constructions import normal_words

    if q is None:
        closed = unitary_triple(UnitaryTripleParams(1, [[np.exp(0.7j)]], [[[0.3]]], [[-0.2]]))
    else:
        B, _, psi = make_azema(q)
        closed = azema_triple(q, B, psi)
        assert closed.psi is psi
    B = closed.B
    gns = gns_construct(closed.psi, B, degree_cap=3)
    recursion = LevyTriple(B, closed.k_dim, closed.eta1, closed.rho1, closed.psi1)
    assert closed.k_dim == gns.k_dim == 1
    for w in normal_words(B.algebra, 3):
        for got, want in ((closed.eta_word(w), gns.eta_word(w)),
                          (closed.rho_word(w), gns.rho_word(w)),
                          (recursion.psi.on_word(w), gns.psi.on_word(w))):
            assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max()), w


def test_gns_zero_generator(azema2):
    B, _, _ = azema2
    zero = LinearFunctional("zero", lambda w: 0.0)
    t = gns_construct(zero, B, degree_cap=2)
    assert t.k_dim == 0
    assert t.eta(NcPoly.word((X,))).shape == (0,)


def test_gram_reproduction(azema2, gns_azema):
    B, _, psi = azema2
    t = gns_azema
    from qlevy.constructions import b0_basis
    basis = b0_basis(B, 3)
    for _wv, v in basis:
        for _wu, u in basis:
            lhs = np.vdot(t.eta(v), t.eta(u))
            rhs = psi(multiply(involute(v, B.algebra), u, B.algebra))
            assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("cap", [2, 3, 4])
@pytest.mark.parametrize("q", [1e-3, 2.0, 1e3, None], ids=["azema_q0.001", "azema_q2",
                                                         "azema_q1000", "unitary1"])
def test_table_gram_matches_term_by_term_gram(q, cap):
    # E^H p E against one psi(v_i* v_j) per pair, each on a fresh algebra; at
    # q = 2 every coefficient is a power of 2, so the sums are exact
    from qlevy.constructions import b0_basis
    from qlevy.gns import _kernel_spectrum

    def build():
        if q is None:
            t = unitary_triple(UnitaryTripleParams(1, [[1.0]], [[[0.3]]], [[0.5]]))
            return t.B, t.psi
        B, _, psi = make_azema(q)
        return B, psi

    B, psi = build()
    alg = B.algebra
    basis = b0_basis(B, cap)
    want = np.array([[psi(multiply(involute(vi, alg), vj, alg)) for _w, vj in basis]
                     for _w, vi in basis])
    fresh_B, fresh_psi = build()
    got = _kernel_spectrum(fresh_psi, fresh_B, cap)[1]
    if q == 2.0:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()


def test_azema_residuals(gns_azema):
    rep = levy_triple_residuals(gns_azema, n_samples=40, sample_degree=3)
    assert rep["max_residual"] <= 1e-10


def test_corrupted_rho_detected(azema2, gns_azema):
    B, _, psi = azema2
    t = gns_azema
    rho1 = {g: m.copy() for g, m in t.rho1.items()}
    rho1[Y] = rho1[Y] + 1.0
    bad = LevyTriple(B, t.k_dim, t.eta1, rho1, psi1=t.psi1, psi=psi)
    rep = levy_triple_residuals(bad, n_samples=40, sample_degree=3)
    assert rep["cocycle"] > 0.1


def test_coboundary_positivity(azema2, gns_azema):
    B, _, psi = azema2
    t = gns_azema
    # group-like-shifted b = w + (1 - delta(w)) 1, check psi(b*b)-psi(b*)-psi(b)
    for w in [(Y,), (X, XS), (XS, Y)]:
        b = NcPoly({w: 1.0, (): 1.0 - B.counit(NcPoly.word(w))})
        bs = involute(b, B.algebra)
        val = psi(multiply(bs, b, B.algebra)) - psi(bs) - psi(b)
        d = b.sub(NcPoly.one().scale(B.counit(b)))
        assert abs(val - np.vdot(t.eta(d), t.eta(d))) < 1e-10
        assert val.real >= -1e-10


def test_unitary_triple_d1():
    params = UnitaryTripleParams(1, np.array([[1.0]]),
                                 np.array([[[0.3]]]), np.array([[0.5]]))
    t = unitary_triple(params)
    # psi(x) = ih - |l|^2 / 2
    assert t.psi(NcPoly.word((0,))) == pytest.approx(0.5j - 0.045)
    assert t.psi(NcPoly.one()) == 0.0
    rep = levy_triple_residuals(t, n_samples=50, sample_degree=3)
    assert rep["max_residual"] <= 1e-10


def test_unitary_triple_trivial():
    params = UnitaryTripleParams(2, np.eye(2), np.zeros((2, 2, 1)), np.zeros((2, 2)))
    t = unitary_triple(params)
    for g in range(8):
        assert t.psi(NcPoly.word((g,))) == 0.0


def test_unitary_triple_d2_random():
    rng = np.random.default_rng(31)
    m = 2
    a = rng.normal(size=(2 * m, 2 * m)) + 1j * rng.normal(size=(2 * m, 2 * m))
    w, _r = np.linalg.qr(a)
    L = rng.normal(size=(2, 2, m)) + 1j * rng.normal(size=(2, 2, m))
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = (h + h.conj().T) / 2.0
    t = unitary_triple(UnitaryTripleParams(2, w, 0.4 * L, h))
    rep = levy_triple_residuals(t, n_samples=60, sample_degree=3)
    assert rep["max_residual"] <= 1e-10


def _per_letter_recursion(t):
    """eta, rho and psi on words by the recursion on the first letter, one
    call per letter, on memos of their own."""
    B = t.B
    eta = {(): np.zeros(t.k_dim, dtype=complex)}
    rho = {(): np.eye(t.k_dim, dtype=complex)}
    psi = {(): complex(0.0)}

    def eta_word(w):
        if w not in eta:
            eta[w] = t.rho1[w[0]] @ eta_word(w[1:]) + t.eta1[w[0]] * B.key_counit(w[1:])
        return eta[w]

    def rho_word(w):
        if w not in rho:
            rho[w] = t.rho1[w[0]] @ rho_word(w[1:])
        return rho[w]

    def psi_word(w):
        if w not in psi:
            g, rest = w[0], w[1:]
            gstar = (B.algebra.adjoint_of(g),)
            psi[w] = complex(B.key_counit((g,)) * psi_word(rest)
                             + t.psi1[g] * B.key_counit(rest)
                             + complex(np.vdot(eta_word(gstar), eta_word(rest))))
        return psi[w]

    return eta_word, rho_word, psi_word


def test_long_words_equal_the_per_letter_recursion():
    # the fock_unitary_d1 triple on x11^1500, which the per-letter
    # recursion reaches only in 500-letter steps
    t = unitary_triple(UnitaryTripleParams(1, [[1.0]], [[[0.3]]], [[0.5]]))
    eta, rho, psi = _per_letter_recursion(t)
    x11 = unitary_letter(1, 1, 1)
    for k in (500, 1000, 1500):
        want = eta((x11,) * k), rho((x11,) * k), psi((x11,) * k)
    w = (x11,) * 1500
    assert np.array_equal(t.eta_word(w), want[0])
    assert np.array_equal(t.rho_word(w), want[1])
    assert t.psi.on_word(w) == want[2]


def test_unitary_params_validation():
    with pytest.raises(InvalidParameter):
        UnitaryTripleParams(1, np.array([[2.0]]), np.zeros((1, 1, 1)),
                            np.zeros((1, 1)))
    with pytest.raises(InvalidParameter):
        UnitaryTripleParams(1, np.array([[1.0]]), np.zeros((1, 1, 1)),
                            np.array([[1j]]))


def test_triple_json(gns_azema):
    doc = gns_azema.to_json()
    assert doc["k_dim"] == 1
    assert doc["eta_on_gen"][str(XS)][0] == pytest.approx([1.0, 0.0], abs=1e-12)
