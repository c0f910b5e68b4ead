import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qlevy.bialg
import qlevy.subcoalg
from qlevy.bialg import LinearFunctional, convolve_eval, iterated_coproduct
from qlevy.constructions import make_azema, make_grouplike, make_unitary_bialgebra
from qlevy.errors import DimCapExceeded, InvalidParameter, MeshTooCoarse, TermBudgetExceeded
from qlevy.gns import UnitaryTripleParams, unitary_triple
from qlevy.ncpoly import NcPoly, involute, multiply, parse_poly, random_poly
from qlevy.partition import Partition
from qlevy.subcoalg import (
    DENSE_POWER_DIM,
    ProductFamilySpec,
    _DoubledLayout,
    _routed_exp,
    banach_product_check,
    conv_exp,
    conv_exp_series,
    doubled_product,
    factor_table,
    subcoalgebra_of,
)
from two_leg import TwoLegSubcoalgebra, transfer_matrix

X, XS, Y = 0, 1, 2


@pytest.fixture(scope="module")
def azema2():
    return make_azema(2.0)


def span_words(sub):
    words = set()
    for b in sub.basis:
        words |= set(b.terms)
    return words


def structure_residual(sub, B):
    """Largest gap between the structure constants of a coideal sub with no
    functional, summed back into legs -> coeff per word of L (u indexing
    L, v indexing R, the words of its basis), and key_delta of the carrier
    B."""
    words = list(sub._index)
    right = [next(iter(b.terms)) for b in sub.basis]
    rebuilt = [{} for _ in words]
    for j, u, v, c in zip(*sub.constants):
        key = (words[u], right[v])
        rebuilt[j][key] = rebuilt[j].get(key, 0.0) + c
    worst = 0.0
    for got, w in zip(rebuilt, words):
        for key, c in B.key_delta(w).items():
            got[key] = got.get(key, 0.0) - c
        worst = max(worst, max((abs(c) for c in got.values()), default=0.0))
    return worst


def test_sub_of_x(azema2):
    B, _, _ = azema2
    sub = subcoalgebra_of(NcPoly.word((X,)), B)
    assert sub.dim() == 2
    assert set(sub._index) == {(), (X,)}
    assert span_words(sub) == {(), (X,), (Y,)}
    assert structure_residual(sub, B) < 1e-10


def test_sub_of_grouplike(azema2):
    B, _, _ = azema2
    sub = subcoalgebra_of(NcPoly.word((Y,)), B)
    assert sub.dim() == 1


def test_sub_of_xxstar(azema2):
    B, _, _ = azema2
    sub = subcoalgebra_of(NcPoly.word((X, XS)), B)
    assert sub.dim() == 4
    assert set(sub._index) == {(), (X,), (XS,), (X, XS)}
    assert span_words(sub) == {
        (), (X,), (XS,), (Y,), (Y, Y), (X, Y), (XS, Y), (X, XS)}
    assert structure_residual(sub, B) < 1e-10


def test_dim_cap(monkeypatch):
    # the cap is checked when a coideal is first closed: a fresh carrier;
    # x x* has 4 words of L
    B, _, _ = make_azema(2.0)
    monkeypatch.setattr(qlevy.subcoalg, "DIM_CAP", 3)
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
    # (x x*)^2's coideal closes at exactly dim words, and filtered by psi at
    # span words: a cap of dim passes and dim - 1 fails when extracting, a
    # cap of span passes and span - 1 fails on a fresh carrier's first
    # conv_exp
    p = NcPoly.word((X, XS, X, XS))
    B, _, psi = make_azema(2.0)
    dim = subcoalgebra_of(p, B).dim()
    span = subcoalgebra_of(p, B, psi).dim()
    assert (span, dim) == (4, 12)
    want = conv_exp(psi, 0.5, p, B)
    monkeypatch.setattr(qlevy.subcoalg, "DIM_CAP", dim)
    B, _, psi = make_azema(2.0)
    assert subcoalgebra_of(p, B).dim() == dim
    monkeypatch.setattr(qlevy.subcoalg, "DIM_CAP", dim - 1)
    B, _, psi = make_azema(2.0)
    with pytest.raises(DimCapExceeded, match=f"^coideal of a 1-term element reached {dim}"):
        subcoalgebra_of(p, B)
    monkeypatch.setattr(qlevy.subcoalg, "DIM_CAP", span)
    B, _, psi = make_azema(2.0)
    assert conv_exp(psi, 0.5, p, B) == want
    monkeypatch.setattr(qlevy.subcoalg, "DIM_CAP", span - 1)
    B, _, psi = make_azema(2.0)
    with pytest.raises(DimCapExceeded,
                       match=f"coideal filtered by .* reached {span} words, above cap {span - 1}"):
        conv_exp(psi, 0.5, p, B)


U2_PARAMS = UnitaryTripleParams(
    2, np.eye(2), 0.3 * np.ones((2, 2, 1)), np.array([[0.2, 0.1j], [-0.1j, -0.3]]))


def _span_cases():
    """(name, carrier, psi, element): Azema across q, U<2>'s unitary_triple,
    a group-like carrier, a table psi with zero entries and the zero psi."""
    for q in (1e-3, 2.0, 1e3):
        B, _, psi = make_azema(q)
        for k in (1, 2, 3):
            yield f"azema q={q:g} k={k}", B, psi, NcPoly({(X, XS) * k: 0.7 - 0.4j, (): 1.0})
    u2 = unitary_triple(U2_PARAMS)
    for word in ("x11 x21^*", "x12 x22^* x21"):
        p = parse_poly(word, u2.B.algebra).scale(0.6 + 0.2j).add(NcPoly.one())
        yield f"U<2> {word}", u2.B, u2.psi, p
    B, _, _ = make_azema(2.0)
    G, _kappa, _kappa_tilde = make_grouplike(B, 2)
    keys = [NcPoly.one(), NcPoly({(X, XS): 1.0, (): 1.0}), NcPoly({(Y,): 1.0})]
    f = LinearFunctional("f", lambda k: 0.0 if k == keys[1] else complex(len(k.terms), -0.5))
    yield "group-like", G, f, NcPoly({G.register(k): c for k, c in zip(keys, (1.0, 0.5j, -2.0))})
    table = {(X, XS): 0.8 - 0.1j, (Y,): 0.0, (XS,): 0.0, (X,): 0.3, (Y, Y): 0.2j}
    for name, values in (("table", table), ("zero", {})):
        psi = LinearFunctional(f"psi[{name}]", lambda w, values=values: values.get(w, 0.0))
        yield name, B, psi, NcPoly({(X, XS, X, XS): 0.7 - 0.4j, (X, Y): 0.3, (): 1.0})


@pytest.mark.parametrize("case", list(_span_cases()), ids=lambda case: case[0])
def test_span_route_matches_transfer_on_the_subcoalgebra(case):
    # oracle: T(psi) on the two-leg subcoalgebra, built here from its
    # structure constants.  The coideal is the words the oracle's columns
    # reach from p's through the left leg of any constant, and filtered by
    # psi through the entries psi does not kill; T(psi) on the filtered
    # coideal is the restriction of the oracle's, no oracle entry leads out
    # of it, and the values agree
    _name, B, psi, p = case
    sub = TwoLegSubcoalgebra(p, B)
    m = transfer_matrix(psi, sub)
    j, u, v, _c = sub.constants
    vals = np.array([psi(b) for b in sub.basis], dtype=complex)

    def reached(kept):
        reach, pending = set(), [sub._index[w] for w in p.terms]
        while pending:
            i = pending.pop()
            if i not in reach:
                reach.add(i)
                pending.extend(u[(j == i) & kept].tolist())
        return reach

    words = list(sub._index)
    reach = reached(vals[v] != 0)
    assert set(subcoalgebra_of(p, B)._index) == {words[i] for i in reached(v >= 0)}
    span = subcoalgebra_of(p, B, psi)
    assert set(span._index) == {words[i] for i in reach}
    assert span.dim() <= sub.dim()
    idx = [sub._index[w] for w in span._index]
    assert idx == sorted(idx)
    out = [i for i in range(sub.dim()) if i not in reach]
    assert np.array_equal(span.m, m[np.ix_(idx, idx)])
    assert not m[np.ix_(out, idx)].any()
    for t in (0.1, 1.0, 2.0):
        want = sub.counit_vector @ scipy.linalg.expm(t * m) @ sub.coords(p)
        got = conv_exp(psi, t, p, B)
        assert abs(got - want) <= 1e-13 * abs(want), (t, got, want)


def test_conv_exp_closes_no_subcoalgebra():
    # on c (x x*)^3 + 1, the coideal filtered by psi has 8 words where the
    # coideal has 33 and the subcoalgebra 117: conv_exp closes no unfiltered
    # coideal and takes Delta of the filtered one's words (and their
    # prefixes) only
    B, _, psi = make_azema(2.0)
    conv_exp(psi, 1.0, NcPoly({(X, XS) * 3: 0.7 - 0.4j, (): 1.0}), B)
    assert not B._subs
    assert len(B._delta_word) <= 15


def test_conv_exp_past_the_subcoalgebra_cap():
    # a degree-6 U<2> word closes under both legs to more than DIM_CAP = 512
    # words, but its coideal of left legs has 36, as has the one filtered by
    # psi: conv_exp agrees with the series
    u2 = unitary_triple(U2_PARAMS)
    p = parse_poly("x11 x21^* x12 x22 x11^* x21", u2.B.algebra)
    with pytest.raises(DimCapExceeded, match="subcoalgebra of a 1-term element reached 513"):
        TwoLegSubcoalgebra(p, u2.B)
    assert subcoalgebra_of(p, u2.B).dim() == subcoalgebra_of(p, u2.B, u2.psi).dim() == 36
    for t in (0.1, 1.0, 2.0):
        want, _terms = conv_exp_series(u2.psi, t, p, u2.B)
        got = conv_exp(u2.psi, t, p, u2.B)
        assert abs(got - want) <= 1e-12 * abs(want), (t, got, want)


def test_transfer_counit_identity(azema2):
    B, _, _ = azema2
    sub = TwoLegSubcoalgebra(NcPoly.word((X, XS)), B)
    m = transfer_matrix(LinearFunctional("counit", B.key_counit), sub)
    assert np.abs(m - np.eye(sub.dim())).max() < 1e-10


def test_transfer_psi_zero_on_x(azema2):
    B, _, psi = azema2
    sub = TwoLegSubcoalgebra(NcPoly.word((X,)), B)
    m = transfer_matrix(psi, sub)
    assert np.abs(m).max() < 1e-12


def test_transfer_grouplike_scalar(azema2):
    B, _, _ = azema2
    z = 0.7 - 0.2j
    f = LinearFunctional("f", lambda w: z if w == (Y,) else 0.0)
    sub = TwoLegSubcoalgebra(NcPoly.word((Y,)), B)
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
    sub = TwoLegSubcoalgebra(p, B)
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
        row = _routed_exp(sub.counit_vector, m, t)
        assert np.abs(row - oracle).max() <= 1e-13 * np.abs(oracle).max(), t
        assert expm_calls == []


def test_nilpotent_row_keeps_every_term_of_a_full_jordan_block(expm_calls):
    # the shift N on C^4 has N^3 != 0 = N^4: e_0 e^{tN} = (1, t, t^2/2, t^3/6),
    # so every one of the d terms counts and each carries its own 1/k!
    n = np.diag(np.ones(3, dtype=complex), 1)
    delta = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    for t in (0.1, 1.0, 2.0, -3.0):
        row = _routed_exp(delta, n, t)
        want = np.array([1.0, t, t ** 2 / 2.0, t ** 3 / 6.0])
        assert np.abs(row - want).max() <= 1e-15 * np.abs(want).max(), t
    assert expm_calls == []


@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (2, 2)])
def test_one_nonzero_on_the_diagonal_takes_dense_expm(entry, expm_calls):
    m = np.zeros((3, 3), dtype=complex)
    m[entry] = 1.0
    m[0, 2] = 0.5
    delta = np.ones(3, dtype=complex)
    row = _routed_exp(delta, m, 2.0)
    assert len(expm_calls) == 1
    want = delta @ scipy.linalg.expm(2.0 * m)
    assert np.abs(row - want).max() <= 1e-14 * np.abs(want).max()


def test_unitary2_transfer_with_a_diagonal_takes_dense_expm(expm_calls):
    t = unitary_triple(UnitaryTripleParams(
        2, np.eye(2), 0.3 * np.ones((2, 2, 1)), np.array([[0.2, 0.1j], [-0.1j, -0.3]])))
    B, psi = t.B, t.psi
    p = parse_poly("x11 x21^*", B.algebra).scale(0.6 + 0.2j).add(NcPoly.one())
    assert np.diag(transfer_matrix(psi, TwoLegSubcoalgebra(p, B))).any()
    for s in (0.1, 1.0, 2.0):
        del expm_calls[:]
        got = conv_exp(psi, s, p, B)
        assert len(expm_calls) == 1
        v, _n = conv_exp_series(psi, s, p, B)
        assert abs(got - v) <= 1e-10 * abs(v)


@pytest.mark.parametrize("side", [1, 2, 7, 40])
def test_diagonal_row_is_bitwise_dense_expm(side, expm_calls):
    # expm of a diagonal input is exp of its diagonal, so the route changes no bit
    rng = np.random.default_rng(side)
    m = np.diag(rng.normal(size=side) + 1j * rng.normal(size=side))
    delta = rng.normal(size=side) + 1j * rng.normal(size=side)
    for t in (0.1, 1.0, -2.0):
        oracle = delta @ scipy.linalg.expm(t * m)
        del expm_calls[:]
        assert np.array_equal(_routed_exp(delta, m, t), oracle), t
        assert expm_calls == []


def _fock_unitary_generator(d, m, rng, diagonal=False):
    """iH - LL*/2 of seeded random U<d> parameters (W, L, H) with m noise
    modes, as cli._exp_fock_unitary builds it; diagonal: L_kl = 0 for k != l
    and a real diagonal H, so the matrix is diagonal."""
    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    w, _ = np.linalg.qr(normal(d * m, d * m))
    L, h = 0.4 * normal(d, d, m), normal(d, d)
    if diagonal:
        L *= np.eye(d)[:, :, None]
        h = np.diag(rng.normal(size=d))
    params = UnitaryTripleParams(d, w, L, (h + h.conj().T) / 2.0)
    ll = np.einsum("ikm,ilm->kl", params.L.conj(), params.L)
    return 1j * params.H - 0.5 * ll


@pytest.mark.parametrize("d, diagonal", [(1, False), (2, False), (3, False), (2, True)])
def test_fock_unitary_target_is_bitwise_dense_expm(d, diagonal, expm_calls):
    # v = I: the target e^{t(iH - LL*/2)} keeps the bits expm gave it, and at
    # d = 1 or on a diagonal generator it takes exp of the diagonal, no expm
    rng = np.random.default_rng(350 + d)
    for m in (1, 2):
        gen = _fock_unitary_generator(d, m, rng, diagonal)
        assert diagonal or d == 1 or np.count_nonzero(gen - np.diag(np.diag(gen)))
        for t in (0.4, 1.0, 2.5):
            oracle = scipy.linalg.expm(t * gen)
            del expm_calls[:]
            assert np.array_equal(_routed_exp(np.eye(d, dtype=complex), gen, t), oracle), (m, t)
            assert len(expm_calls) == (0 if diagonal or d == 1 else 1)


def test_product_target_keeps_its_bits(tmp_path, monkeypatch, expm_calls):
    # trotter_nilpotent's G ends its Taylor sum at I + span G; a dense G
    # takes the routed exponential's expm branch, the bits of expm itself
    from qlevy.cli import builtin_config_path, run_experiment

    seen = []
    target = ProductFamilySpec.target
    monkeypatch.setattr(ProductFamilySpec, "target",
                        lambda self, span: seen.append((self.baseline, span)) or target(self, span))
    run_experiment(builtin_config_path("trotter_nilpotent.json"), str(tmp_path))
    g, span = seen[0]
    assert g.shape == (4, 4) and not (g @ g).any()
    got, _norm = ProductFamilySpec("matrix-family", g, C=0.0).target(span)
    assert np.array_equal(got, np.eye(4) + span * g)
    assert expm_calls == []
    rng = np.random.default_rng(35)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for span in (0.3, 1.0, 2.0):
        oracle = scipy.linalg.expm(span * g)
        del expm_calls[:]
        got, _norm = ProductFamilySpec("matrix-family", g, C=0.0).target(span)
        assert np.array_equal(got, oracle) and len(expm_calls) == 1, span


def test_diagonal_row_that_overflows_raises_as_dense_expm_did():
    m = np.diag(np.array([1.0, 800.0 + 0.5j], dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InvalidParameter, match=r"^e\^\{tM\} at t = 1 overflowed$"):
        _routed_exp(np.ones(2, dtype=complex), m, 1.0)


def test_zero_transfer_takes_the_nilpotent_sum(monkeypatch, expm_calls):
    exp_calls = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x: exp_calls.append(x) or exp(x))
    delta = np.array([1.0, -2.0, 0.5j])
    assert np.array_equal(_routed_exp(delta, np.zeros((3, 3), dtype=complex), 2.0), delta)
    assert exp_calls == [] and expm_calls == []


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
    # Delta_n memoizes only within one call, and the series and
    # convolve_eval never build it: what the spec holds afterwards is its
    # coproducts of words, subcoalgebras and normal forms
    B, _, psi = make_azema(2.0)
    p = NcPoly({(X, XS) * 3: 0.7 - 0.4j, (): 1.0})
    tracemalloc.start()
    try:
        exp = iterated_coproduct(NcPoly.word((X,)), 256, B)
        assert len(exp) == 256
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
        big = TwoLegSubcoalgebra(p.add(q), B)
        # enlarge so that p itself is inside
        try:
            x = big.coords(p)
        except InvalidParameter:
            continue   # p need not lie in the subcoalgebra of p + q
        v = complex(_routed_exp(big.counit_vector, transfer_matrix(psi, big), 0.9) @ x)
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


@pytest.mark.parametrize("size", [1, 2, 4, 7])
def test_nilpotent_target_is_exactly_its_two_term_sum(size, expm_calls):
    # G^2 = 0 by parity, not by triangularity (G[2, 1] sits below the
    # diagonal), as cli._exp_trotter builds it: e^{span G} = I + span G with
    # no rounding, where dense expm is off by ulps on most such G
    rng = np.random.default_rng(size)
    for _ in range(25):
        g = np.zeros((size, size), dtype=complex)
        g[::2, 1::2] = (rng.normal(size=g[::2, 1::2].shape)
                        + 1j * rng.normal(size=g[::2, 1::2].shape))
        assert not (g @ g).any()
        span = float(rng.uniform(0.1, 3.0))
        target, _norm = ProductFamilySpec("matrix-family", g, C=0.0).target(span)
        assert np.array_equal(target, np.eye(size) + span * g)
    assert expm_calls == []


def test_target_of_a_g_whose_taylor_sum_does_not_end_takes_dense_expm(expm_calls):
    # the shift N on C^4 ends at N^4 = 0; N plus a corner entry never ends
    n = np.diag(np.ones(3, dtype=complex), 1)
    ended, _norm = ProductFamilySpec("matrix-family", n, C=0.0).target(2.0)
    assert expm_calls == []
    n[3, 0] = 0.5
    dense, _norm = ProductFamilySpec("matrix-family", n, C=0.0).target(2.0)
    assert len(expm_calls) == 1
    assert np.array_equal(dense, scipy.linalg.expm(2.0 * n))
    n[3, 0] = 0.0
    want = scipy.linalg.expm(2.0 * n)
    assert np.abs(ended - want).max() <= 1e-15 * np.abs(want).max()


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


def test_convolution_products_are_transfer_matrix_products(azema2):
    # T is a homomorphism of the convolution algebra into matrices, so
    # f_1 * ... * f_n(p) = delta T(f_1) ... T(f_n) coords(p), and a family
    # of functionals delta + r psi + R_r is the matrix family
    # I + r T(psi) + T(R_r): the coalgebra checks below are matrix checks
    B, _, psi = azema2
    p = NcPoly({(X, XS, X, XS): 0.7 - 0.4j, (X,): 1.0, (): 0.5})
    sub = TwoLegSubcoalgebra(p, B)
    f = LinearFunctional("f", lambda w: complex(len(w), -0.3 * len(w)))
    for fs in ([psi, f], [f, psi, f], [psi, f, f, psi]):
        prod = np.eye(sub.dim())
        for h in fs:
            prod = prod @ transfer_matrix(h, sub)
        want = convolve_eval(fs, p, B)
        assert abs(sub.counit_vector @ prod @ sub.coords(p) - want) <= 1e-12 * abs(want)


def test_coalgebra_check_exact_grouplike(azema2):
    # on the group-like y, T(f) = [z], so the step products are (1 + z / 16)^16
    B, _, _ = azema2
    z = 0.6
    f = LinearFunctional("f", lambda w: z if w == (Y,) else 0.0)
    g = transfer_matrix(f, TwoLegSubcoalgebra(NcPoly.word((Y,)), B))
    spec = ProductFamilySpec("matrix-family", g, remainder=None, R=1.0)
    rep = banach_product_check(spec, Partition.uniform(0.0, 1.0, 16), draws=1)
    # scalar: |prod (1 + r z) - e^{t z}|
    want = abs(np.prod([1 + z / 16.0] * 16) - np.exp(z))
    assert rep["lhs_max"] == pytest.approx(want, abs=1e-12)
    assert rep["passed"]


def test_coalgebra_check_unit(azema2):
    B, _, psi = azema2
    g = transfer_matrix(psi, TwoLegSubcoalgebra(NcPoly.one(), B))
    spec = ProductFamilySpec("matrix-family", g, remainder=None, R=1.0)
    rep = banach_product_check(spec, Partition.uniform(0.0, 1.0, 8), draws=1)
    assert rep["lhs_max"] <= 1e-13


def test_coalgebra_check_true_semigroup(azema2):
    # phi_r = e_*^{r psi}, so T(phi_r) = e^{r T(psi)} and the step products
    # are e^{(t-s) T(psi)} up to rounding
    B, _, psi = azema2
    sub = TwoLegSubcoalgebra(NcPoly.word((X, XS)), B)
    g, eye = transfer_matrix(psi, sub), np.eye(sub.dim())

    def remainder(r, mu):
        # T(phi_r - delta - r psi)
        phi = LinearFunctional(f"phi{r}", lambda w: conv_exp(psi, r, NcPoly.word(w), B))
        return transfer_matrix(phi, sub) - eye - r * g

    spec = ProductFamilySpec("matrix-family", g, remainder=remainder, n_choices=1, R=1.0)
    for n in (2, 4, 8, 16, 32, 64):
        rep = banach_product_check(spec, Partition.uniform(0.0, 1.0, n), draws=1)
        assert rep["passed"], rep
        assert rep["lhs_max"] <= 1e-13


def test_coalgebra_check_first_order_family_converges_at_rate_one(azema2):
    # A_r = I + r T(psi) on sub((x x*)^2), where T(psi)^2 != 0 = T(psi)^3:
    # (I + G/n)^n - e^G = -G^2 / (2n), so lhs_max = ||G^2|| / (2n) = 1/n and
    # halves at each doubling.  On sub(x x*) T(psi)^2 = 0 and the family is exact
    B, _, psi = azema2
    xx = NcPoly.word((X, XS))
    g = transfer_matrix(psi, TwoLegSubcoalgebra(multiply(xx, xx, B.algebra), B))
    assert np.abs(g @ g).max() > 0.0
    spec = ProductFamilySpec("matrix-family", g, R=1.0)
    prev = None
    for n in (2, 4, 8, 16, 32, 64):
        rep = banach_product_check(spec, Partition.uniform(0.0, 1.0, n), draws=1)
        assert rep["passed"], rep
        if prev is not None:
            assert rep["lhs_max"] == pytest.approx(prev / 2.0, rel=1e-9)
        prev = rep["lhs_max"]
    assert prev == pytest.approx(1.0 / 64, rel=1e-9)


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
        _routed_exp(np.ones(4, dtype=complex), n, 1e300)
    with pytest.raises(InvalidParameter, match="non-finite entry"):
        _routed_exp(np.ones(2, dtype=complex), np.array([[0, np.nan], [0, 0]]), 1.0)


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


def test_product_checks_refuse_no_draws_and_no_choices():
    # with no draw, lhs_max read 0 and the check passed; with no choice, a
    # remainder family died in numpy's rng.integers(0)
    partition = Partition.uniform(0.0, 1.0, 4)
    matrix = ProductFamilySpec("matrix-family", np.zeros((2, 2)), C=0.0)
    with pytest.raises(InvalidParameter, match="banach_product_check: draws must be >= 1, got 0"):
        banach_product_check(matrix, partition, draws=0)
    with pytest.raises(InvalidParameter, match="n_choices must be >= 1, got 0"):
        ProductFamilySpec("matrix-family", np.zeros((2, 2)), n_choices=0,
                          remainder=lambda r, mu: np.zeros((2, 2)))


def test_product_family_admits_the_matrix_kind_only():
    with pytest.raises(InvalidParameter, match="unknown family kind 'functional-family'"):
        ProductFamilySpec("functional-family", np.zeros((2, 2)))


def test_matrix_family_rejects_a_nan_baseline():
    spec = ProductFamilySpec("matrix-family", np.array([[0.0, np.nan], [0.0, 0.0]]), C=0.0)
    with pytest.raises(InvalidParameter, match="baseline G is not finite"):
        spec.target(1.0)
    with pytest.raises(InvalidParameter, match="baseline G is not finite"):
        banach_product_check(spec, Partition.uniform(0.0, 1.0, 4), draws=1)


# -- doubled_product against an explicit step product -------------------------

# (left, right) words of two-leg subcoalgebras: doubled dimensions 9, 24, 51, 64 and 136,
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
    sizes = [TwoLegSubcoalgebra(NcPoly.word(a), B).dim()
             * TwoLegSubcoalgebra(NcPoly.word(b), B).dim() for a, b in _DOUBLED_PAIRS]
    assert sizes == [9, 24, 51, 64, 136]
    assert min(sizes) <= DENSE_POWER_DIM < max(sizes)


@pytest.mark.parametrize("pair", _DOUBLED_PAIRS, ids=lambda p: f"{len(p[0])}x{len(p[1])}")
def test_doubled_product_matches_explicit_step_product(azema2, pair):
    B, _, _ = azema2
    rng = np.random.default_rng(18)
    subc, subd = (TwoLegSubcoalgebra(NcPoly.word(w), B) for w in pair)
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
    values = np.ones((len(sub.basis), len(sub.basis)), dtype=complex)
    got = doubled_product(sub, sub, c, d, [(values, 0)])
    assert got == pytest.approx(np.conj(B.counit(c)) * B.counit(d), abs=1e-15)


@pytest.mark.parametrize("g", [-1, -7, 2.0, 1.5, "3"])
def test_doubled_product_rejects_a_power_that_is_not_a_natural_number(azema2, g):
    B, _, _ = azema2
    sub = subcoalgebra_of(NcPoly.word((X,)), B)
    x = NcPoly.word((X,))
    values = np.ones((len(sub.basis), len(sub.basis)), dtype=complex)
    with pytest.raises(InvalidParameter, match=r"power g of factor 1 .*" + re.escape(repr(g))):
        doubled_product(sub, sub, x, x, [(values, 2), (values, g)])


# -- the coideal's doubled layout against the two-leg oracle ------------------

def _coideal_oracle_cases():
    """(name, carrier, c, d): Azema's degree-k elements at q in {1e-3, 2, 1e3}
    and k = 1..4, a group-like carrier and U<2> words."""
    for q in (1e-3, 2.0, 1e3):
        B, _, _ = make_azema(q)
        for k in (1, 2, 3, 4):
            c = NcPoly({(X, XS, X, XS)[:k]: 0.7 - 0.4j, (): 1.0})
            d = NcPoly({(XS, X, XS, X)[:k]: 1.0, (X,): 0.5j, (): -0.3})
            yield f"azema q={q:g} k={k}", B, c, d
    B, _, _ = make_azema(2.0)
    G, _kappa, _kappa_tilde = make_grouplike(B, 2)
    keys = [G.register(k) for k in (NcPoly.one(), NcPoly({(X, XS): 1.0, (): 1.0}),
                                     NcPoly({(Y,): 1.0}))]
    yield "group-like", G, NcPoly({keys[0]: 1.0, keys[1]: 0.5j}), NcPoly({keys[1]: 2.0,
                                                                             keys[2]: -1.0})
    u2 = unitary_triple(U2_PARAMS)
    alg = u2.B.algebra
    yield "U<2>", u2.B, parse_poly("x11 x21^*", alg).add(NcPoly.one()), \
        parse_poly("x12 x22^* x21", alg).add(NcPoly.one().scale(0.4))


def _pair_values(rng, B, words_c, words_d, g):
    """Psi on words_c x words_d, a dict: conj(delta) (x) delta plus noise of
    order 1/g, so that Psi^{*g} stays of order one."""
    return {(a, b): np.conj(B.key_counit(a)) * B.key_counit(b)
            + complex(rng.normal(), rng.normal()) / max(g, 1)
            for a in words_c for b in words_d}


def _values_on(sub_c, sub_d, psi):
    """Psi's values on the basis pairs of two closures, read off the dict psi."""
    wc = [next(iter(b.terms)) for b in sub_c.basis]
    wd = [next(iter(b.terms)) for b in sub_d.basis]
    return np.array([[psi[a, b] for b in wd] for a in wc], dtype=complex)


def test_doubled_product_on_the_coideal_matches_the_two_leg_oracle():
    # the state L_c x L_d with Psi on R_c x R_d gives the convolution powers
    # of Psi on the whole doubled subcoalgebra, on both power routes
    rng = np.random.default_rng(41)
    sizes = []
    for name, B, c, d in _coideal_oracle_cases():
        subc, subd = subcoalgebra_of(c, B), subcoalgebra_of(d, B)
        oc, od = TwoLegSubcoalgebra(c, B), TwoLegSubcoalgebra(d, B)
        sizes.append(subc.dim() * subd.dim())
        wc, wd = list(oc._index), list(od._index)
        for g in (0, 1, 7):
            psi = _pair_values(rng, B, wc, wd, g)
            got = doubled_product(subc, subd, c, d, [(_values_on(subc, subd, psi), g)])
            want = doubled_product(oc, od, c, d, [(_values_on(oc, od, psi), g)])
            assert abs(got - want) <= 1e-13 * abs(want), (name, g, got, want)
        # several factors in interval order, one of them the counit
        psis = [_pair_values(rng, B, wc, wd, 9) for _ in range(3)]
        got = doubled_product(subc, subd, c, d, [(_values_on(subc, subd, p), g)
                                                 for p, g in zip(psis, (3, 0, 7))])
        want = doubled_product(oc, od, c, d, [(_values_on(oc, od, p), g)
                                              for p, g in zip(psis, (3, 0, 7))])
        assert abs(got - want) <= 1e-13 * abs(want), (name, got, want)
    assert min(sizes) <= DENSE_POWER_DIM < max(sizes)


@pytest.mark.parametrize("words, size", [(((X, XS), (X, XS)), 16),
                                         (((X, XS, X, XS), (X, XS, X, XS)), 144),
                                         (((X,), (X, XS, X, XS)), 24)])
def test_doubled_layout_state_is_the_product_of_the_coideals(azema2, words, size):
    # T(Psi) moves pairs of words to pairs of left legs only: the state is
    # L_c x L_d (1 156 for (x x*)^2 on the two-leg subcoalgebra, 144 here)
    B, _, _ = azema2
    c, d = (NcPoly.word(w) for w in words)
    subc, subd = subcoalgebra_of(c, B), subcoalgebra_of(d, B)
    layout = _DoubledLayout(subc, subd, c, d)
    assert layout.size == subc.dim() * subd.dim() == size
    assert layout.x.size == layout.counit.size == size
    assert max(layout.rows.max(), layout.cols.max()) < size
