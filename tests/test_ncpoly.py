import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qlevy.ncpoly
from qlevy.constructions import make_azema, make_unitary_bialgebra
from qlevy.errors import (
    InvalidParameter,
    ParseError,
    QLevyError,
    RewriteBudgetExceeded,
    UnknownGenerator,
)
from qlevy.ncpoly import (
    CONFLUENCE_TOL,
    AlgebraSpec,
    GeneratorSymbol,
    NcPoly,
    RewriteRule,
    check_confluent,
    involute,
    multiply,
    normal_form,
    parse_poly,
    random_poly,
)

X, XS, Y = 0, 1, 2


@pytest.fixture(scope="module")
def azema2():
    return make_azema(2.0)


def test_normal_form_yx(azema2):
    alg = azema2[0].algebra
    p = normal_form(NcPoly({(Y, X): 1.0}), alg)
    assert p.terms == {(X, Y): 0.5}


def test_normal_form_unit(azema2):
    alg = azema2[0].algebra
    p = normal_form(NcPoly.one(), alg)
    assert p.terms == {(): 1.0}


def test_normal_form_xyx(azema2):
    alg = azema2[0].algebra
    p = normal_form(NcPoly({(X, Y, X): 1.0}), alg)
    assert p.terms == {(X, X, Y): 0.5}


def test_multiply_unit_law(azema2):
    alg = azema2[0].algebra
    rng = np.random.default_rng(1)
    p = random_poly(alg, rng, 4)
    assert multiply(NcPoly.one(), p, alg) == p


def test_multiply_q_commutation(azema2):
    alg = azema2[0].algebra
    r = multiply(NcPoly.word((Y,)), NcPoly.word((X,)), alg)
    assert r.terms == {(X, Y): 0.5}


def test_unitary_xxstar_is_one():
    B = make_unitary_bialgebra(1)
    alg = B.algebra
    r = multiply(NcPoly.word((0,)), NcPoly.word((1,)), alg)
    assert r.terms == {(): 1.0}


def test_involute_example(azema2):
    alg = azema2[0].algebra
    p = NcPoly({(X, Y): 2.0 + 1.0j})
    got = involute(p, alg)
    # (xy)* = y x* -> q x* y with q = 2
    assert got.terms.keys() == {(XS, Y)}
    assert got.terms[(XS, Y)] == pytest.approx(2.0 * (2.0 - 1.0j))


def test_involute_is_involution(azema2):
    alg = azema2[0].algebra
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = random_poly(alg, rng, 5)
        back = involute(involute(p, alg), alg)
        assert not back.sub(p).terms


def test_involute_antihomomorphism(azema2):
    alg = azema2[0].algebra
    rng = np.random.default_rng(8)
    for _ in range(30):
        p = random_poly(alg, rng, 3)
        q = random_poly(alg, rng, 3)
        a = involute(multiply(p, q, alg), alg)
        b = multiply(involute(q, alg), involute(p, alg), alg)
        assert a.sub(b).norm1() < 1e-12


def test_normal_form_idempotent(azema2):
    alg = azema2[0].algebra
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = random_poly(alg, rng, 6)
        assert normal_form(p, alg) == p


def test_multiply_associative(azema2):
    alg = azema2[0].algebra
    rng = np.random.default_rng(10)
    for _ in range(30):
        p, q, r = (random_poly(alg, rng, 3) for _ in range(3))
        a = multiply(multiply(p, q, alg), r, alg)
        b = multiply(p, multiply(q, r, alg), alg)
        assert a.sub(b).norm1() < 1e-12


class TestParser:
    def test_relation_collapse(self):
        B = make_unitary_bialgebra(1)
        p = parse_poly("x11^* x11 + 1", B.algebra)
        assert p.terms == {(): 2.0}

    def test_complex_literal(self, azema2):
        alg = azema2[0].algebra
        p = parse_poly("(2+1i) x y^2", alg)
        assert p.terms == {(X, Y, Y): 2.0 + 1.0j}

    def test_malformed(self, azema2):
        alg = azema2[0].algebra
        with pytest.raises(ParseError) as ei:
            parse_poly("x ^", alg)
        assert ei.value.position == 2

    def test_subtraction_and_star(self, azema2):
        alg = azema2[0].algebra
        p = parse_poly("x y - 2 y x^*", alg)
        # y x* -> q x* y = 2 x* y
        assert p.terms == {(X, Y): 1.0, (XS, Y): -4.0}



# The recursive-descent parser that parse_poly replaced, kept unchanged as
# its oracle: both must give the same terms, or the same exception class,
# message and offset.  The intended differences are a literal that overflows,
# which the oracle turns into a NaN coefficient, a literal with a nonzero
# digit that underflows, whose term the oracle drops, and finite literals
# whose coefficient overflows, which the oracle keeps as inf or NaN.
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_REAL = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")


class _Parser:
    def __init__(self, text, alg):
        self.text = text
        self.alg = alg
        self.pos = 0

    def _ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _real(self):
        m = _REAL.match(self.text, self.pos)
        if not m:
            raise ParseError("expected number", self.pos)
        self.pos = m.end()
        return float(m.group())

    def _signed_real(self):
        sign = 1.0
        if self._peek() in "+-":
            sign = -1.0 if self._peek() == "-" else 1.0
            self.pos += 1
        return sign * self._real()

    def _scalar(self):
        if self._peek() == "(":
            self.pos += 1
            self._ws()
            re_part = self._signed_real()
            self._ws()
            if self._peek() not in "+-":
                raise ParseError("expected '+' or '-' in complex literal", self.pos)
            sign = -1.0 if self._peek() == "-" else 1.0
            self.pos += 1
            self._ws()
            im_part = sign * self._real()
            if self._peek() != "i":
                raise ParseError("expected 'i' in complex literal", self.pos)
            self.pos += 1
            self._ws()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return complex(re_part, im_part)
        return complex(self._real())

    def _factor(self):
        m = _IDENT.match(self.text, self.pos)
        if not m:
            raise ParseError("expected generator name", self.pos)
        idx = self.alg.index(m.group())
        self.pos = m.end()
        if self._peek() == "^":
            caret = self.pos
            self.pos += 1
            if self._peek() == "*":
                self.pos += 1
                idx = self.alg.adjoint_of(idx)
                if self._peek() == "^":
                    self.pos += 1
                    m = _REAL.match(self.text, self.pos)
                    if not m or "." in m.group() or "e" in m.group().lower():
                        raise ParseError("expected integer exponent", self.pos)
                    self.pos = m.end()
                    return (idx,) * int(m.group())
                return (idx,)
            m = _REAL.match(self.text, self.pos)
            if not m or "." in m.group() or "e" in m.group().lower():
                raise ParseError("expected '*' or integer exponent after '^'", caret)
            self.pos = m.end()
            return (idx,) * int(m.group())
        return (idx,)

    def _term(self):
        coeff = complex(1.0)
        word = ()
        self._ws()
        if self._peek() == "(" or self._peek().isdigit():
            coeff = self._scalar()
            self._ws()
        else:
            word = self._factor()
            self._ws()
        while self.pos < len(self.text) and self._peek() not in "+-":
            if self._peek() == "^":
                raise ParseError("expected generator name", self.pos)
            word = word + self._factor()
            self._ws()
        return coeff, word

    def parse(self):
        self._ws()
        if self.pos >= len(self.text):
            raise ParseError("empty expression", self.pos)
        terms = {}
        sign = 1.0
        if self._peek() in "+-":
            sign = -1.0 if self._peek() == "-" else 1.0
            self.pos += 1
        while True:
            coeff, word = self._term()
            terms[word] = terms.get(word, 0.0) + sign * coeff
            self._ws()
            if self.pos >= len(self.text):
                break
            if self._peek() not in "+-":
                raise ParseError("expected '+' or '-'", self.pos)
            sign = -1.0 if self._peek() == "-" else 1.0
            self.pos += 1
        return NcPoly(terms)


def _parse_outcome(parse, text, alg):
    """The terms parse gives, sorted and as text so that NaN equals NaN, or
    its exception's class, message and offset."""
    try:
        p = parse(text, alg)
    except QLevyError as err:
        return type(err), str(err), getattr(err, "position", None)
    return repr(sorted(p.terms.items()))


def _oracle_parse(text, alg):
    return normal_form(_Parser(text, alg).parse(), alg)


_PIECES = [" ", "\t", "(", ")", "i", "^", "*", "^*", "^2", "^*^3", ".", "e", "E", "e-3", "_",
           "+", "-", "w", "1e400", "1.e502", "1e-400"]
_TERMS = [" + ", " - ", "2 ", "0", "10", "0.5", "1.5e1 ", "(2+1i) ", "(-1 - 0.5i)", "( 1e-3 +2i )"]
_NAMES = {"azema": ["x", " y ", " x^* ", "y^2 ", " x^*^2 "],
          "unitary2": ["x11", " x12 ", " x21^* ", "x22^2 ", " x11^*^2 "]}
_ALGEBRAS = {"azema": lambda: make_azema(2.0)[0].algebra,
             "unitary2": lambda: make_unitary_bialgebra(2).algebra}


@pytest.mark.parametrize("name", sorted(_ALGEBRAS))
@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_parse_poly_matches_the_recursive_descent_oracle(name, data):
    alg = _ALGEBRAS[name]()
    tokens = st.sampled_from(_PIECES) | st.sampled_from(_TERMS) | st.sampled_from(_NAMES[name])
    text = data.draw(st.lists(tokens, max_size=12).map("".join), label="text")
    assume(not re.search(r"\^\d{3}", text))   # x^100 and up: long words, slow to normalize
    got = _parse_outcome(parse_poly, text, alg)
    refused = isinstance(got, tuple) and got[0] is ParseError and \
        re.fullmatch(r"number '(.*)' (is not finite|underflows to 0) \(offset (\d+)\)", got[1])
    if refused:
        literal, why, at = refused.group(1), refused.group(2), int(refused.group(3))
        want = math.inf if why == "is not finite" else 0.0
        assert text.startswith(literal, at) and float(literal) == want, (text, got)
    elif isinstance(got, tuple) and got[0] is InvalidParameter and "coefficient" in got[1]:
        assert not all(map(cmath.isfinite, _oracle_parse(text, alg).terms.values())), text
    else:
        assert got == _parse_outcome(_oracle_parse, text, alg), text


@pytest.mark.parametrize("text, message, offset", [
    ("", "empty expression", 0),
    ("  \t", "empty expression", 3),
    ("x + 2 x - ", "expected generator name", 10),
    ("x ^2", "expected generator name", 2),
    ("2 (1+1i)", "expected generator name", 2),
    ("x^1.5", "expected '*' or integer exponent after '^'", 1),
    ("x^ 2", "expected '*' or integer exponent after '^'", 1),
    ("x^*^2e1", "expected integer exponent", 4),
    ("(1 2i)", "expected '+' or '-' in complex literal", 3),
    ("(1+2)", "expected 'i' in complex literal", 4),
    ("(1+2i x", "expected ')'", 6),
    ("x + (", "expected number", 6),
    ("(1", "expected number", 3),
    ("(+ 1+2i)", "expected number", 2),
    ("1e400 x", "number '1e400' is not finite", 0),
    ("(1+1e400i) x", "number '1e400' is not finite", 3),
    ("-1e400", "number '1e400' is not finite", 1),
    ("x - 1.e502", "number '1.e502' is not finite", 4),
    ("1e-400 x", "number '1e-400' underflows to 0", 0),
    ("x + (1+1e-400i)", "number '1e-400' underflows to 0", 7),
    ("(-0.0001e-999 - 2i) y", "number '0.0001e-999' underflows to 0", 2),
])
def test_parse_errors_name_their_offset(azema2, text, message, offset):
    # the end of the text reads as a sign and is stepped over, so "(1" and
    # "x + (" report their missing number one past the end
    with pytest.raises(ParseError) as err:
        parse_poly(text, azema2[0].algebra)
    assert str(err.value) == f"{message} (offset {offset})"
    assert err.value.position == offset


def test_parse_keeps_zero_literals_and_refuses_a_sum_that_overflows(azema2):
    alg = azema2[0].algebra
    for zero in ("0", "0.0", "0e5", "00.000e-999", "(0-0.0i)"):
        assert parse_poly(f"{zero} x + y", alg).terms == {(Y,): 1.0}, zero
    assert parse_poly("1e308 x - 1e308 x + y", alg).terms == {(Y,): 1.0}
    with pytest.raises(InvalidParameter, match=r"^azema\(q=2\): the coefficient of 'x' overflows$"):
        parse_poly("1e308 x + 1e308 x", alg)
    # y x* -> 2 x* y: one finite literal, a coefficient that overflows in the normal form
    with pytest.raises(InvalidParameter, match=r"the coefficient of 'x\* y' overflows"):
        parse_poly("1e308 y x^*", alg)


def test_parse_unknown_generator(azema2):
    with pytest.raises(UnknownGenerator, match="unknown generator 'w'"):
        parse_poly("x^* w^2", azema2[0].algebra)


def _find_redex(w, rules):
    # leftmost position wins; at equal position, declaration order wins
    for pos in range(len(w)):
        for rule in rules:
            k = len(rule.lhs)
            if w[pos:pos + k] == rule.lhs:
                return pos, rule
    return None


def _pending_normal_form(p, alg):
    # oracle: leftmost-first rewriting of every term on a pending list, with
    # no memo; exact zeros are dropped per branch
    out = {}
    pending = list(p.terms.items())
    while pending:
        w, c = pending.pop()
        if c == 0.0:
            continue
        hit = _find_redex(w, alg.rules)
        if hit is None:
            out[w] = out.get(w, 0.0) + c
            continue
        pos, rule = hit
        k = len(rule.lhs)
        for rw, rc in rule.rhs.terms.items():
            pending.append((w[:pos] + rw + w[pos + k:], c * rc))
    return NcPoly(out)


@pytest.mark.parametrize("build, degree", [
    (lambda: make_azema(1e-3)[0], 6),
    (lambda: make_azema(2.0)[0], 6),
    (lambda: make_azema(1e3)[0], 6),
    (lambda: make_unitary_bialgebra(2), 5),
], ids=["azema_q0.001", "azema_q2", "azema_q1000", "unitary2"])
def test_memoized_normal_form_matches_pending_list_oracle(build, degree):
    alg = build().algebra
    rng = np.random.default_rng(41)
    for _ in range(60):
        p = random_poly(alg, rng, degree, n_terms=6, normal=False)
        got = normal_form(p, alg)
        want = _pending_normal_form(p, alg)
        assert got.sub(want).norm1() <= 1e-15 * max(1.0, want.norm1())
        # a second pass is served from the memo and gives the same terms
        assert normal_form(p, alg) == got


@pytest.mark.parametrize("q", [1e-3, 2.0, 1e3, None], ids=["azema_q0.001", "azema_q2",
                                                         "azema_q1000", "unitary2"])
def test_left_multiplication_matches_leftmost_first_rewriting_on_words(q):
    # the rules are confluent, so both routes reach the one normal form and
    # differ at most by rounding; U<2> has multi-term right-hand sides
    alg = (make_unitary_bialgebra(2) if q is None else make_azema(q)[0]).algebra
    rng = np.random.default_rng(43)
    for k in range(8):
        for _ in range(40):
            w = tuple(int(g) for g in rng.integers(0, alg.ngen(), k))
            got = NcPoly(alg.word_normal_form(w))
            want = _pending_normal_form(NcPoly.word(w), alg)
            assert got.terms.keys() == want.terms.keys()
            assert got.sub(want).norm1() <= CONFLUENCE_TOL * max(1.0, want.norm1())


def test_long_words_normalize_without_recursion():
    # y^k x^k takes k^2 rewrites in one chain; at q = 2 each one halves, and
    # a coefficient below the smallest subnormal raises
    alg = make_azema(2.0)[0].algebra
    for k in range(40, -1, -1):
        w = (Y,) * k + (X,) * k
        c = 2.0 ** (-k * k)
        if c:
            assert alg.word_normal_form(w) == {(X,) * k + (Y,) * k: c}
        else:
            with pytest.raises(InvalidParameter, match="underflows"):
                alg.word_normal_form(w)
    alg = make_azema(1.0)[0].algebra
    got = normal_form(NcPoly.word((Y,) * 40 + (XS,) * 40 + (X,) * 40), alg)
    assert got.terms == {(XS,) * 40 + (X,) * 40 + (Y,) * 40: 1.0}
    assert alg.word_normal_form((Y,) + (X,) * 2000) == {(X,) * 2000 + (Y,): 1.0}


def test_underflow_raises_naming_the_word_and_a_cancellation_drops():
    # y x^k -> 2^-k x^k y at q = 2: 2^-1000 is kept, 2^-1100 is below the
    # smallest subnormal, so a product of nonzero coefficients came out 0
    alg = make_azema(2.0)[0].algebra
    assert alg.word_normal_form((Y,) + (X,) * 1000) == {(X,) * 1000 + (Y,): 2.0 ** -1000}
    w = (Y,) + (X,) * 1100
    with pytest.raises(InvalidParameter, match=r"azema\(q=2\): normal form of 'y x x [x ]*x' underflows"):
        alg.word_normal_form(w)
    assert w not in alg._nf
    # c -> a + b and b a -> -a a: c a rewrites to a a - a a, an exact 0
    A, _B, C = 0, 1, 2
    alphabet = [GeneratorSymbol(n, i) for i, n in enumerate("abc")]
    rules = [RewriteRule((C,), NcPoly({(A,): 1.0, (_B,): 1.0})),
             RewriteRule((_B, A), NcPoly.word((A, A), -1.0))]
    assert AlgebraSpec(alphabet, rules, name="cancel").word_normal_form((C, A)) == {}
    # a rule a a -> 0 stores the empty normal form
    nil = AlgebraSpec(alphabet[:1], [RewriteRule((A, A), NcPoly())], name="nil")
    assert nil.word_normal_form((A, A, A)) == {} and nil.word_normal_form((A,)) == {(A,): 1.0}


def test_normal_form_of_a_polynomial_refuses_an_underflowing_term():
    # y x -> x y / 2 at q = 2: 5e-324 / 2 rounds to 0, which dropped the term
    alg = make_azema(2.0)[0].algebra
    assert alg.word_normal_form((Y, X)) == {(X, Y): 0.5}
    with pytest.raises(InvalidParameter, match=r"azema\(q=2\): the term 5e-324 'y x' underflows"):
        normal_form(NcPoly({(Y, X): 5e-324}), alg)
    with pytest.raises(InvalidParameter, match="'y x' underflows"):
        multiply(NcPoly.word((Y,), 5e-324), NcPoly.word((X,)), alg)
    assert normal_form(NcPoly({(Y, X): 1e-323}), alg).terms == {(X, Y): 5e-324}


def test_multiply_refuses_a_coefficient_product_that_underflows():
    # 1e-200 * 1e-200 rounds to 0, which dropped the word x x; 1e-320 is kept
    alg = make_azema(2.0)[0].algebra
    with pytest.raises(InvalidParameter,
                       match=r"azema\(q=2\): the term 1e-200 \* 1e-200 'x x' underflows"):
        multiply(NcPoly.word((X,), 1e-200), NcPoly.word((X,), 1e-200), alg)
    got = multiply(NcPoly.word((X,), 1e-160), NcPoly.word((X,), 1e-160), alg)
    assert got.terms == {(X, X): 1e-160 * 1e-160} and 0.0 < got.terms[X, X] < 1e-300


def test_rewrite_budget_leaves_no_memo_entry(monkeypatch):
    alg = make_azema(2.0)[0].algebra
    w = (Y, Y, Y, X, X, X)       # nine rule applications
    monkeypatch.setattr(qlevy.ncpoly, "REWRITE_BUDGET", 5)
    with pytest.raises(RewriteBudgetExceeded, match=r"algebra 'azema\(q=2\)'"):
        normal_form(NcPoly.word(w), alg)
    assert w not in alg._nf
    monkeypatch.setattr(qlevy.ncpoly, "REWRITE_BUDGET", 9)
    assert normal_form(NcPoly.word(w), alg).terms == {(X, X, X, Y, Y, Y): 2.0 ** -9}
    assert w in alg._nf


def test_check_confluent_reports_pairs_and_gap():
    rep = check_confluent(make_azema(2.0)[0].algebra)
    assert rep == {"critical_pairs": 0, "worst_gap": 0.0}
    rep = check_confluent(make_unitary_bialgebra(2).algebra)
    assert rep["critical_pairs"] == 8
    assert 0.0 <= rep["worst_gap"] <= 1e-15


def test_check_confluent_rejects_an_overlap():
    # ab -> c and bc -> a overlap on abc, which rewrites to cc and to aa
    alphabet = [GeneratorSymbol(n, i) for i, n in enumerate("abc")]
    rules = [RewriteRule((0, 1), NcPoly.word((2,))), RewriteRule((1, 2), NcPoly.word((0,)))]
    alg = AlgebraSpec(alphabet, rules, name="overlap")
    with pytest.raises(InvalidParameter, match="'a b c'"):
        check_confluent(alg)


@pytest.mark.parametrize("alphabet, rules, order, match", [
    ([GeneratorSymbol("a", 0), GeneratorSymbol("a", 1)], [], None, "unique"),
    ([GeneratorSymbol("a", 1), GeneratorSymbol("b", 0)], [], [0, 0], "permutation"),
    ([GeneratorSymbol("a", 1), GeneratorSymbol("b", 1)], [], None, "involution"),
    ([GeneratorSymbol("a", 0), GeneratorSymbol("b", 1)],
     [RewriteRule((0,), NcPoly.word((1,)))], None, "'b' not below lhs 'a'"),
], ids=["names", "letter_order", "adjoint", "rule"])
def test_malformed_algebra_spec_raises_invalid_parameter(alphabet, rules, order, match):
    with pytest.raises(InvalidParameter, match=match):
        AlgebraSpec(alphabet, rules, letter_order=order)


def test_nan_coefficient_is_kept():
    # only a coefficient equal to 0 is dropped; NaN is not 0
    p = NcPoly({(X,): float("nan"), (Y,): 0.0, (): 0j})
    assert list(p.terms) == [(X,)] and np.isnan(p.terms[(X,)])
