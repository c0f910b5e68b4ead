"""Free *-algebra over a finite alphabet with terminating rewriting to normal form.

Words are tuples of generator indices; polynomials are sparse mappings
word -> complex coefficient.  Rewrite rules orient *-ideal relations so that
every right-hand-side word is strictly smaller in degree-lexicographic order,
which guarantees termination.

An AlgebraSpec owns one memo table, word -> the terms of its normal form
with coefficient 1, filled on demand by left multiplication and freed with
the spec.  Confluent rules give one normal form whatever the rewrite order,
so this route is sound for them, and check_confluent is sound under any
order; rules not certified confluent may normalize differently from
leftmost-first rewriting.  A coefficient is dropped only when a sum cancels
exactly; a word whose normal form underflows or overflows raises.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

from .errors import (
    InvalidParameter,
    ParseError,
    RewriteBudgetExceeded,
    UnknownGenerator,
)

CONFLUENCE_TOL = 1e-12   # relative: gap allowed between two normal forms of one word
REWRITE_BUDGET = 10 ** 6

Word = tuple  # tuple of generator indices; () is the unit


@dataclass(frozen=True)
class GeneratorSymbol:
    name: str
    adjoint: int  # index of the adjoint generator (self for self-adjoint)


class NcPoly:
    """Sparse noncommutative polynomial: finite mapping Word -> complex."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        self.terms = {w: c for w, c in terms.items() if c != 0.0} if terms else {}
        self._hash = None

    @classmethod
    def one(cls):
        return cls({(): 1.0})

    @classmethod
    def word(cls, w, coeff=1.0):
        return cls({tuple(w): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, NcPoly) and self.terms == other.terms

    def __hash__(self):
        # by value, as __eq__; computed once, since no code changes .terms
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def scale(self, z):
        return NcPoly({w: z * c for w, c in self.terms.items()})

    def add(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return NcPoly(out)

    def sub(self, other):
        return self.add(other.scale(-1.0))

    def norm1(self):
        return sum(abs(c) for c in self.terms.values())

    def __repr__(self):
        return f"NcPoly({self.terms!r})"

    def pretty(self, alg):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = complex(self.terms[w])
            mono = alg.spell(w) or "1"
            bits.append(f"({c.real:+g}{c.imag:+g}i)*{mono}")
        return " + ".join(bits)


@dataclass(frozen=True)
class RewriteRule:
    lhs: Word
    rhs: NcPoly


class AlgebraSpec:
    """Alphabet, involution pairing, and an oriented terminating rule set."""

    def __init__(self, alphabet, rules, letter_order=None, name=""):
        self.alphabet = list(alphabet)
        self.rules = list(rules)
        self.name = name
        n = len(self.alphabet)
        self.letter_order = list(letter_order) if letter_order is not None else list(range(n))
        if sorted(self.letter_order) != list(range(n)):
            raise InvalidParameter("letter_order must be a permutation of generator indices")
        self._rank = {g: r for r, g in enumerate(self.letter_order)}
        names = [g.name for g in self.alphabet]
        if len(set(names)) != len(names):
            raise InvalidParameter("generator names must be unique")
        self._by_name = {g.name: i for i, g in enumerate(self.alphabet)}
        for i, g in enumerate(self.alphabet):
            if self.alphabet[g.adjoint].adjoint != i:
                raise InvalidParameter("adjoint pairing is not an involution")
        for rule in self.rules:
            for w in rule.rhs.terms:
                if not self._deglex_less(w, rule.lhs):
                    raise InvalidParameter(
                        f"rule rhs word {self.spell(w)!r} not below lhs "
                        f"{self.spell(rule.lhs)!r} in deg-lex order")
        # word -> {normal word: coeff}, coefficient-1 input: one entry per word
        # asked for, suffix folded or letter times a normal word; freed with this algebra
        self._nf = {(): {(): 1.0}}

    def spell(self, w):
        """The word w as its generator names, space-separated."""
        return " ".join(self.alphabet[g].name for g in w)

    def _deglex_key(self, w):
        return (len(w), tuple(self._rank[g] for g in w))

    def _deglex_less(self, a, b):
        return self._deglex_key(a) < self._deglex_key(b)

    def index(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {name!r}") from None

    def adjoint_of(self, idx):
        return self.alphabet[idx].adjoint

    def ngen(self):
        return len(self.alphabet)

    def word_normal_form(self, w):
        """Normal form of the word w as a shared dict normal word -> coeff.

        By left multiplication: a miss takes the longest suffix of w in the
        memo and folds the other letters onto it, right to left.  A letter
        times a normal word has a redex only at its front, and each such
        product goes into the same memo, so words that share a suffix share
        their work.  This is the unique normal form for confluent rules
        (check_confluent); rules not certified confluent may normalize
        differently from leftmost-first rewriting.  An explicit stack
        replaces recursion.  Each rule application counts against
        REWRITE_BUDGET; a word whose rewrite hits it, or whose normal form
        overflows or underflows, is not stored.  Callers must not mutate
        the returned dict.
        """
        memo = self._nf
        got = memo.get(w)
        if got is not None:
            return got
        budget = REWRITE_BUDGET
        # a frame (v, i) folds v[:j] onto v[j:], the longest suffix of v[i:] in the memo
        stack = [(w, 0)]
        while stack:
            v, i = stack.pop()
            while v[i:] not in memo:
                i += 1
            while i:
                t, u = v[i - 1:], v[i:]
                rule, parts = None, ()
                if t not in memo:
                    if u not in memo[u]:    # the letter times each word of nf(u)
                        parts = [(t[:1] + x, c) for x, c in memo[u].items()]
                    else:                   # u is normal, so a redex of t lies at its front
                        for rule in self.rules:
                            if t[:len(rule.lhs)] == rule.lhs:
                                rest = t[len(rule.lhs):]
                                parts = [(rw + rest, rc) for rw, rc in rule.rhs.terms.items()]
                                break
                        else:
                            memo[t] = {t: 1.0}
                missing = [(x, 0) for x, _ in parts if x not in memo]
                if missing:
                    stack.append((v, i))
                    stack.extend(missing)
                    break
                if t not in memo:
                    budget -= rule is not None
                    if budget < 0:
                        raise RewriteBudgetExceeded(f"more than {REWRITE_BUDGET} rule "
                                                    f"applications in algebra {self.name!r}")
                    out = {}
                    for x, c in parts:
                        for y, z in memo[x].items():
                            cz = c * z
                            if not cz:
                                raise InvalidParameter(
                                    f"{self.name}: normal form of {self.spell(w)!r} underflows")
                            out[y] = out.get(y, 0.0) + cz
                    nf = {y: c for y, c in out.items() if c != 0.0}
                    if not all(map(cmath.isfinite, nf.values())):
                        raise InvalidParameter(
                            f"{self.name}: normal form of {self.spell(w)!r} overflows")
                    memo[t] = nf
                i -= 1
        return memo[w]


def normal_form(p, alg):
    """Normal form of p, the coefficient-weighted sum of the memo entries of
    its words (word_normal_form, by left multiplication), unique when the
    rules are confluent; exact zeros are dropped, and an underflow raises."""
    nf = alg.word_normal_form
    out = {}
    for w, c in p.terms.items():
        for x, z in nf(w).items():
            cz = c * z
            if not cz:
                raise InvalidParameter(f"{alg.name}: the term {c} {alg.spell(w)!r} underflows")
            out[x] = out.get(x, 0.0) + cz
    return NcPoly(out)


def critical_pairs(alg):
    """(word, one rewrite, another) for each overlap or inclusion of two lhs.

    An overlap is a proper suffix of l1 that is a proper prefix of l2 (word
    l1 + rest of l2); an inclusion is l2 inside another rule's l1 (word l1).
    """
    def splice(prefix, p, suffix):
        return NcPoly({prefix + w + suffix: c for w, c in p.terms.items()})

    for i, r1 in enumerate(alg.rules):
        l1 = r1.lhs
        for j, r2 in enumerate(alg.rules):
            l2 = r2.lhs
            if i != j:
                for pos in range(len(l1) - len(l2) + 1):
                    if l1[pos:pos + len(l2)] == l2:
                        yield l1, r1.rhs, splice(l1[:pos], r2.rhs, l1[pos + len(l2):])
            for k in range(1, min(len(l1), len(l2))):
                if l1[-k:] == l2[:k]:
                    yield l1 + l2[k:], splice((), r1.rhs, l2[k:]), splice(l1[:-k], r2.rhs, ())


def check_confluent(alg):
    """Raise InvalidParameter unless each critical pair has one normal form.

    Terminating rules that pass are confluent (Newman's lemma), so their
    normal words form a basis (Bergman's diamond lemma).  Returns the number
    of critical pairs and the largest relative gap between the two normal
    forms of one pair.
    """
    n_pairs = 0
    worst = 0.0
    for w, a, b in critical_pairs(alg):
        na, nb = normal_form(a, alg), normal_form(b, alg)
        gap = na.sub(nb).norm1() / max(1.0, na.norm1(), nb.norm1())
        if gap > CONFLUENCE_TOL:
            raise InvalidParameter(
                f"rewriting system {alg.name!r} is not confluent: {alg.spell(w)!r} has "
                f"normal forms {na.pretty(alg)} and {nb.pretty(alg)}")
        n_pairs += 1
        worst = max(worst, gap)
    return {"critical_pairs": n_pairs, "worst_gap": worst}


def multiply(p, q, alg):
    """Normal form of the concatenation-bilinear product; a product of two
    coefficients that underflows to 0 raises."""
    out = {}
    for wp, cp in p.terms.items():
        for wq, cq in q.terms.items():
            w = wp + wq
            c = cp * cq
            if not c:
                raise InvalidParameter(
                    f"{alg.name}: the term {cp} * {cq} {alg.spell(w)!r} underflows")
            out[w] = out.get(w, 0.0) + c
    return normal_form(NcPoly(out), alg)


def involute(p, alg):
    """(c w)* = conj(c) * reversed, letter-starred word, re-normalized."""
    out = {}
    for w, c in p.terms.items():
        sw = tuple(alg.adjoint_of(g) for g in reversed(w))
        out[sw] = out.get(sw, 0.0) + complex(c).conjugate()
    return normal_form(NcPoly(out), alg)


def random_poly(alg, rng, max_degree, n_terms=4, normal=True):
    """Random element with complex coefficients, used by the samplers."""
    terms = {}
    for _ in range(n_terms):
        k = int(rng.integers(0, max_degree + 1))
        w = tuple(int(rng.integers(0, alg.ngen())) for _ in range(k))
        terms[w] = terms.get(w, 0.0) + complex(rng.normal(), rng.normal())
    p = NcPoly(terms)
    return normal_form(p, alg) if normal else p


# ---------------------------------------------------------------------------
# expression parser: one pass, one reader per token kind
#
# poly   := sign? term (('+'|'-') term)*
# term   := scalar factor* | factor+
# factor := ident ('^*')? ('^' uint)?
# scalar := real | '(' sign? real ('+'|'-') real 'i' ')'
# ---------------------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_REAL = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_SPACE = re.compile(r"\s*")


def _space(text, pos):
    # a match would clamp a pos past the end of the text (_sign) back to it
    return _SPACE.match(text, pos).end() if pos < len(text) else pos


def _sign(text, pos):
    """(-1.0 or 1.0, end) of an optional sign; the end of the text reads as
    '+' and is stepped over, so "(1" reports expected number at offset 3."""
    c = text[pos:pos + 1]
    return (-1.0 if c == "-" else 1.0), pos + (c in "+-")


def _real(text, pos):
    """(value, end) of the unsigned real at pos.  A literal that overflows
    is refused, as its inf would make a coefficient NaN, and so is one with
    a nonzero digit that underflows, as its term would silently vanish."""
    m = _REAL.match(text, pos)
    if not m:
        raise ParseError("expected number", pos)
    literal = m.group()
    x = float(literal)
    if not cmath.isfinite(x):
        raise ParseError(f"number {literal!r} is not finite", pos)
    if x == 0.0 and literal.lower().partition("e")[0].strip("0."):
        raise ParseError(f"number {literal!r} underflows to 0", pos)
    return x, m.end()


def _scalar(text, pos):
    """(value, end) of the real or complex literal at pos."""
    if text[pos] != "(":
        x, pos = _real(text, pos)
        return complex(x), pos
    sign, pos = _sign(text, _space(text, pos + 1))
    re_part, pos = _real(text, pos)
    pos = _space(text, pos)
    if text[pos:pos + 1] not in "+-":
        raise ParseError("expected '+' or '-' in complex literal", pos)
    im_sign, pos = _sign(text, pos)
    im_part, pos = _real(text, _space(text, pos))
    if not text.startswith("i", pos):
        raise ParseError("expected 'i' in complex literal", pos)
    pos = _space(text, pos + 1)
    if not text.startswith(")", pos):
        raise ParseError("expected ')'", pos)
    return complex(sign * re_part, im_sign * im_part), pos + 1


def _factor(text, pos, alg):
    """(word, end) of name, name^*, name^k or name^*^k at pos."""
    m = _IDENT.match(text, pos)
    if not m:
        raise ParseError("expected generator name", pos)
    idx, pos = alg.index(m.group()), m.end()
    star = text.startswith("^*", pos)
    if star:
        idx, pos = alg.adjoint_of(idx), pos + 2
    if not text.startswith("^", pos):
        return (idx,), pos
    m = _REAL.match(text, pos + 1)
    if m and m.group().isdigit():
        return (idx,) * int(m.group()), m.end()
    if star:
        raise ParseError("expected integer exponent", pos + 1)
    raise ParseError("expected '*' or integer exponent after '^'", pos)


def parse_poly(text, alg):
    """Parse an expression over alg's alphabet and return its normal form.
    ParseError gives the offset of the first token that does not fit, a
    literal that overflows or underflows included; UnknownGenerator names an
    unknown name, and InvalidParameter a coefficient that finite literals
    combine to a non-finite one."""
    pos = _space(text, 0)
    if pos == len(text):
        raise ParseError("empty expression", pos)
    terms = {}
    while True:
        sign, pos = _sign(text, pos)
        pos = _space(text, pos)
        coeff, word = complex(1.0), ()
        if text[pos:pos + 1] == "(" or text[pos:pos + 1].isdigit():
            coeff, pos = _scalar(text, pos)
        else:
            word, pos = _factor(text, pos, alg)
        # a term runs to the next sign or the end of the text
        while (pos := _space(text, pos)) < len(text) and text[pos] not in "+-":
            more, pos = _factor(text, pos, alg)
            word += more
        terms[word] = terms.get(word, 0.0) + sign * coeff
        if pos == len(text):
            p = normal_form(NcPoly(terms), alg)
            for w, c in p.terms.items():
                if not cmath.isfinite(c):
                    raise InvalidParameter(
                        f"{alg.name}: the coefficient of {alg.spell(w)!r} overflows")
            return p
