"""Coalgebra layer: coproducts, counits, Sweedler expansions, convolution.

A BialgebraSpec stores the coproduct and counit on generators only; both are
extended to arbitrary polynomials as *-algebra homomorphisms.  For callers
that need the legs, iterated_coproduct expands D_n = (D_a (x) D_{n-a}) o D
on either carrier by halving n; coproduct is its n = 2 case.  An element
of B (x) B is a dict (left word, right word) -> coeff: delta_on_gen holds one
per generator, and key_delta(w) multiplies them leg by leg on the normal
forms of words memoized on its AlgebraSpec (ncpoly).  Every memo table
derived from a BialgebraSpec (coproducts of words, subcoalgebras) is held by
the spec itself and freed with it.  Every coefficient map here, like NcPoly,
drops a coefficient only when it equals 0.

Convolution products never expand D_n: transfer_apply(f, terms, B) applies
the transfer map T_f = (id (x) f) o D to an element, and convolve_eval
evaluates (f_1 * ... * f_n)(p) = f_1(T_{f_2} ... T_{f_n} p), one transfer
image per factor, reading only key_delta of the carrier.

certify_bialgebra proves the *-bialgebra axioms of a spec exactly, in
order: its rewriting system is confluent, Delta, the counit and the
involution respect every rule, and the coalgebra and involution laws hold
on every generator, which the homomorphic extension carries to the whole
algebra; its residuals are the axioms experiment.

A BialgebraSpec is one of the two carriers a Morphism maps between (the other
is constructions.GroupLikeBialgebra).  Both answer one protocol: elements are
NcPoly over the carrier's basis keys (here normal-form words); at key level
key_delta, key_counit and key_order (the sort key that keeps subcoalgebra
bases deterministic); at element level one, mul, star, counit and
random_element.  iterated_coproduct and transfer_apply read key_delta only.
"""

from __future__ import annotations

import cmath
import math
import numbers
import weakref

from .errors import InvalidParameter, TermBudgetExceeded
from .ncpoly import NcPoly, check_confluent, involute, multiply, random_poly

TERM_BUDGET = 10 ** 6


class BialgebraSpec:
    """Generators, coproduct/counit on generators, homomorphic extension."""

    def __init__(self, algebra, delta_on_gen, counit_on_gen, name=""):
        self.algebra = algebra
        # exact zeros dropped, a NaN kept for the certificate to read as inf
        self.delta_on_gen = {g: {k: c for k, c in d.items() if c != 0.0}
                             for g, d in delta_on_gen.items()}
        self.counit_on_gen = {g: complex(v) for g, v in counit_on_gen.items()}
        self.name = name
        for what, given in (("coproduct", self.delta_on_gen), ("counit", self.counit_on_gen)):
            missing = set(range(algebra.ngen())) - set(given)
            if missing:
                names = [algebra.alphabet[g].name for g in sorted(missing)]
                raise InvalidParameter(f"no {what} for generators {names}")
        # key_delta and every subcoalgebra take the legs for basis keys
        nf = algebra.word_normal_form
        for g, d in self.delta_on_gen.items():
            for w in {w for legs in d for w in legs}:
                if w not in nf(w):
                    raise InvalidParameter(
                        f"coproduct of {algebra.spell((g,))!r} has the leg "
                        f"{algebra.spell(w)!r}, which is not a normal word")
        # word -> Delta(word), and frozenset of words -> their coideal of left
        # legs (subcoalg.Subcoalgebra): one entry per word or word set reached,
        # freed with this bialgebra; functional -> frozenset of words -> that
        # coideal filtered by the functional, freed with either
        self._delta_word = {(): {((), ()): 1.0}}
        self._subs = {}
        self._filtered = weakref.WeakKeyDictionary()

    # -- carrier protocol (shared with the group-like carrier) --------------

    def key_delta(self, w):
        """Delta(w) of a normal word as legs -> coeff, memoized from its longest
        memoized prefix up, one letter at a time; not to be mutated."""
        memo = self._delta_word
        got = memo.get(w)
        if got is None:
            k = len(w) - 1
            while w[:k] not in memo:
                k -= 1
            got = memo[w[:k]]
            for i in range(k, len(w)):
                got = memo[w[:i + 1]] = _tensor_mul(got, self.delta_on_gen[w[i]], self.algebra)
        return got

    def key_counit(self, w):
        z = complex(1.0)
        for g in w:
            z *= self.counit_on_gen[g]
        return z

    def key_order(self, w):
        return self.algebra._deglex_key(w)

    def one(self):
        return NcPoly.one()

    def mul(self, a, b):
        return multiply(a, b, self.algebra)

    def star(self, a):
        return involute(a, self.algebra)

    def random_element(self, rng, degree):
        return random_poly(self.algebra, rng, degree)

    # ----------------------------------------------------------------------

    def coproduct(self, p):
        return iterated_coproduct(p, 2, self)

    def counit(self, p):
        return sum((c * self.key_counit(w) for w, c in p.terms.items()), complex(0.0))


def _tensor_mul(s, t, alg):
    # (a (x) b)(c (x) d) = ac (x) bd over legs -> coeff maps, each leg re-normalized
    nf = alg.word_normal_form
    out = {}
    for (a, b), c1 in s.items():
        for (u, v), c2 in t.items():
            right = nf(b + v)
            z = c1 * c2
            for wl, cl in nf(a + u).items():
                for wr, cr in right.items():
                    k = (wl, wr)
                    out[k] = out.get(k, 0.0) + z * cl * cr
    return {k: c for k, c in out.items() if c != 0.0}


def _tensor_star(s, alg):
    # (a (x) b)* = a* (x) b* extended antilinearly over a legs -> coeff map
    nf = alg.word_normal_form
    starred = {}

    def leg(w):
        # normal form of the reversed, letter-starred word
        hit = starred.get(w)
        if hit is None:
            hit = starred[w] = nf(tuple(alg.adjoint_of(g) for g in reversed(w))).items()
        return hit

    out = {}
    for (a, b), c in s.items():
        right = leg(b)
        z = complex(c).conjugate()
        for wl, cl in leg(a):
            for wr, cr in right:
                k = (wl, wr)
                out[k] = out.get(k, 0.0) + z * cl * cr
    return {k: c for k, c in out.items() if c != 0.0}


def complete_by_involution(algebra, delta_on_gen, counit_on_gen):
    """Fill Delta/counit for starred generators from the *-homomorphism law."""
    dg = dict(delta_on_gen)
    cg = dict(counit_on_gen)
    for i, g in enumerate(algebra.alphabet):
        j = g.adjoint
        if j not in dg and i in dg:
            dg[j] = _tensor_star(dg[i], algebra)
        if j not in cg and i in cg:
            cg[j] = complex(cg[i]).conjugate()
    return dg, cg


class LinearFunctional:
    """Linear functional given by its values on normal-form basis keys."""

    def __init__(self, name, on_key):
        self.name = name
        self._fn = on_key
        self._memo = {}

    def on_word(self, key):
        got = self._memo.get(key)
        if got is None:
            got = complex(self._fn(key))
            self._memo[key] = got
        return got

    def __call__(self, p):
        return sum((c * self.on_word(w) for w, c in p.terms.items()), complex(0.0))


def iterated_coproduct(p, n, B):
    """Delta_n(p) as legs -> coeff, legs an n-tuple of keys of the carrier B.

    Delta_n(w) = sum Delta_a(w1) (x) Delta_{n-a}(w2) over the legs (w1, w2, z) of
    key_delta(w), a = n // 2 (valid by coassociativity), each (key, arity)
    expanded once per call; TERM_BUDGET bounds each block before it is built."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise InvalidParameter(f"arity must be an integer >= 1, got {n!r}")
    memo, out = {}, {}
    for w, c in p.terms.items():
        _add_products(out, c, {(): 1.0}, _iterated_key(w, n, B, memo), n)
    return {k: c for k, c in out.items() if c != 0.0}


def _iterated_key(key, n, B, memo):
    # module level, as a self-calling closure would hold B in a cycle; key_delta is only read
    if n <= 2:
        return {(key,): 1.0} if n == 1 else B.key_delta(key)
    got = memo.get((key, n))
    if got is None:
        out = {}
        for (u, v), z in B.key_delta(key).items():
            _add_products(out, z, _iterated_key(u, n // 2, B, memo),
                          _iterated_key(v, n - n // 2, B, memo), n)
        got = memo[key, n] = {k: c for k, c in out.items() if c != 0.0}
    return got


def _add_products(out, z, left, right, n):
    # out += z left (x) right, legs concatenated; refused before it is built
    size = len(out) + len(left) * len(right)
    if size > TERM_BUDGET:
        raise TermBudgetExceeded(f"arity {n}: Delta_n would reach {size} terms > {TERM_BUDGET}")
    for lk, lz in left.items():
        for rk, rz in right.items():
            k = lk + rk
            out[k] = out.get(k, 0.0) + z * lz * rz


def transfer_apply(f, terms, B):
    """(id (x) f) Delta on an element of the carrier B given as key -> coeff.

    Returns the key -> coeff map of sum c z f(b) a over the legs (a, b, z) of
    key_delta(w) for each term (w, c); legs with f(b) == 0 are skipped and
    exact zeros dropped.
    """
    out = {}
    for w, c in terms.items():
        for (a, b), z in B.key_delta(w).items():
            fb = f.on_word(b)
            if fb != 0.0:
                out[a] = out.get(a, 0.0) + c * z * fb
        if len(out) > TERM_BUDGET:
            raise TermBudgetExceeded(
                f"(id (x) {f.name}) Delta image has more than {TERM_BUDGET} terms")
    return {k: c for k, c in out.items() if c != 0.0}


def convolve_eval(fs, p, B):
    """(f_1 * ... * f_n)(p) = f_1(T_{f_2} ... T_{f_n} p), T_f = (id (x) f) Delta.

    The factors are applied right to left, one transfer image per factor:
    the sum over the legs of Delta_n(p), factored like Horner's rule, so no
    Sweedler expansion is built or memoized.
    """
    if not fs:
        raise InvalidParameter("need at least one functional")
    v = p.terms
    for k in range(len(fs) - 1, 0, -1):
        try:
            v = transfer_apply(fs[k], v, B)
        except TermBudgetExceeded as err:
            raise TermBudgetExceeded(f"convolution factor {k + 1} of {len(fs)}: {err}") from None
    f = fs[0]
    return sum((c * f.on_word(w) for w, c in v.items()), complex(0.0))


def _gap(a, b):
    # largest |a - b| over two key -> coeff maps, relative to the largest
    # coefficient of either (at least 1); inf where a coefficient is not
    # finite, since max() would pass over a NaN
    diff = dict(a)
    for k, c in b.items():
        diff[k] = diff.get(k, 0.0) - c
    if not all(cmath.isfinite(c) for c in diff.values()):
        return math.inf
    top = max([1.0] + [abs(c) for c in a.values()] + [abs(c) for c in b.values()])
    return max((abs(c) for c in diff.values()), default=0.0) / top


def certify_bialgebra(B):
    """Residuals of the *-bialgebra axioms of B, computed on its rules and generators.

    B is presented by generators and rewrite rules, with Delta and the counit
    given on generators and extended as homomorphisms of the free algebra.
    The argument has three steps, and each holds only once the ones before
    it pass:

    1. Confluence.  check_confluent(B.algebra) raises InvalidParameter,
       naming the ambiguous word, before any residual is computed.  Once it
       passes, normal words are a basis (Bergman's diamond lemma), so B is
       the free algebra modulo the ideal I generated by the rules lhs - rhs.
    2. Rules.  A map defined on the free algebra passes to B iff it respects
       every rule: `rule_delta` compares Delta(lhs) with Delta(rhs) in
       B (x) B, `rule_counit` their counits, and `rule_star` the normal forms
       of lhs* and rhs* (so I* = I and the involution is defined on B).
    3. Generators.  (Delta (x) id)Delta and (id (x) Delta)Delta are algebra
       maps, as are (eps (x) id)Delta, (id (x) eps)Delta and id; Delta o *
       and (* (x) *) o Delta are antilinear anti-homomorphisms, as are
       eps o * and conj o eps.  Two such maps agree on B once they agree on
       its generators, so each generator g is checked for
       `coassociativity`, `counit_law` (both sides),
       `involution_compatibility` (Delta(g*) against Delta(g)*) and
       `counit_star` (eps(g*) against conj eps(g)).  These checks mean
       nothing while a rule check fails.

    Each residual is the largest coefficient gap between the two sides,
    relative to their largest coefficient (at least 1), so exact arithmetic
    reads 0.0.  Returns `residuals` (check -> residual), their
    `max_residual`, the `confluence` report, and `where`: for each nonzero
    residual, the rule (its lhs, spelled) or generator at which it is
    largest.
    """
    alg = B.algebra
    confluence = check_confluent(alg)
    residuals = {"rule_delta": 0.0, "rule_counit": 0.0, "rule_star": 0.0,
                 "coassociativity": 0.0, "counit_law": 0.0,
                 "involution_compatibility": 0.0, "counit_star": 0.0}
    where = {}

    def note(check, r, at):
        if r > residuals[check]:
            residuals[check] = r
            where[check] = at

    for rule in alg.rules:
        at = f"rule {alg.spell(rule.lhs)!r}"
        lhs = NcPoly({rule.lhs: 1.0})
        note("rule_delta", _gap(B.coproduct(lhs), B.coproduct(rule.rhs)), at)
        note("rule_counit", _gap({(): B.counit(lhs)}, {(): B.counit(rule.rhs)}), at)
        note("rule_star", _gap(involute(lhs, alg).terms, involute(rule.rhs, alg).terms), at)

    for g in range(alg.ngen()):
        at = f"generator {alg.spell((g,))!r}"
        dg = B.key_delta((g,))
        left, eps_left, eps_right = {}, {}, {}
        for (a, b), z in dg.items():
            for (u, v), z2 in B.key_delta(a).items():
                left[u, v, b] = left.get((u, v, b), 0.0) + z * z2
            eps_left[b] = eps_left.get(b, 0.0) + z * B.key_counit(a)
            eps_right[a] = eps_right.get(a, 0.0) + z * B.key_counit(b)
        right = iterated_coproduct(NcPoly.word((g,)), 3, B)     # (id (x) Delta) Delta
        note("coassociativity", _gap(left, right), at)
        word = alg.word_normal_form((g,))
        note("counit_law", max(_gap(eps_left, word), _gap(eps_right, word)), at)
        gs = (alg.adjoint_of(g),)
        note("involution_compatibility",
             _gap(B.key_delta(gs), _tensor_star(dg, alg)), at)
        note("counit_star",
             _gap({(): B.key_counit(gs)}, {(): B.key_counit((g,)).conjugate()}), at)

    return {"residuals": residuals, "max_residual": max(residuals.values()),
            "confluence": confluence, "where": where}

