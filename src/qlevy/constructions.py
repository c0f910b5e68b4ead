"""Model bialgebras and the counit-preserving maps between them.

Shipped structures: the Azema bialgebra for parameter q (plus the companion
structure with x, x* primitive and y group-like), the unitary-matrix
bialgebra U<d>, the truncated counit-kernel basis of normal words, and the
group-like carrier spanned by counit-one elements.

A Morphism maps between two carriers that answer one protocol, so it never
asks which carrier it holds: a BialgebraSpec (keys are normal-form words) or
a GroupLikeBialgebra (each key is the counit-one NcPoly b of its base that
the basis element hat(b) stands for).  Elements of either carrier are NcPoly
over its keys; bialg.iterated_coproduct expands either from key_delta.  A
Morphism is given by the image of each key: kappa (hat(b) -> b) maps each
key to itself, and kappa-tilde is a linear-section Morphism whose key map
lifts one word of B into the group-like carrier.
"""

from __future__ import annotations

import functools
import math

from .bialg import (
    BialgebraSpec,
    LinearFunctional,
    complete_by_involution,
)
from .errors import DegreeCapExceeded, InvalidParameter
from .ncpoly import (
    AlgebraSpec,
    GeneratorSymbol,
    NcPoly,
    RewriteRule,
)

COUNIT_TOL = 1e-10    # absolute: largest |counit - 1| of a group-like key


# ---------------------------------------------------------------------------
# Azema
# ---------------------------------------------------------------------------

def make_azema(q):
    """Azema *-bialgebra for parameter q plus the primitive companion and psi.

    Carrier algebra: C<x, x*, y> / (xy - q yx), oriented with y-letters kept
    rightmost (yx -> q^-1 xy, yx* -> q x*y), so functionals given on
    monomials M(x, x*) y^k read off directly.
    """
    q = float(q)
    if not math.isfinite(q):
        raise InvalidParameter(f"q must be finite, got {q}")
    if q == 0.0 or not math.isfinite(1.0 / q):
        raise InvalidParameter(f"q = {q:g} degenerates the rule yx -> q^-1 xy: q^-1 is not finite")
    X, XS, Y = 0, 1, 2
    alphabet = [GeneratorSymbol("x", XS), GeneratorSymbol("x*", X), GeneratorSymbol("y", Y)]
    rules = [
        RewriteRule((Y, X), NcPoly({(X, Y): 1.0 / q})),
        RewriteRule((Y, XS), NcPoly({(XS, Y): q})),
    ]
    alg = AlgebraSpec(alphabet, rules, name=f"azema(q={q:g})")

    azema_delta = {
        X: {((X,), (Y,)): 1.0, ((), (X,)): 1.0},
        Y: {((Y,), (Y,)): 1.0},
    }
    azema_counit = {X: 0.0, Y: 1.0}
    azema_delta, azema_counit = complete_by_involution(alg, azema_delta, azema_counit)
    azema = BialgebraSpec(alg, azema_delta, azema_counit, name=f"azema(q={q:g})")

    prim_delta = {
        X: {((X,), ()): 1.0, ((), (X,)): 1.0},
        Y: {((Y,), (Y,)): 1.0},
    }
    prim_counit = {X: 0.0, Y: 1.0}
    prim_delta, prim_counit = complete_by_involution(alg, prim_delta, prim_counit)
    primitive = BialgebraSpec(alg, prim_delta, prim_counit,
                              name=f"azema-primitive(q={q:g})")

    def psi_word(w):
        # normal form is M(x, x*) y^k; psi is 1 exactly when M = x x*
        k = len(w)
        while k > 0 and w[k - 1] == Y:
            k -= 1
        return 1.0 if w[:k] == (X, XS) else 0.0

    psi = LinearFunctional(f"psi-azema(q={q:g})", psi_word)
    return azema, primitive, psi


# ---------------------------------------------------------------------------
# U<d>
# ---------------------------------------------------------------------------

def unitary_letter(d, k, l, star=False):
    """Generator index of x_kl, or of x_kl* if star, in U<d> (1 <= k, l <= d):
    the d^2 plain letters row by row, then the d^2 starred ones."""
    return (d * d if star else 0) + (k - 1) * d + (l - 1)


def make_unitary_bialgebra(d):
    """U<d>: 2 d^2 generators x_kl, x_kl* with xx* = 1 and x*x = 1."""
    if d < 1:
        raise InvalidParameter("d must be >= 1")
    d = int(d)
    p = functools.partial(unitary_letter, d)               # index of x_kl
    s = functools.partial(unitary_letter, d, star=True)    # index of x_kl*

    alphabet = []
    for k in range(1, d + 1):
        for l in range(1, d + 1):
            alphabet.append(GeneratorSymbol(f"x{k}{l}", s(k, l)))
    for k in range(1, d + 1):
        for l in range(1, d + 1):
            alphabet.append(GeneratorSymbol(f"x{k}{l}*", p(k, l)))

    # rule orientation: the i = d term of each relation entry is the redex.
    # Plain letters ranked by (column, row), starred by (row, column), which
    # makes every rhs word lexicographically below its lhs.
    order = [p(k, l) for l in range(1, d + 1) for k in range(1, d + 1)]
    order += [s(k, l) for k in range(1, d + 1) for l in range(1, d + 1)]

    rules = []
    for k in range(1, d + 1):
        for l in range(1, d + 1):
            rhs = {(): 1.0} if k == l else {}
            for i in range(1, d):
                w = (p(k, i), s(l, i))
                rhs[w] = rhs.get(w, 0.0) - 1.0
            rules.append(RewriteRule((p(k, d), s(l, d)), NcPoly(rhs)))
            rhs = {(): 1.0} if k == l else {}
            for i in range(1, d):
                w = (s(i, k), p(i, l))
                rhs[w] = rhs.get(w, 0.0) - 1.0
            rules.append(RewriteRule((s(d, k), p(d, l)), NcPoly(rhs)))

    alg = AlgebraSpec(alphabet, rules, letter_order=order, name=f"unitary({d})")

    delta = {}
    counit = {}
    for k in range(1, d + 1):
        for l in range(1, d + 1):
            delta[p(k, l)] = {((p(k, i),), (p(i, l),)): 1.0 for i in range(1, d + 1)}
            counit[p(k, l)] = 1.0 if k == l else 0.0
    delta, counit = complete_by_involution(alg, delta, counit)
    return BialgebraSpec(alg, delta, counit, name=f"unitary({d})")


# ---------------------------------------------------------------------------
# counit-kernel basis
# ---------------------------------------------------------------------------

def normal_words(alg, max_degree):
    """All normal-form words of degree <= max_degree, in deg-lex order."""
    lhs = [rule.lhs for rule in alg.rules]
    out = [()]
    layer = [()]
    for _ in range(max_degree):
        nxt = []
        for w in layer:
            for g in range(alg.ngen()):
                cand = w + (g,)
                # w is normal, so a redex of cand ends at its last letter
                if not any(cand[len(cand) - len(l):] == l for l in lhs):
                    nxt.append(cand)
        nxt.sort(key=alg._deglex_key)
        out.extend(nxt)
        layer = nxt
    return out


def b0_basis(B, max_degree):
    """Basis {w - counit(w) 1 : w != 1 normal form} of ker(counit), truncated."""
    return [(w, NcPoly({w: 1.0, (): -B.key_counit(w)}))
            for w in normal_words(B.algebra, max_degree)[1:]]


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class Morphism:
    """Counit-preserving map between two carriers of the shared protocol.

    Source and target elements are NcPoly over the carriers' keys, and
    key_map gives the image of each source key (map_key), extended linearly
    (apply).  kind names what the map is: 'algebra-homomorphism', or
    'linear-section' (the section kappa-tilde, linear only).
    """

    def __init__(self, source, target, kind, key_map, name=""):
        self.source = source
        self.target = target
        self.kind = kind
        self.map_key = key_map         # source key -> target element
        self.name = name

    def apply(self, elem):
        """Image of a source element."""
        out = NcPoly()
        for key, c in elem.terms.items():
            out = out.add(self.map_key(key).scale(c))
        return out


def counit_residual(m, keys):
    """Max |counit_target(m(k)) - counit_source(k)| over source keys.  The
    counits are multiplicative, so on generators this certifies a homomorphism."""
    return max((abs(m.target.counit(m.map_key(k)) - m.source.key_counit(k)) for k in keys),
               default=0.0)


# ---------------------------------------------------------------------------
# group-like carrier
# ---------------------------------------------------------------------------

class GroupLikeBialgebra:
    """Span of the counit-one monoid of B; every basis key is group-like.

    The key of the basis element hat(b) is the counit-one NcPoly b itself
    (NcPoly hashes by value); register checks a polynomial and returns it.
    Elements are NcPoly over keys, as for any carrier.
    """

    def __init__(self, B, degree_cap):
        if degree_cap < 1:
            raise InvalidParameter("degree_cap must be >= 1")
        self.base = B
        self.degree_cap = degree_cap
        self.name = f"grouplike[{B.name}]"
        # frozenset of keys -> Subcoalgebra (subcoalg): one per key set reached,
        # freed with this carrier
        self._subs = {}

    def register(self, p):
        """Check that p is a counit-one polynomial within the cap; p is its key."""
        if abs(self.base.counit(p) - 1.0) > COUNIT_TOL:
            raise InvalidParameter("group-like keys must have counit 1")
        if p.degree() > self.degree_cap:
            raise DegreeCapExceeded(
                f"degree {p.degree()} exceeds group-like cap {self.degree_cap}")
        return p

    # -- carrier protocol (shared with BialgebraSpec) ------------------------

    def key_delta(self, key):
        return {(key, key): 1.0}

    def key_counit(self, key):
        return complex(1.0)

    def key_order(self, key):
        return sorted((w, complex(c).real, complex(c).imag) for w, c in key.terms.items())

    def key_mul(self, k1, k2):
        return self.register(self.base.mul(k1, k2))

    def one(self):
        return NcPoly({NcPoly.one(): 1.0})

    def mul(self, a, b):
        out = {}
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                k = self.key_mul(k1, k2)
                out[k] = out.get(k, 0.0) + c1 * c2
        return NcPoly(out)

    def star(self, a):
        out = {}
        for k, c in a.terms.items():
            k2 = self.register(self.base.star(k))
            out[k2] = out.get(k2, 0.0) + complex(c).conjugate()
        return NcPoly(out)

    def counit(self, a):
        return sum(complex(c) for c in a.terms.values())

    def random_element(self, rng, degree):
        """Three keys hat(p - counit(p) + 1), p random in B, complex coefficients."""
        out = NcPoly()
        for _ in range(3):
            p = self.base.random_element(rng, min(degree, self.degree_cap))
            k = self.register(p.add(NcPoly({(): 1.0 - self.base.counit(p)})))
            out = out.add(NcPoly({k: complex(rng.normal(), rng.normal())}))
        return out

    # ------------------------------------------------------------------------

    def hat(self, p):
        """The basis element behind a counit-one polynomial."""
        return NcPoly({self.register(p): 1.0})

    def lift_key(self, w):
        """kappa-tilde on one word: hat(w - counit(w) + 1) - hat(1), 0 on 1."""
        if w == ():
            return NcPoly()
        shifted = NcPoly({w: 1.0, (): 1.0 - self.base.key_counit(w)})
        return NcPoly({self.register(shifted): 1.0, NcPoly.one(): -1.0})


def make_grouplike(B, degree_cap):
    """Group-like carrier over B plus kappa (hat(b) -> b) and kappa-tilde."""
    G = GroupLikeBialgebra(B, degree_cap)
    kappa = Morphism(G, B, "algebra-homomorphism",
                     key_map=lambda key: key, name=f"kappa[{G.name}]")
    kappa_tilde = Morphism(B, G, "linear-section",
                           key_map=G.lift_key, name=f"kappaTilde[{G.name}]")
    return G, kappa, kappa_tilde
