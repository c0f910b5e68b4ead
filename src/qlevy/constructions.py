"""Model bialgebras and the counit-preserving maps between them.

Shipped structures: the Azema bialgebra for parameter q (plus the companion
structure with x, x* primitive and y group-like), the unitary-matrix
bialgebra U<d>, the primitive and induced tensor bialgebras over the counit
kernel, and the group-like carrier spanned by counit-one elements.
"""

from __future__ import annotations

import numpy as np

from .bialg import (
    BialgebraSpec,
    LinearFunctional,
    TensorPoly,
    complete_by_involution,
)
from .errors import DegreeCapExceeded, InvalidParameter
from .linalg import LinearSpan
from .ncpoly import (
    AlgebraSpec,
    GeneratorSymbol,
    NcPoly,
    RewriteRule,
    involute,
    multiply,
    normal_form,
)


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
    if q == 0.0:
        raise InvalidParameter("q = 0 degenerates the rule orientation yx -> q^-1 xy")
    X, XS, Y = 0, 1, 2
    alphabet = [GeneratorSymbol("x", XS), GeneratorSymbol("x*", X), GeneratorSymbol("y", Y)]
    rules = [
        RewriteRule((Y, X), NcPoly({(X, Y): 1.0 / q})),
        RewriteRule((Y, XS), NcPoly({(XS, Y): q})),
    ]
    alg = AlgebraSpec(alphabet, rules, name=f"azema(q={q:g})")

    one = ((), ())
    azema_delta = {
        X: TensorPoly({((X,), (Y,)): 1.0, ((), (X,)): 1.0}),
        Y: TensorPoly({((Y,), (Y,)): 1.0}),
    }
    azema_counit = {X: 0.0, Y: 1.0}
    azema_delta, azema_counit = complete_by_involution(alg, azema_delta, azema_counit)
    azema = BialgebraSpec(alg, azema_delta, azema_counit, name=f"azema(q={q:g})")

    prim_delta = {
        X: TensorPoly({((X,), ()): 1.0, ((), (X,)): 1.0}),
        Y: TensorPoly({((Y,), (Y,)): 1.0}),
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

    psi = LinearFunctional(f"psi-azema(q={q:g})", psi_word, hermitian=True)
    del one
    return azema, primitive, psi


# ---------------------------------------------------------------------------
# U<d>
# ---------------------------------------------------------------------------

def make_unitary_bialgebra(d):
    """U<d>: 2 d^2 generators x_kl, x_kl* with xx* = 1 and x*x = 1."""
    if d < 1:
        raise InvalidParameter("d must be >= 1")
    d = int(d)

    def p(k, l):       # index of x_kl
        return (k - 1) * d + (l - 1)

    def s(k, l):       # index of x_kl*
        return d * d + (k - 1) * d + (l - 1)

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
            delta[p(k, l)] = TensorPoly(
                {((p(k, i),), (p(i, l),)): 1.0 for i in range(1, d + 1)})
            counit[p(k, l)] = 1.0 if k == l else 0.0
    delta, counit = complete_by_involution(alg, delta, counit)
    return BialgebraSpec(alg, delta, counit, name=f"unitary({d})")


# ---------------------------------------------------------------------------
# counit-kernel basis
# ---------------------------------------------------------------------------

def normal_words(alg, max_degree):
    """All normal-form words of degree <= max_degree, in deg-lex order."""
    from .ncpoly import _find_redex

    out = [()]
    layer = [()]
    for _ in range(max_degree):
        nxt = []
        for w in layer:
            for g in range(alg.ngen()):
                cand = w + (g,)
                if _find_redex(cand, alg.rules) is None:
                    nxt.append(cand)
        nxt.sort(key=alg._deglex_key)
        out.extend(nxt)
        layer = nxt
    return out


def b0_basis(B, max_degree):
    """Basis {w - counit(w) 1 : w != 1 normal form} of ker(counit), truncated."""
    basis = []
    for w in normal_words(B.algebra, max_degree):
        if w == ():
            continue
        basis.append((w, NcPoly({w: 1.0, (): -B.key_counit(w)})))
    return basis


def selfadjoint_b0_basis(B, max_degree):
    """Self-adjoint spanning basis of the truncated counit kernel.

    Each involution orbit of {w - counit(w) 1} is split into hermitian and
    antihermitian parts; dependent directions are dropped.
    """
    alg = B.algebra
    span = LinearSpan()
    letters = []
    for _w, p in b0_basis(B, max_degree):
        ps = involute(p, alg)
        herm = p.add(ps).scale(0.5)
        anti = p.sub(ps).scale(-0.5j)
        for h in (herm, anti):
            if h and span.add(h.terms):
                letters.append(h)
    return letters


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class Morphism:
    """Counit-preserving map between carriers.

    kind 'algebra-homomorphism': extended multiplicatively over words/keys.
    kind 'linear-section': linear extension only (the section nu).
    """

    def __init__(self, source, target, kind, gen_images=None, key_map=None, name=""):
        self.source = source
        self.target = target
        self.kind = kind
        self.gen_images = gen_images   # generator index -> target element
        self.key_map = key_map         # source key -> target element
        self.name = name

    # target-side algebra helpers -------------------------------------------

    def _t_unit(self):
        if isinstance(self.target, GroupLikeBialgebra):
            return {self.target.unit_key(): 1.0}
        return NcPoly.one()

    def _t_mul(self, a, b):
        if isinstance(self.target, GroupLikeBialgebra):
            return self.target.elem_mul(a, b)
        return multiply(a, b, self.target.algebra)

    def _t_add(self, a, z, b):
        if isinstance(self.target, GroupLikeBialgebra):
            out = dict(a)
            for k, c in b.items():
                out[k] = out.get(k, 0.0) + z * c
            return {k: c for k, c in out.items() if abs(c) > 1e-14}
        return a.add(b.scale(z))

    def _t_zero(self):
        if isinstance(self.target, GroupLikeBialgebra):
            return {}
        return NcPoly.zero()

    # ------------------------------------------------------------------------

    def map_key(self, key):
        """Image of a single source basis key."""
        if self.key_map is not None:
            return self.key_map(key)
        img = self._t_unit()
        for g in key:
            img = self._t_mul(img, self.gen_images[g])
        return img

    def apply(self, elem):
        """Image of a source element (NcPoly or key-indexed dict)."""
        terms = elem.terms if isinstance(elem, NcPoly) else elem
        out = self._t_zero()
        for key, c in terms.items():
            out = self._t_add(out, c, self.map_key(key))
        return out

    def target_counit(self, elem):
        if isinstance(self.target, GroupLikeBialgebra):
            return sum(elem.values()) if not isinstance(elem, NcPoly) else elem
        return self.target.counit(elem)


def check_counit_preserving(m, n_samples=100, sample_degree=3, rng=None):
    """Max |counit_target(m(p)) - counit_source(p)| over random samples."""
    rng = rng if rng is not None else np.random.default_rng(20080131)
    src = m.source
    worst = 0.0
    for _ in range(n_samples):
        elem = _random_source_element(src, rng, sample_degree)
        lam = _source_counit(src, elem)
        img = m.apply(elem)
        delt = m.target_counit(img)
        worst = max(worst, abs(delt - lam))
    return {"max_residual": worst, "n_samples": n_samples}


def _random_source_element(src, rng, degree):
    if isinstance(src, GroupLikeBialgebra):
        keys = src.known_keys()
        picks = rng.choice(len(keys), size=min(3, len(keys)), replace=False)
        return {keys[i]: complex(rng.normal(), rng.normal()) for i in picks}
    from .ncpoly import random_poly
    return random_poly(src.algebra, rng, degree)


def _source_counit(src, elem):
    if isinstance(src, GroupLikeBialgebra):
        return sum(elem.values())
    return src.counit(elem)


# ---------------------------------------------------------------------------
# tensor bialgebras over the counit kernel (primitive and induced)
# ---------------------------------------------------------------------------

def _tensor_algebra(n_letters, name):
    alphabet = [GeneratorSymbol(f"v{i}", i) for i in range(n_letters)]
    return AlgebraSpec(alphabet, [], name=name)


def make_primitive_tensor(B, degree_cap):
    """Tensor bialgebra on the counit kernel with every letter primitive."""
    if degree_cap < 1:
        raise InvalidParameter("degree_cap must be >= 1")
    letters = selfadjoint_b0_basis(B, degree_cap)
    alg = _tensor_algebra(len(letters), f"T0[{B.name}]")
    delta = {i: TensorPoly({((i,), ()): 1.0, ((), (i,)): 1.0}) for i in range(len(letters))}
    counit = {i: 0.0 for i in range(len(letters))}
    T = BialgebraSpec(alg, delta, counit, name=f"primitive-tensor[{B.name}]")
    T.degree_cap = degree_cap
    T.letters = letters
    kappa = Morphism(T, B, "algebra-homomorphism",
                     gen_images={i: h for i, h in enumerate(letters)},
                     name=f"kappa[{T.name}]")
    return T, kappa


def make_induced_tensor(B, degree_cap):
    """Tensor algebra on the counit kernel carrying the induced coproduct.

    The coproduct of a letter h is h(x)1 + 1(x)h plus the reduced coproduct
    of h re-expressed over letters.
    """
    if degree_cap < 1:
        raise InvalidParameter("degree_cap must be >= 1")
    letters = selfadjoint_b0_basis(B, degree_cap)
    span = LinearSpan()
    for h in letters:
        span.add(h.terms)

    def letter_coords(p):
        x, _ = span.coords(p.terms)
        if x is None:
            raise DegreeCapExceeded(
                f"element outside the degree-{degree_cap} truncated kernel")
        return x

    alg = _tensor_algebra(len(letters), f"Tind0[{B.name}]")
    delta = {}
    for i, h in enumerate(letters):
        red = B.coproduct(h).sub(TensorPoly.simple(h, NcPoly.one())).sub(
            TensorPoly.simple(NcPoly.one(), h))
        terms = {((i,), ()): 1.0, ((), (i,)): 1.0}
        # reduced part lives in ker x ker; non-unit word-pair coefficients
        # carry over unchanged to the kernel basis
        left_polys = {}
        for (a, b), z in red.terms.items():
            if a == () or b == ():
                continue
            left_polys.setdefault((a, b), 0.0)
            left_polys[(a, b)] += z
        for (a, b), z in left_polys.items():
            ca = letter_coords(NcPoly({a: 1.0, (): -B.key_counit(a)}))
            cb = letter_coords(NcPoly({b: 1.0, (): -B.key_counit(b)}))
            for j in np.nonzero(np.abs(ca) > 1e-13)[0]:
                for k in np.nonzero(np.abs(cb) > 1e-13)[0]:
                    kk = ((int(j),), (int(k),))
                    terms[kk] = terms.get(kk, 0.0) + z * ca[j] * cb[k]
        delta[i] = TensorPoly(terms)
    counit = {i: 0.0 for i in range(len(letters))}
    Tind = BialgebraSpec(alg, delta, counit, name=f"induced-tensor[{B.name}]")
    Tind.degree_cap = degree_cap
    Tind.letters = letters
    kappa = Morphism(Tind, B, "algebra-homomorphism",
                     gen_images={i: h for i, h in enumerate(letters)},
                     name=f"kappa[{Tind.name}]")
    return Tind, kappa


# ---------------------------------------------------------------------------
# group-like carrier
# ---------------------------------------------------------------------------

def _poly_key(p):
    return tuple(sorted(
        (w, round(complex(c).real, 12), round(complex(c).imag, 12))
        for w, c in p.terms.items()))


class GroupLikeBialgebra:
    """Span of the counit-one monoid of B; every basis key is group-like."""

    def __init__(self, B, degree_cap):
        if degree_cap < 1:
            raise InvalidParameter("degree_cap must be >= 1")
        self.base = B
        self.degree_cap = degree_cap
        self.name = f"grouplike[{B.name}]"
        self._registry = {}
        self._unit = self.register(NcPoly.one())

    def register(self, p):
        """Intern a counit-one polynomial and return its key."""
        if abs(self.base.counit(p) - 1.0) > 1e-10:
            raise InvalidParameter("group-like keys must have counit 1")
        if p.degree() > self.degree_cap:
            raise DegreeCapExceeded(
                f"degree {p.degree()} exceeds group-like cap {self.degree_cap}")
        k = _poly_key(p)
        self._registry.setdefault(k, p)
        return k

    def poly(self, key):
        return self._registry[key]

    def known_keys(self):
        return list(self._registry)

    def unit_key(self):
        return self._unit

    def key_delta(self, key):
        return {(key, key): 1.0}

    def key_counit(self, key):
        return complex(1.0)

    def key_star(self, key):
        return {self.register(involute(self.poly(key), self.base.algebra)): 1.0}

    def key_mul(self, k1, k2):
        return self.register(multiply(self.poly(k1), self.poly(k2), self.base.algebra))

    def elem_mul(self, a, b):
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = self.key_mul(k1, k2)
                out[k] = out.get(k, 0.0) + c1 * c2
        return {k: c for k, c in out.items() if abs(c) > 1e-14}

    def elem_star(self, a):
        out = {}
        for k, c in a.items():
            for k2, z in self.key_star(k).items():
                out[k2] = out.get(k2, 0.0) + complex(c).conjugate() * z
        return out

    def counit(self, elem):
        return sum(complex(c) for c in elem.values())

    def iterated_coproduct(self, elem, n):
        from .bialg import SweedlerExpansion
        terms = {(k,) * n: c for k, c in elem.items()}
        return SweedlerExpansion(n, terms)

    def hat(self, p):
        """The basis element behind a counit-one polynomial."""
        return {self.register(p): 1.0}

    def kappa_tilde(self, p):
        """Linear lift of a kernel element: b -> hat(b + 1) - hat(1)."""
        out = {}
        for w, c in p.terms.items():
            if w == ():
                continue
            dw = self.base.key_counit(w)
            shifted = NcPoly({w: 1.0, (): 1.0 - dw})
            k1 = self.register(shifted)
            out[k1] = out.get(k1, 0.0) + c
            out[self._unit] = out.get(self._unit, 0.0) - c
        return {k: c for k, c in out.items() if abs(c) > 1e-14}


def make_grouplike(B, degree_cap):
    """Group-like carrier over B plus kappa (hat(b) -> b) and kappa-tilde."""
    G = GroupLikeBialgebra(B, degree_cap)
    kappa = Morphism(G, B, "algebra-homomorphism",
                     key_map=lambda k: G.poly(k), name=f"kappa[{G.name}]")
    kappa_tilde = Morphism(B, G, "linear-section",
                           key_map=None, name=f"kappaTilde[{G.name}]")
    kappa_tilde.apply = G.kappa_tilde
    return G, kappa, kappa_tilde
