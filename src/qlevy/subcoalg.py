"""Coideals of left legs, convolution exponentials, product bounds.

Every element of a coalgebra sits inside a finite-dimensional right coideal
(Fundamental Theorem of Comodules): here the span L of the words reached
from its words by taking the left leg a of each leg (a, b) of key_delta,
its coideal.  The convolution exponential e_*^{t psi} is
delta o expm(t T(psi)) on it for the transfer matrix
T(psi) = (id (x) psi) o Delta, since T(psi) b_w = sum z psi(b) a never
leaves L; it reads psi on the right legs b only, the words R.  Its value
at p depends only on the smallest T(psi)-invariant span that holds p, so
conv_exp and the factor tables close p's words under the legs whose right
leg psi does not vanish on, the coideal filtered by psi: on Azema's
(x x*)^3 it has 8 words where the coideal has 33 and the subcoalgebra
117.  _routed_exp is the one matrix exponential v e^{tM}, v a row or a
matrix, and it takes one of three routes: an M with no nonzero entry on or
below the diagonal (Azema's T, psi being 0 on group-likes) is nilpotent,
and its Taylor sum ends, exact up to rounding; a diagonal M (every
group-like carrier's T, and the d = 1 Fock unitary target's iH - LL*/2)
takes exp of its diagonal; any other M takes dense scipy.linalg.expm.  It
serves the counit rows delta e^{tT}, the Fock unitary target and a
matrix-family G whose Taylor sum does not end.  scipy is imported by the
branches that call it, so a run needing neither dense expm nor a sparse
power never loads it.

A Subcoalgebra is one such closure, of basis keys of p's carrier sorted by
key_order: L with its structure constants, read off key_delta, and with a
functional given, T(psi) on L.  subcoalgebra_of is the one entry to it: the
carrier holds one closure per word set, and one per functional and word
set, and DIM_CAP bounds the words of L when it is first closed.  On a
BialgebraSpec the keys are normal-form words; this relies on the algebra's
rewriting system being confluent, so that its normal words form a basis
(Bergman's diamond lemma); the legs of key_delta(w) are then basis
coordinates and the structure constants are read off exactly, with no
linear solve.  On a group-like carrier every key is group-like, so p's keys
are closed already and T(psi) is diagonal.  factor_table reads the
one-interval Gram factors of a step off one exponential, taken on each call
(a closure holds T(psi) and its route, no row per step), and
doubled_product evaluates the Gram and Fock vacuum values of infinitesimal
products on the doubled coalgebra conj(C) (x) C as convolution powers
Psi^{*g} = T(Psi)^g: T(Psi) moves a pair of words to pairs of left legs and
reads Psi on pairs of right legs, so its state is L_c x L_d and its values
are Psi on R_c x R_d.  Each of the two is a layout, the part that does not
depend on the step or the factors, then its evaluation, so a sweep builds
the layout once.  The module also ships banach_product_check, the
infinitesimal-product error bound on matrices.  The coalgebra version needs
no checker of its own: T is a homomorphism of the convolution algebra into
matrices, so f_1 * ... * f_n(p) = delta T(f_1) ... T(f_n) coords(p) on a
finite coideal, and its bound is the matrix bound on the T(f).  A
ProductFamilySpec owns the memo of its targets e^{span G} and ||G||_2, one
entry per span.
"""

from __future__ import annotations

import functools

import numpy as np

from .bialg import TERM_BUDGET, transfer_apply
from .errors import (DimCapExceeded, InvalidParameter, MeshTooCoarse, NonConvergence,
                     TermBudgetExceeded)
from .ncpoly import NcPoly, involute, multiply

# most words in one coideal L (filtered or not), the side of a dense T(psi)
DIM_CAP = 512
SERIES_MAX_TERMS = 64
BOUND_SLACK = 1e-12   # absolute: a product check passes up to this far above its bound
# largest doubled dimension whose convolution powers doubled_product takes by
# dense repeated squaring; above it, g sparse matrix-vector products.  Measured
# on Azema doubled coalgebras, one BLAS thread: at dimension 64 squaring beat
# the sparse loop at every g from 1 to 512 (0.19 against 0.22 ms at g = 8,
# 0.47 against 0.60 ms at g = 64); at 136 the loop won for every g from 2 to
# 128 (0.23 against 1.6 ms at g = 8), and at 289 for every g from 2 to 512.
DENSE_POWER_DIM = 64


# ---------------------------------------------------------------------------
# coideal extraction and transfer matrix
# ---------------------------------------------------------------------------

class Subcoalgebra:
    """The coideal of left legs of a word set, with exact structure constants.

    Its words L are those reached from the seeds by taking the left leg a of
    each leg (a, b) of key_delta(w), and with a functional psi only of the
    legs whose right leg psi does not vanish on; Delta L lies in L (x) C, a
    right coideal.  The words R are the right legs of the legs kept, and
    basis[i] is the NcPoly of the i-th word of R, both in key_order.  The
    sparse structure constants (j, u, v, c) list
    Delta(L[j]) = sum c L[u] (x) R[v] over the legs kept, read from
    key_delta; they are exact because the keys are a basis of the carrier.
    With psi, m is T(psi) = (id (x) psi) o Delta on L, with its _route:
    T(psi) b_w = sum z psi(b) a never leaves L, so delta e^{tT} coords(p)
    on it is exact for every p on the seeds, and L is the Krylov space of
    T(psi) there.  _DoubledLayout reads the constants, coords and counit
    row of two closures without psi, gram and fock their basis.

    The carrier holds its closures, so a closure keeps no reference to it
    or to psi.
    """

    def __init__(self, B, seeds, psi=None):
        legs = {}    # word of L -> its legs (a, b, z) that psi does not kill
        pending = list(seeds)
        while pending:
            w = pending.pop()
            if w in legs:
                continue
            if len(legs) == DIM_CAP:
                what = "coideal" if psi is None else f"coideal filtered by {psi.name}"
                raise DimCapExceeded(
                    f"{what} of a {len(seeds)}-term element reached {DIM_CAP + 1} "
                    f"words, above cap {DIM_CAP} on a dense T(psi)'s side")
            kept = legs[w] = [(a, b, z) for (a, b), z in B.key_delta(w).items()
                              if psi is None or psi.on_word(b) != 0.0]
            pending.extend([a for a, _, _ in kept])
        words = sorted(legs, key=B.key_order)
        index = self._index = {w: i for i, w in enumerate(words)}
        right = self._right = sorted({b for kept in legs.values() for _, b, _ in kept},
                                     key=B.key_order)
        at = {b: i for i, b in enumerate(right)}
        j, u, v, c = [], [], [], []
        for i, w in enumerate(words):
            for a, b, z in legs[w]:
                j.append(i)
                u.append(index[a])
                v.append(at[b])
                c.append(z)
        self.constants = (np.array(j, dtype=int), np.array(u, dtype=int),
                          np.array(v, dtype=int), np.array(c, dtype=complex))
        self.counit_vector = np.array([B.key_counit(w) for w in words], dtype=complex)
        if psi is not None:
            j, u, v, c = self.constants
            self.m = np.zeros((len(words), len(words)), dtype=complex)
            # T(psi) = (id (x) psi) o Delta: T(psi) L[j] = sum c psi(R[v]) L[u]
            np.add.at(self.m, (u, j),
                      c * np.array([psi.on_word(b) for b in right], dtype=complex)[v])
            self.route = _route(self.m)

    @functools.cached_property
    def basis(self):
        # built on first read: conv_exp and the factor tables never read it
        return [NcPoly({b: 1.0}) for b in self._right]

    def dim(self):
        return len(self._index)

    def coords(self, p):
        x = np.zeros(self.dim(), dtype=complex)
        for w, c in p.terms.items():
            i = self._index.get(w)
            if i is None:
                raise InvalidParameter(
                    f"element outside the coideal (word {w} not among its words)")
            x[i] = c
        return x


def subcoalgebra_of(p, B, psi=None):
    """The Subcoalgebra of p's words, filtered by psi when given, held by B:
    one per word set, and one per functional and word set (weakly in the
    functional, so it is freed with either), since the closure depends on
    p's words only."""
    if psi is None:
        memo = B._subs
    else:
        memo = B._filtered.get(psi)
        if memo is None:
            memo = B._filtered[psi] = {}
    key = frozenset(p.terms)
    got = memo.get(key)
    if got is None:
        got = memo[key] = Subcoalgebra(B, key, psi)
    return got


def _route(m):
    """_routed_exp's route for m, read off the positions of its nonzero (or
    NaN) entries: "taylor" for a strictly upper triangular m (m^d = 0 at
    side d), "diagonal" for a diagonal m, else "expm"."""
    rows, cols = np.nonzero(m)
    if (rows < cols).all():
        return "taylor"
    if (rows == cols).all():
        return "diagonal"
    return "expm"


# ---------------------------------------------------------------------------
# convolution exponential and convolution powers
# ---------------------------------------------------------------------------

def _taylor(v, m, t):
    """(v e^{t m}, ended): v_k = (t / k) v_{k-1} m from v_0 = v (a row or a
    matrix), summed until v_k is exactly zero (ended: exact up to rounding),
    at most d terms (d the side of m) even where an overflow makes NaN."""
    total = v
    for k in range(1, len(m) + 1):
        v = (t / k) * (v @ m)
        if not v.any():
            return total, True
        total = total + v
    return total, False


def _routed_exp(v, m, t, route=None):
    """v e^{t m}, v a row or a matrix, by m's _route (taken here when not
    given): _taylor's sum, exp of the diagonal, as expm does, or expm."""
    if not np.isfinite(t):
        raise InvalidParameter(f"t must be finite, got {t}")
    route = route or _route(m)
    if route == "taylor":
        out, _ = _taylor(v, m, t)
    elif route == "diagonal":
        out = v @ np.diag(np.exp(np.diag(t * m)))
    else:
        import scipy.linalg
        out = v @ scipy.linalg.expm(t * m)
    if not np.isfinite(out).all():
        raise InvalidParameter(
            f"e^{{tM}} at t = {t:.15g} overflowed" if np.isfinite(m).all()
            else "e^{tM}: M has a non-finite entry")
    return out


def _at_step(err, dt):
    """err again, its message naming the step of the factor table it stopped."""
    return type(err)(f"Gram factor table at step {dt:.15g}: {err}")


class _FactorLayout:
    """The part of factor_table(psi, ., left, right, B) that does not depend
    on the step: the products left[i]* right[j] and the coideal of their
    words filtered by psi (subcoalgebra_of), which holds T(psi), its route,
    the counit row and each word's index, the products' coordinates.  A
    DimCapExceeded names dt, the step it is built for."""

    def __init__(self, psi, left, right, B, dt):
        self.prods = [multiply(involute(a, B.algebra), b, B.algebra) for a in left for b in right]
        words = NcPoly(dict.fromkeys((w for p in self.prods for w in p.terms), 1.0))
        try:
            self.sub = subcoalgebra_of(words, B, psi)
        except (DimCapExceeded, InvalidParameter) as err:
            raise _at_step(err, dt) from None
        self.shape = (len(left), len(right))

    def table(self, dt):
        """The factor table at step dt: one counit row, read against each
        product's coordinates."""
        sub = self.sub
        try:
            row = _routed_exp(sub.counit_vector, sub.m, dt, sub.route)
        except InvalidParameter as err:
            raise _at_step(err, dt) from None
        at = sub._index
        return np.array([sum(c * row[at[w]] for w, c in p.terms.items()) for p in self.prods],
                        dtype=complex).reshape(self.shape)


def factor_table(psi, dt, left, right, B):
    """Table [i, j] = e_*^{dt psi}(left[i]* right[j]) for one step dt.

    Each value is the counit row delta e^{dt T(psi)} (by the route held with
    T(psi)) read against the coordinates of its product, on one coideal of
    the words of all products left[i]* right[j] filtered by psi (held by B).
    That coideal is T(psi)-invariant, so the row on it is exact.  A
    _FactorLayout holds the step-free part, so a sweep builds it once and
    evaluates it per mesh; this is its one-step case.  The coideal holds
    T(psi), not the row: a partition with random times never repeats a
    step.
    """
    return _FactorLayout(psi, left, right, B, dt).table(dt)


class _DoubledLayout:
    """The part of doubled_product(subc, subd, c, d, .) that does not depend
    on the factors: the doubled structure constants' rows and columns on
    L_c x L_d, their coefficients conj(c_1) c_2 and the positions on
    R_c x R_d of the Psi values they read, conj coords(c) (x) coords(d), and
    the counit pair."""

    def __init__(self, subc, subd, c, d):
        q = subd.dim()
        jc, uc, vc, zc = subc.constants
        jd, ud, vd, zd = subd.constants
        if zc.size * zd.size > TERM_BUDGET:
            raise TermBudgetExceeded(
                f"doubled coalgebra on {subc.dim()} x {q} coideal words has "
                f"{zc.size * zd.size} structure constants, more than {TERM_BUDGET}")
        # (id (x) Psi) Delta of the pair (j1, j2): sum conj(c1) c2 Psi[v1, v2] (u1, u2)
        self.rows = np.add.outer(uc * q, ud).ravel()
        self.cols = np.add.outer(jc * q, jd).ravel()
        self.coeffs = np.multiply.outer(zc.conj(), zd)
        self.pick = np.ix_(vc, vd)
        self.size = subc.dim() * q
        self.x = np.multiply.outer(subc.coords(c).conj(), subd.coords(d)).ravel()
        self.counit = np.multiply.outer(subc.counit_vector.conj(), subd.counit_vector).ravel()

    def __call__(self, factors):
        for k, (_, g) in enumerate(factors):
            if not isinstance(g, (int, np.integer)) or g < 0:
                raise InvalidParameter(
                    f"doubled_product: power g of factor {k} must be a non-negative "
                    f"integer, got {g!r}")
        x = self.x
        for values, g in reversed(factors):
            if not x.any():
                return 0j
            vals = (self.coeffs * values[self.pick]).ravel()
            if self.size <= DENSE_POWER_DIM:
                t = np.zeros((self.size, self.size), dtype=complex)
                np.add.at(t, (self.rows, self.cols), vals)
                x = np.linalg.matrix_power(t, g) @ x
            else:
                import scipy.sparse
                t = scipy.sparse.csr_matrix((vals, (self.rows, self.cols)),
                                            shape=(self.size, self.size))
                for _ in range(g):
                    x = t @ x
        return complex(self.counit @ x)


def doubled_product(subc, subd, c, d, factors):
    """Convolution product Psi_1^{*g_1} * ... * Psi_k^{*g_k} on the doubled
    coalgebra conj(subc) (x) subd, at conj(c) (x) d.

    subc and subd are the coideals of c's and d's words (subcoalgebra_of,
    no functional).  factors lists (values, g) in interval order,
    values[a, b] being Psi on the a-th basis element (a word of R) of subc
    and the b-th of subd, and g a non-negative integer (g = 0 is the
    counit).  T(Psi) maps each pair of words of L_c x L_d to pairs of left
    legs with coefficients conj(c_1) c_2 Psi on the pair of right legs, so
    the value is (conj delta (x) delta) T(Psi_1)^{g_1} ... T(Psi_k)^{g_k}
    (conj coords(c) (x) coords(d)) on L_c x L_d.  Convolution is
    associative, so up to
    DENSE_POWER_DIM doubled dimensions each T(Psi)^g is a dense matrix taken
    by repeated squaring, O(log g) products; above it each factor is g
    sparse matrix-vector products.  The factors apply last first, and once
    the running vector is exactly zero the value is 0: the factors left are
    not formed, so a power of theirs that overflows cannot make it inf * 0.
    A _DoubledLayout holds the part that does not depend on the factors, so
    a sweep builds it once.
    """
    return _DoubledLayout(subc, subd, c, d)(factors)


def conv_exp(psi, t, p, B):
    """e_*^{t psi}(p) = delta e^{t T(psi)} coords(p) on the coideal of p's
    words filtered by psi, the row taken by one of _routed_exp's routes."""
    sub = subcoalgebra_of(p, B, psi)
    return complex(_routed_exp(sub.counit_vector, sub.m, t, sub.route) @ sub.coords(p))


def conv_exp_series(psi, t, p, B, tol=1e-12):
    """Independent oracle: partial sums of sum_n t^n psi^{*n}(p) / n!.

    psi^{*n} = psi o T^{n-1} for T = (id (x) psi) o Delta, so the series
    applies T once per term: v_0 = p, v_n = T v_{n-1}, and term n is
    t^n / n! psi(v_{n-1}).  It stops when v_n is exactly empty (the series
    is then finite and the sum exact), or after three consecutive n with
    |t|^n / n! ||v_n||_1 < tol.  It shares nothing with conv_exp but the
    carrier's key_delta and counit: no coideal, coordinates, transfer
    matrix or matrix exponential.  Returns (value, terms summed).
    """
    if not 0 < tol < np.inf:
        raise InvalidParameter(f"conv_exp_series: tol must be positive and finite, got {tol}")
    if not np.isfinite(t):
        raise InvalidParameter(f"conv_exp_series: t must be finite, got {t}")
    total = complex(B.counit(p))
    fact = 1.0
    small = 0
    v = p.terms
    for n in range(1, SERIES_MAX_TERMS + 1):
        fact *= n
        try:
            term = (t ** n) / fact * sum((c * psi.on_word(w) for w, c in v.items()), complex(0.0))
        except OverflowError:
            term = complex(np.inf)
        if not np.isfinite(term):
            raise InvalidParameter(f"conv_exp_series: term {n} at t = {t:.15g} is not finite")
        total += term
        try:
            v = transfer_apply(psi, v, B)
        except TermBudgetExceeded as err:
            raise TermBudgetExceeded(
                f"convolution-exponential series, term {n + 1}: {err}") from None
        if not v:
            return total, n + 1
        small = small + 1 if abs(t) ** n / fact * sum(abs(c) for c in v.values()) < tol else 0
        if small == 3:
            return total, n + 1
    raise NonConvergence(
        f"convolution-exponential series did not settle in {SERIES_MAX_TERMS} terms")


# ---------------------------------------------------------------------------
# product-formula bound checkers
# ---------------------------------------------------------------------------

class ProductFamilySpec:
    """Matrix family A_r^{(mu)} = I + r G + S_r^{(mu)}, kind "matrix-family".

    remainder(r, mu) returns S_r^{(mu)} for interval length r and choice
    index mu in range(n_choices); it may be None for the exact family.
    Constants: R bounds the admissible mesh, C the remainder constant
    (||S_r|| <= r^2 C^2 / 2).  A family of functionals delta + r psi + R_r
    on a coalgebra is checked through this one: on a finite coideal the
    transfer map T is a homomorphism of the convolution algebra into
    matrices, so G = T(psi) and S_r = T(R_r).
    """

    def __init__(self, kind, baseline, remainder=None, n_choices=1, R=1.0, C=None):
        if kind != "matrix-family":
            raise InvalidParameter(f"unknown family kind {kind!r}")
        self.baseline = baseline
        self.remainder = remainder
        self.n_choices = int(n_choices)
        if self.n_choices < 1:
            raise InvalidParameter(f"n_choices must be >= 1, got {n_choices}")
        self.R = float(R)
        self.C = C
        self._targets = {}      # span -> (e^{span G}, ||G||_2)

    def target(self, span):
        """e^{span G} (_taylor's sum where it ends, else _routed_exp) and the
        operator norm of G, memoized per span."""
        got = self._targets.get(span)
        if got is None:
            g = np.asarray(self.baseline, dtype=complex)
            if not np.isfinite(g).all():
                raise InvalidParameter("matrix-family baseline G is not finite")
            eye = np.eye(len(g), dtype=complex)
            exp, ended = _taylor(eye, g, span)
            if not ended:
                exp = _routed_exp(eye, g, span)
            got = self._targets[span] = (exp, _opnorm(g))
        return got


def _opnorm(m):
    # the LAPACK call of np.linalg.norm(m, 2), without its axis handling
    return float(np.linalg.svd(m, compute_uv=False).max())


def _product_bound(mesh, span, norm, c):
    return (mesh * span * np.exp(span * max(norm, c))
            * (c ** 2 + norm ** 2 * np.exp(mesh * norm)) / 2.0)


def banach_product_check(spec, partition, draws=100, rng=None):
    """Check the Banach-algebra product bound on random mu-choices.

    LHS is the operator norm (largest singular value) of the infinitesimal
    product minus e^{(t-s)G}, the largest over the draws, each the product
    of I + r G + remainder(r, mu) over the steps with mu random per step;
    RHS is the proved bound
    ||alpha|| (t-s) e^{(t-s) max(||G||, C)} (C^2 + ||G||^2 e^{||alpha|| ||G||}) / 2.
    A product that is not finite raises, naming the first non-finite step by
    its interval and mu.
    """
    mesh = partition.mesh()
    if mesh > spec.R:
        raise MeshTooCoarse(f"mesh {mesh:g} exceeds admissible R = {spec.R:g}")
    rng = rng if rng is not None else np.random.default_rng(20080131)
    span = partition.t - partition.s
    target, norm_g = spec.target(span)
    c = float(spec.C) if spec.C is not None else 0.0
    bound = _product_bound(mesh, span, norm_g, c)
    if draws < 1:
        raise InvalidParameter(f"banach_product_check: draws must be >= 1, got {draws}")
    g = np.asarray(spec.baseline, dtype=complex)
    times, steps, eye = partition.times, partition.steps(), np.eye(len(g), dtype=complex)
    base = {r: eye + r * g for r in set(steps)}    # shared, never written to
    gaps = []
    for _ in range(draws):
        prod, taken = eye, []
        for r in steps:
            a, mu = base[r], None
            if spec.remainder is not None:
                mu = int(rng.integers(spec.n_choices))
                a = a + np.asarray(spec.remainder(r, mu))
            taken.append((a, mu))
            prod = prod @ a
        if not np.isfinite(prod).all():
            k = next((k for k, (a, _) in enumerate(taken) if not np.isfinite(a).all()), None)
            where = "overflowed" if k is None else (
                f"is not finite on [{times[k]:.15g}, {times[k + 1]:.15g}] at mu = {taken[k][1]}")
            raise InvalidParameter(f"banach_product_check: the step product {where}")
        gaps.append(_opnorm(prod - target))
    worst = max(gaps)
    return {
        "lhs_max": worst,
        "bound": float(bound),
        "passed": bool(worst <= bound + BOUND_SLACK),
        "mesh": mesh,
        "draws": draws,
        "norm_G": norm_g,
        "C": c,
    }
