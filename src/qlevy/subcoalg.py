"""Finite-dimensional subcoalgebras, convolution exponentials, product bounds.

Every element of a coalgebra sits inside a finite-dimensional subcoalgebra
(Fundamental Theorem of Coalgebras); on such a subcoalgebra the convolution
exponential e_*^{t psi} becomes delta o expm(t T(psi)) for the transfer
matrix T(psi) = (id (x) psi) o Delta.  _routed_exp is the one matrix
exponential v e^{tM}, v a row or a matrix, and it takes one of three
routes: an M with no nonzero entry on or below the diagonal (Azema's T,
psi being 0 on group-likes) is nilpotent, and its Taylor sum ends, exact up
to rounding; a diagonal M (every group-like carrier's T, and the d = 1
Fock unitary target's iH - LL*/2) takes exp of its diagonal; any other M
takes dense scipy.linalg.expm.  It serves the counit rows delta e^{tT},
the Fock unitary target and a matrix-family G whose Taylor sum does not
end.  scipy is imported by the branches that call it, so a run needing
neither dense expm nor a sparse power never loads it.

The subcoalgebra of p is spanned by basis keys of p's carrier: the keys of
p, closed under taking either leg of key_delta, sorted by key_order.
subcoalgebra_of is the one entry to it: the carrier holds one subcoalgebra
per word set, and DIM_CAP bounds its words when it is first closed.  On a
BialgebraSpec the keys are normal-form words; this relies on the algebra's
rewriting system being confluent, so that its normal words form a basis
(Bergman's diamond lemma); the legs of key_delta(w) are then basis
coordinates and the structure constants are read off exactly, with no linear
solve.  On a group-like carrier every key is group-like, so the span of p's
keys is closed already and T(psi) is diagonal.  factor_table reads the
one-interval Gram factors of a step off one exponential, taken on each call
(a subcoalgebra holds T(psi) and its route per functional, no row per step),
and doubled_product evaluates the Gram and Fock vacuum values of
infinitesimal products on the doubled coalgebra conj(C) (x) C of two
subcoalgebras as convolution powers Psi^{*g} = T(Psi)^g.  Each of the two is
a layout, the part that does not depend on the step or the factors, then
its evaluation, so a sweep builds the layout once.  The module also ships
banach_product_check, the infinitesimal-product error bound on matrices.
The coalgebra version needs no checker of its own: T is a homomorphism of
the convolution algebra into matrices, so f_1 * ... * f_n(p) =
delta T(f_1) ... T(f_n) coords(p) on a finite subcoalgebra, and its bound is
the matrix bound on the T(f).  A ProductFamilySpec owns the memo of its
targets e^{span G} and ||G||_2, one entry per span.
"""

from __future__ import annotations

import weakref

import numpy as np

from .bialg import TERM_BUDGET, transfer_apply
from .errors import (DimCapExceeded, InvalidParameter, MeshTooCoarse, NonConvergence,
                     TermBudgetExceeded)
from .ncpoly import NcPoly, involute, multiply

DIM_CAP = 512   # most normal words in one subcoalgebra, the side of its dense T(psi)
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
# subcoalgebra extraction
# ---------------------------------------------------------------------------

class Subcoalgebra:
    """Span of a Delta-closed set of basis keys, with exact structure constants.

    basis[i] is the NcPoly of the i-th key in key_order.  The sparse
    structure constants (j, u, v, c) list
    Delta(basis[j]) = sum c basis[u] (x) basis[v], read from key_delta;
    they are exact because the keys are a basis of the carrier.

    The carrier holds its subcoalgebras, so a subcoalgebra keeps no
    reference to it, and its transfer matrices are dropped with their
    functionals: neither may keep the carrier alive.  It holds no counit
    row, since a partition with random times never repeats a step.
    """

    def __init__(self, B, words):
        self.basis = [NcPoly({w: 1.0}) for w in words]
        self._index = {w: i for i, w in enumerate(words)}
        j, u, v, c = [], [], [], []
        for i, w in enumerate(words):
            for (a, b), z in B.key_delta(w).items():
                j.append(i)
                u.append(self._index[a])
                v.append(self._index[b])
                c.append(z)
        self.constants = (np.array(j, dtype=int), np.array(u, dtype=int),
                          np.array(v, dtype=int), np.array(c, dtype=complex))
        self.counit_vector = np.array([B.key_counit(w) for w in words], dtype=complex)
        # functional -> (T(functional), its _routed_exp route): one per live
        # functional, freed with it or with self
        self._transfers = weakref.WeakKeyDictionary()

    def dim(self):
        return len(self.basis)

    def coords(self, p):
        x = np.zeros(self.dim(), dtype=complex)
        for w, c in p.terms.items():
            i = self._index.get(w)
            if i is None:
                raise InvalidParameter(
                    f"element outside the subcoalgebra (word {w} not in its basis)")
            x[i] = c
        return x


def subcoalgebra_of(p, B):
    """Span of p's keys closed under taking legs of key_delta, held by B: one
    subcoalgebra per word set, since the closure depends on p's words only."""
    key = frozenset(p.terms)
    if key not in B._subs:
        words, pending = set(), list(p.terms)
        while pending:
            w = pending.pop()
            if w in words:
                continue
            words.add(w)
            if len(words) > DIM_CAP:
                raise DimCapExceeded(
                    f"subcoalgebra of a {len(p.terms)}-term element reached "
                    f"{len(words)} words, above cap {DIM_CAP} on a dense T(psi)'s side")
            for legs in B.key_delta(w):
                pending.extend(legs)
        B._subs[key] = Subcoalgebra(B, sorted(words, key=B.key_order))
    return B._subs[key]


# ---------------------------------------------------------------------------
# transfer matrix and convolution exponential
# ---------------------------------------------------------------------------

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


def _transfer_route(psi, sub):
    """(T(psi), its _route) on the basis of sub, held by sub."""
    got = sub._transfers.get(psi)
    if got is None:
        j, u, v, c = sub.constants
        vals = np.array([psi(b) for b in sub.basis], dtype=complex)
        m = np.zeros((sub.dim(), sub.dim()), dtype=complex)
        # T(psi) = (id (x) psi) o Delta: T(psi) b_j = sum c psi(b_v) b_u
        np.add.at(m, (u, j), c * vals[v])
        got = sub._transfers[psi] = (m, _route(m))
    return got


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
    on the step: the products left[i]* right[j], the subcoalgebra S their
    words close to, with T_S(psi) and its route, and the basis index of
    each word of S, the products' coordinates.  A DimCapExceeded names dt,
    the step it is built for."""

    def __init__(self, psi, left, right, B, dt):
        prods = [multiply(involute(a, B.algebra), b, B.algebra) for a in left for b in right]
        try:
            sub = subcoalgebra_of(NcPoly({w: 1.0 for p in prods for w in p.terms}), B)
            self.m, self.route = _transfer_route(psi, sub)
        except (DimCapExceeded, InvalidParameter) as err:
            raise _at_step(err, dt) from None
        self.prods, self.at, self.delta = prods, sub._index, sub.counit_vector
        self.shape = (len(left), len(right))

    def table(self, dt):
        """The factor table at step dt: one counit row, read against each
        product's coordinates."""
        try:
            row = _routed_exp(self.delta, self.m, dt, self.route)
        except InvalidParameter as err:
            raise _at_step(err, dt) from None
        at = self.at
        return np.array([sum(c * row[at[w]] for w, c in p.terms.items()) for p in self.prods],
                        dtype=complex).reshape(self.shape)


def factor_table(psi, dt, left, right, B):
    """Table [i, j] = e_*^{dt psi}(left[i]* right[j]) for one step dt.

    Delta is multiplicative, so the words of all products left[i]* right[j]
    close to one subcoalgebra S (owned by B); each value is the counit row
    delta e^{dt T_S(psi)} (by the route held with T_S(psi)) read against
    coords_S of its product.  A _FactorLayout holds the step-free part, so a
    sweep builds it once and evaluates it per mesh; this is its one-step
    case.  S holds T_S(psi), not the row: a partition with random times
    never repeats a step.
    """
    return _FactorLayout(psi, left, right, B, dt).table(dt)


class _DoubledLayout:
    """The part of doubled_product(subc, subd, c, d, .) that does not depend
    on the factors: the doubled structure constants' rows, columns and
    coefficients conj(c_1) c_2, conj coords(c) (x) coords(d), and the counit
    pair."""

    def __init__(self, subc, subd, c, d):
        q = subd.dim()
        jc, uc, vc, zc = subc.constants
        jd, ud, vd, zd = subd.constants
        if zc.size * zd.size > TERM_BUDGET:
            raise TermBudgetExceeded(
                f"doubled coalgebra of dimension {subc.dim()} x {q} has "
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

    factors lists (values, g) in interval order, values[a, b] being Psi on
    the a-th basis element of subc and the b-th of subd, and g a
    non-negative integer (g = 0 is the counit).  The structure constants
    are conj(c_1) c_2 over pairs of constants of the two subcoalgebras; the
    value is (conj delta (x) delta) T(Psi_1)^{g_1} ... T(Psi_k)^{g_k}
    (conj coords(c) (x) coords(d)).  Convolution is associative, so up to
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
    """e_*^{t psi}(p) = delta e^{t T(psi)} coords(p) on the subcoalgebra of p,
    the row taken by one of _routed_exp's routes."""
    sub = subcoalgebra_of(p, B)
    m, route = _transfer_route(psi, sub)
    row = _routed_exp(sub.counit_vector, m, t, route)
    return complex(row @ sub.coords(p))


def conv_exp_series(psi, t, p, B, tol=1e-12):
    """Independent oracle: partial sums of sum_n t^n psi^{*n}(p) / n!.

    psi^{*n} = psi o T^{n-1} for T = (id (x) psi) o Delta, so the series
    applies T once per term: v_0 = p, v_n = T v_{n-1}, and term n is
    t^n / n! psi(v_{n-1}).  It stops when v_n is exactly empty (the series
    is then finite and the sum exact), or after three consecutive n with
    |t|^n / n! ||v_n||_1 < tol.  It shares nothing with conv_exp but the
    carrier's key_delta and counit: no subcoalgebra, coordinates, transfer
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
    on a coalgebra is checked through this one: on a finite subcoalgebra the
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
