"""Finite-dimensional subcoalgebras, convolution exponentials, product bounds.

Every element of a coalgebra sits inside a finite-dimensional subcoalgebra
(Fundamental Theorem of Coalgebras); on such a subcoalgebra the convolution
exponential e_*^{t psi} becomes delta o expm(t T(psi)) for the transfer
matrix T(psi) = (id (x) psi) o Delta.  Each counit row delta e^{t T} takes
one of two routes: a T with no nonzero entry on or below the diagonal (Azema's,
psi being 0 on group-likes) is nilpotent, and its Taylor sum ends, exact up to
rounding; any other T takes dense scipy.linalg.expm.

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
(a subcoalgebra holds T(psi) per functional, no row per step), and doubled_product
evaluates the Gram and Fock vacuum values of infinitesimal products on the
doubled coalgebra conj(C) (x) C of two subcoalgebras as convolution powers
Psi^{*g} = T(Psi)^g.  The module also ships
the checkers for the two infinitesimal-product error bounds used in the
convergence experiments: a Banach-algebra version on matrices and the
coalgebra version phrased through functionals.  A ProductFamilySpec owns the
memo of its matrix-case targets e^{span G} and ||G||_2, one entry per span.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.linalg
import scipy.sparse

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
        self._words = words
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
        self._transfers = weakref.WeakKeyDictionary()   # functional -> matrix

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

    def check(self, B):
        """Residual of the structure constants against the coproduct of
        the carrier B."""
        rebuilt = [{} for _ in self.basis]
        for j, u, v, c in zip(*self.constants):
            key = (self._words[u], self._words[v])
            rebuilt[j][key] = rebuilt[j].get(key, 0.0) + c
        worst = 0.0
        for got, w in zip(rebuilt, self._words):
            for key, c in B.key_delta(w).items():
                got[key] = got.get(key, 0.0) - c
            worst = max(worst, max((abs(c) for c in got.values()), default=0.0))
        return worst


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

def _transfer(f, sub):
    """Matrix of T(f) = (id (x) f) o Delta on the basis of sub."""
    j, u, v, c = sub.constants
    vals = np.array([f(b) for b in sub.basis], dtype=complex)
    m = np.zeros((sub.dim(), sub.dim()), dtype=complex)
    # (id (x) f) Delta b_j = sum c f(b_v) b_u
    np.add.at(m, (u, j), c * vals[v])
    return m


def transfer_matrix(psi, sub):
    """Matrix of T(psi) on the basis of sub, held by sub."""
    m = sub._transfers.get(psi)
    if m is None:
        m = sub._transfers[psi] = _transfer(psi, sub)
    return m


def _counit_row(delta, m, t):
    """delta e^{t m}.  A strictly upper triangular m (m^d = 0 at side d) sums
    v_k = (t / k) v_{k-1} m from v_0 = delta until v_k is exactly zero, at most
    d terms even where an overflow makes NaN; any other m takes dense expm."""
    if not np.isfinite(t):
        raise InvalidParameter(f"t must be finite, got {t}")
    if np.tril(m).any():
        row = delta @ scipy.linalg.expm(t * m)
    else:
        row = v = delta
        for k in range(1, len(delta)):
            v = (t / k) * (v @ m)
            if not v.any():
                break
            row = row + v
    if not np.isfinite(row).all():
        raise InvalidParameter(
            f"e^{{t T(psi)}} at t = {t:.15g} overflowed" if np.isfinite(m).all()
            else "T(psi) has a non-finite entry")
    return row


def factor_table(psi, dt, left, right, B):
    """Table [i, j] = e_*^{dt psi}(left[i]* right[j]) for one step dt.

    Delta is multiplicative, so the words of all products left[i]* right[j]
    close to one subcoalgebra S (owned by B); each value is the counit row
    delta e^{dt T_S(psi)} (exact sum if nilpotent, else dense expm), taken
    once per call and read against coords_S of its product.  S holds T_S(psi),
    not the row: a partition with random times never repeats a step.
    """
    prods = [multiply(involute(a, B.algebra), b, B.algebra) for a in left for b in right]
    try:
        sub = subcoalgebra_of(NcPoly({w: 1.0 for p in prods for w in p.terms}), B)
        row = _counit_row(sub.counit_vector, transfer_matrix(psi, sub), dt)
    except (DimCapExceeded, InvalidParameter) as err:
        raise type(err)(f"Gram factor table at step {dt:.15g}: {err}") from None
    at = sub._index
    return np.array([sum(c * row[at[w]] for w, c in p.terms.items()) for p in prods],
                    dtype=complex).reshape(len(left), len(right))


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
    sparse matrix-vector products.
    """
    for k, (_, g) in enumerate(factors):
        if not isinstance(g, (int, np.integer)) or g < 0:
            raise InvalidParameter(
                f"doubled_product: power g of factor {k} must be a non-negative "
                f"integer, got {g!r}")
    q = subd.dim()
    jc, uc, vc, zc = subc.constants
    jd, ud, vd, zd = subd.constants
    if zc.size * zd.size > TERM_BUDGET:
        raise TermBudgetExceeded(
            f"doubled coalgebra of dimension {subc.dim()} x {q} has "
            f"{zc.size * zd.size} structure constants, more than {TERM_BUDGET}")
    # (id (x) Psi) Delta of the pair (j1, j2): sum conj(c1) c2 Psi[v1, v2] (u1, u2)
    rows = np.add.outer(uc * q, ud).ravel()
    cols = np.add.outer(jc * q, jd).ravel()
    coeffs = np.multiply.outer(zc.conj(), zd)
    size = subc.dim() * q
    x = np.kron(subc.coords(c).conj(), subd.coords(d))
    for values, g in reversed(factors):
        vals = (coeffs * values[np.ix_(vc, vd)]).ravel()
        if size <= DENSE_POWER_DIM:
            t = np.zeros((size, size), dtype=complex)
            np.add.at(t, (rows, cols), vals)
            x = np.linalg.matrix_power(t, g) @ x
        else:
            t = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))
            for _ in range(g):
                x = t @ x
    return complex(np.kron(subc.counit_vector.conj(), subd.counit_vector) @ x)


def conv_exp(psi, t, p, B):
    """e_*^{t psi}(p) = delta e^{t T(psi)} coords(p) on the subcoalgebra of p:
    exact sum if T(psi) is nilpotent, else dense expm."""
    sub = subcoalgebra_of(p, B)
    row = _counit_row(sub.counit_vector, transfer_matrix(psi, sub), t)
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
    """Family A_r^{(mu)} = I + r G + S_r^{(mu)} (matrix case) or
    f_r^{(mu)} = delta + r psi + R_r^{(mu)} (functional case).

    remainder(r, mu) returns the perturbation for interval length r and
    choice index mu in range(n_choices); it may be None for the exact family.
    Constants: R bounds the admissible mesh, C the matrix-case remainder
    constant (||S_r|| <= r^2 C^2 / 2).
    """

    def __init__(self, kind, baseline, remainder=None, n_choices=1, R=1.0, C=None):
        if kind not in ("matrix-family", "functional-family"):
            raise InvalidParameter(f"unknown family kind {kind!r}")
        self.kind = kind
        self.baseline = baseline
        self.remainder = remainder
        self.n_choices = int(n_choices)
        self.R = float(R)
        self.C = C
        self._targets = {}      # span -> (e^{span G}, ||G||_2), matrix case

    def target(self, span):
        """e^{span G} and the operator norm of G, memoized per span."""
        got = self._targets.get(span)
        if got is None:
            g = np.asarray(self.baseline, dtype=complex)
            if not np.isfinite(g).all():
                raise InvalidParameter("matrix-family baseline G is not finite")
            got = self._targets[span] = (scipy.linalg.expm(span * g), _opnorm(g))
        return got


def _opnorm(m):
    # the LAPACK call of np.linalg.norm(m, 2), without its axis handling
    return float(np.linalg.svd(m, compute_uv=False).max())


def _product_bound(mesh, span, norm, c):
    return (mesh * span * np.exp(span * max(norm, c))
            * (c ** 2 + norm ** 2 * np.exp(mesh * norm)) / 2.0)


def _draw_products(spec, partition, g, remainder_matrix, draws, rng, who):
    """Yield each draw's product of I + r g + remainder_matrix(remainder(r, mu)),
    mu random per step.  It is checked once per draw: a product that is not
    finite raises, naming the first non-finite step by its interval and mu."""
    times, steps, eye = partition.times, partition.steps(), np.eye(len(g), dtype=complex)
    base = {r: eye + r * g for r in set(steps)}    # shared, never written to
    for _ in range(draws):
        prod, taken = eye, []
        for r in steps:
            a, mu = base[r], None
            if spec.remainder is not None:
                mu = int(rng.integers(spec.n_choices))
                a = a + remainder_matrix(spec.remainder(r, mu))
            taken.append((a, mu))
            prod = prod @ a
        if not np.isfinite(prod).all():
            k = next((k for k, (a, _) in enumerate(taken) if not np.isfinite(a).all()), None)
            where = "overflowed" if k is None else (
                f"is not finite on [{times[k]:.15g}, {times[k + 1]:.15g}] at mu = {taken[k][1]}")
            raise InvalidParameter(f"{who}: the step product {where}")
        yield prod


def banach_product_check(spec, partition, draws=100, rng=None):
    """Check the Banach-algebra product bound on random mu-choices.

    LHS is the operator norm (largest singular value) of the infinitesimal
    product minus e^{(t-s)G}; RHS is the proved bound
    ||alpha|| (t-s) e^{(t-s) max(||G||, C)} (C^2 + ||G||^2 e^{||alpha|| ||G||}) / 2.
    """
    if spec.kind != "matrix-family":
        raise InvalidParameter("banach_product_check needs a matrix family")
    mesh = partition.mesh()
    if mesh > spec.R:
        raise MeshTooCoarse(f"mesh {mesh:g} exceeds admissible R = {spec.R:g}")
    rng = rng if rng is not None else np.random.default_rng(20080131)
    span = partition.t - partition.s
    target, norm_g = spec.target(span)
    c = float(spec.C) if spec.C is not None else 0.0
    bound = _product_bound(mesh, span, norm_g, c)
    g = np.asarray(spec.baseline, dtype=complex)
    prods = _draw_products(spec, partition, g, np.asarray, draws, rng, "banach_product_check")
    worst = max((_opnorm(prod - target) for prod in prods), default=0.0)
    return {
        "lhs_max": worst,
        "bound": float(bound),
        "passed": bool(worst <= bound + BOUND_SLACK),
        "mesh": mesh,
        "draws": draws,
        "norm_G": norm_g,
        "C": c,
    }


def coalgebra_product_check(spec, p, B, partition, draws=20, rng=None):
    """Coalgebra version of the product bound, on the subcoalgebra of p.

    The functional product f^{(mu_1)} * ... * f^{(mu_n)}(p) is evaluated
    through transfer matrices (T is a homomorphism from the convolution
    algebra); the constants are computed, not assumed, as operator norms in
    the max-abs coordinate norm on the extracted subcoalgebra.
    """
    if spec.kind != "functional-family":
        raise InvalidParameter("coalgebra_product_check needs a functional family")
    mesh = partition.mesh()
    if mesh > spec.R:
        raise MeshTooCoarse(f"mesh {mesh:g} exceeds admissible R = {spec.R:g}")
    rng = rng if rng is not None else np.random.default_rng(20080131)
    sub = subcoalgebra_of(p, B)
    g = transfer_matrix(spec.baseline, sub)
    span = partition.t - partition.s
    x = sub.coords(p)
    target = complex(_counit_row(sub.counit_vector, g, span) @ x)

    # operator infinity-norm = max-abs coordinate operator norm
    def inf_norm(m):
        return float(np.abs(m).sum(axis=1).max()) if m.size else 0.0

    psi_c = inf_norm(g)
    c_c = 0.0
    if spec.remainder is not None:
        for r in set(partition.steps()):
            for mu in range(spec.n_choices):
                s_norm = inf_norm(_transfer(spec.remainder(r, mu), sub))
                if not np.isfinite(s_norm):
                    raise InvalidParameter(f"coalgebra_product_check: remainder at step "
                                           f"r = {r:.15g}, mu = {mu} is not finite")
                c_c = max(c_c, np.sqrt(2.0 * s_norm) / r)
    # |delta(v)| <= ||counit_vector||_1 ||v||_inf and ||coords(p)||_inf scale
    delta_norm = float(np.abs(sub.counit_vector).sum())
    p_norm = float(np.abs(x).max()) if x.size else 0.0
    bound = _product_bound(mesh, span, psi_c, c_c) * delta_norm * p_norm
    prods = _draw_products(spec, partition, g, lambda f: _transfer(f, sub), draws, rng,
                           "coalgebra_product_check")
    worst = max((abs(complex(sub.counit_vector @ (prod @ x)) - target) for prod in prods),
                default=0.0)
    return {
        "lhs_max": worst,
        "bound": float(bound),
        "passed": bool(worst <= bound + BOUND_SLACK),
        "mesh": mesh,
        "draws": draws,
        "Psi_c": psi_c,
        "C_c": c_c,
        "dim": sub.dim(),
    }
