"""Finite-dimensional subcoalgebras, convolution exponentials, product bounds.

Every element of a coalgebra sits inside a finite-dimensional subcoalgebra
(Fundamental Theorem of Coalgebras); on such a subcoalgebra the convolution
exponential e_*^{t psi} becomes delta o expm(t T(psi)) for the transfer
matrix T(psi) = (id (x) psi) o Delta.  The module also ships the checkers
for the two infinitesimal-product error bounds used in the convergence
experiments: a Banach-algebra version on matrices and the coalgebra version
phrased through functionals.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimCapExceeded, InvalidParameter, MeshTooCoarse, NonConvergence
from .linalg import LinearSpan
from .ncpoly import NcPoly

DIM_CAP = 512
SERIES_MAX_TERMS = 64


# ---------------------------------------------------------------------------
# subcoalgebra extraction
# ---------------------------------------------------------------------------

class Subcoalgebra:
    """Delta-closed span with structure constants over its own basis.

    basis[i] is an NcPoly; delta_constants[i, j, k] gives
    Delta(basis[i]) = sum_jk c[i, j, k] basis[j] (x) basis[k].
    """

    def __init__(self, B, basis, span):
        self.B = B
        self.basis = basis
        self._span = span
        n = len(basis)
        self.counit_vector = np.array([B.counit(b) for b in basis])
        self.delta_constants = self._structure_constants()
        self._transfers = {}    # functional -> transfer matrix
        assert self.delta_constants.shape == (n, n, n)

    def dim(self):
        return len(self.basis)

    def coords(self, p):
        terms = p.terms if isinstance(p, NcPoly) else p
        x, res = self._span.coords(terms)
        if x is None:
            raise InvalidParameter(
                f"element outside the subcoalgebra (residual {res:.2e})")
        out = np.zeros(self.dim(), dtype=complex)
        out[: len(x)] = x
        return out

    def _structure_constants(self):
        # Delta b_i = sum_uv Z_i[u, v] u (x) v with u, v spanned by the basis:
        # solve A C_i A^T = Z_i column-wise through the word-coordinate matrix A
        n = self.dim()
        cols = {}
        deltas = [self.B.coproduct(b) for b in self.basis]
        for d in deltas:
            for (u, v) in d.terms:
                cols.setdefault(u, len(cols))
                cols.setdefault(v, len(cols))
        for b in self.basis:
            for w in b.terms:
                cols.setdefault(w, len(cols))
        a = np.zeros((len(cols), n), dtype=complex)
        for j, b in enumerate(self.basis):
            for w, c in b.terms.items():
                a[cols[w], j] = c
        pinv = np.linalg.pinv(a, rcond=1e-12)
        out = np.zeros((n, n, n), dtype=complex)
        for i, d in enumerate(deltas):
            z = np.zeros((len(cols), len(cols)), dtype=complex)
            for (u, v), c in d.terms.items():
                z[cols[u], cols[v]] += c
            out[i] = pinv @ z @ pinv.T
        return out

    def check(self):
        """Residual of the structure constants against the coproduct."""
        worst = 0.0
        for i, b in enumerate(self.basis):
            d = self.B.coproduct(b)
            rebuilt = {}
            for j in range(self.dim()):
                for k in range(self.dim()):
                    c = self.delta_constants[i, j, k]
                    if abs(c) < 1e-14:
                        continue
                    for u, cu in self.basis[j].terms.items():
                        for v, cv in self.basis[k].terms.items():
                            key = (u, v)
                            rebuilt[key] = rebuilt.get(key, 0.0) + c * cu * cv
            for key, c in d.terms.items():
                rebuilt[key] = rebuilt.get(key, 0.0) - c
            worst = max(worst, max((abs(c) for c in rebuilt.values()), default=0.0))
        return worst


def subcoalgebra_of(p, B, dim_cap=DIM_CAP):
    """Smallest Delta-closed span containing p, by leg-collection fixpoint."""
    if dim_cap < 1:
        raise InvalidParameter("dim_cap must be >= 1")
    span = LinearSpan()
    basis = []

    def push(terms):
        terms = {k: c for k, c in terms.items() if abs(c) > 1e-14}
        if not terms:
            return False
        if span.add(terms):
            basis.append(NcPoly(dict(terms)))
            if len(basis) > dim_cap:
                raise DimCapExceeded(
                    f"subcoalgebra of {p.pretty(B.algebra)} exceeds cap {dim_cap}")
            return True
        return False

    push(p.terms)
    frontier = list(basis)
    while frontier:
        nxt = []
        for b in frontier:
            d = B.coproduct(b)
            left, right = {}, {}
            for (u, v), c in d.terms.items():
                left.setdefault(v, {})
                left[v][u] = left[v].get(u, 0.0) + c
                right.setdefault(u, {})
                right[u][v] = right[u].get(v, 0.0) + c
            before = len(basis)
            for legs in (left, right):
                for terms in legs.values():
                    push(terms)
            nxt.extend(basis[before:])
        frontier = nxt
    return Subcoalgebra(B, basis, span)


# ---------------------------------------------------------------------------
# transfer matrix and convolution exponential
# ---------------------------------------------------------------------------

def transfer_matrix(psi, sub):
    """Matrix of T(psi) = (id (x) psi) o Delta on the basis of sub."""
    m = sub._transfers.get(psi)
    if m is None:
        psi_vals = np.array([psi(b) for b in sub.basis])
        # (id (x) psi) Delta b_j = sum_i (sum_k c[j,i,k] psi(b_k)) b_i
        m = sub._transfers[psi] = np.einsum("jik,k->ij", sub.delta_constants, psi_vals)
    return m


def _cached_sub(p, B, dim_cap):
    key = p.key()
    hit = B._subs.get(key)
    if hit is None:
        hit = B._subs[key] = subcoalgebra_of(p, B, dim_cap)
    return hit


def conv_exp(psi, t, p, B, sub=None, dim_cap=DIM_CAP):
    """delta o expm(t T(psi)) applied to p; Eq.-style semigroup value."""
    if sub is None:
        sub = _cached_sub(p, B, dim_cap)
    m = transfer_matrix(psi, sub)
    x = sub.coords(p)
    if t == 0.0:
        return complex(sub.counit_vector @ x)
    y = scipy.linalg.expm(t * m) @ x
    return complex(sub.counit_vector @ y)


def conv_exp_series(psi, t, p, B, tol=1e-12, max_terms=SERIES_MAX_TERMS):
    """Independent oracle: partial sums of sum_n t^n psi^{*n}(p) / n!."""
    from .bialg import convolve_eval

    if tol <= 0:
        raise InvalidParameter("tol must be positive")
    total = complex(B.counit(p))
    fact = 1.0
    recent = []
    for n in range(1, max_terms + 1):
        fact *= n
        term = (t ** n) / fact * convolve_eval([psi] * n, p, B)
        total += term
        recent.append(abs(term))
        if len(recent) >= 3 and all(r < tol for r in recent[-3:]):
            return total, n + 1
    raise NonConvergence(
        f"convolution-exponential series did not settle in {max_terms} terms")


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


def _opnorm(m):
    return float(np.linalg.norm(m, 2))


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
    g = np.asarray(spec.baseline, dtype=complex)
    n = g.shape[0]
    steps = partition.steps()
    span = partition.t - partition.s
    target = scipy.linalg.expm(span * g)
    norm_g = _opnorm(g)
    c = float(spec.C) if spec.C is not None else 0.0
    bound = (mesh * span * np.exp(span * max(norm_g, c))
             * (c ** 2 + norm_g ** 2 * np.exp(mesh * norm_g)) / 2.0)
    worst = 0.0
    for _ in range(draws):
        prod = np.eye(n, dtype=complex)
        for r in steps:
            a = np.eye(n, dtype=complex) + r * g
            if spec.remainder is not None:
                mu = int(rng.integers(spec.n_choices))
                a = a + np.asarray(spec.remainder(r, mu), dtype=complex)
            prod = prod @ a
        worst = max(worst, _opnorm(prod - target))
    return {
        "lhs_max": worst,
        "bound": float(bound),
        "passed": bool(worst <= bound + 1e-12),
        "mesh": mesh,
        "draws": draws,
        "norm_G": norm_g,
        "C": c,
    }


def coalgebra_product_check(spec, p, B, partition, draws=20, rng=None,
                            dim_cap=DIM_CAP):
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
    sub = _cached_sub(p, B, dim_cap)
    psi = spec.baseline
    g = transfer_matrix(psi, sub)
    steps = partition.steps()
    span = partition.t - partition.s
    x = sub.coords(p)
    target = complex(sub.counit_vector @ (scipy.linalg.expm(span * g) @ x))

    def remainder_matrix(r, mu):
        rem = spec.remainder(r, mu)
        vals = np.array([rem(b) for b in sub.basis])
        return np.einsum("jik,k->ij", sub.delta_constants, vals)

    # operator infinity-norm = max-abs coordinate operator norm
    def inf_norm(m):
        return float(np.abs(m).sum(axis=1).max()) if m.size else 0.0

    psi_c = inf_norm(g)
    c_c = 0.0
    if spec.remainder is not None:
        for r in set(steps):
            for mu in range(spec.n_choices):
                s_norm = inf_norm(remainder_matrix(r, mu))
                c_c = max(c_c, np.sqrt(2.0 * s_norm) / r)
    # |delta(v)| <= ||counit_vector||_1 ||v||_inf and ||coords(p)||_inf scale
    delta_norm = float(np.abs(sub.counit_vector).sum())
    p_norm = float(np.abs(x).max()) if x.size else 0.0
    bound = (mesh * span * np.exp(span * max(psi_c, c_c))
             * (c_c ** 2 + psi_c ** 2 * np.exp(mesh * psi_c)) / 2.0
             * delta_norm * p_norm)
    worst = 0.0
    eye = np.eye(sub.dim(), dtype=complex)
    for _ in range(draws):
        prod = eye
        for r in steps:
            a = eye + r * g
            if spec.remainder is not None:
                mu = int(rng.integers(spec.n_choices))
                a = a + remainder_matrix(r, mu)
            prod = prod @ a
        val = complex(sub.counit_vector @ (prod @ x))
        worst = max(worst, abs(val - target))
    return {
        "lhs_max": worst,
        "bound": float(bound),
        "passed": bool(worst <= bound + 1e-12),
        "mesh": mesh,
        "draws": draws,
        "Psi_c": psi_c,
        "C_c": c_c,
        "dim": sub.dim(),
    }
