"""GNS-type construction of finite-dimensional Levy triples (rho, eta, psi).

A generator (hermitian, conditionally positive, psi(1) = 0) determines a
pre-Hilbert space K as the Gram quotient of the counit kernel, a cocycle
eta, and a *-representation rho, linked by

    psi(a b) = delta(a) psi(b) + psi(a) delta(b) + <eta(a*), eta(b)>
    eta(a b) = rho(a) eta(b) + eta(a) delta(b).

Given data on generators, both identities extend psi and eta to all words
recursively; this is how the U<d> triple built from (W, L, H) is evaluated.
"""

from __future__ import annotations

import warnings

import numpy as np

from .bialg import LinearFunctional, _c2j
from .constructions import b0_basis
from .errors import (
    InvalidParameter,
    PositivityViolation,
    RankDeficiencyWarning,
)
from .ncpoly import NcPoly, involute, multiply, normal_form

# relative to max(1, top Gram eigenvalue): an eigenvalue within +-NULL_TOL of 0
# counts as 0, one above spans a direction of K, one below violates positivity
NULL_TOL = 1e-9
HERMITICITY_TOL = 1e-10    # absolute: largest |psi(a*) - conj psi(a)| of a hermitian psi
PHASE_PIVOT_TOL = 1e-10    # absolute: the first eta coordinate above it fixes the phase
PARAM_TOL = 1e-12          # absolute: largest entry of W*W - 1 and of H - H*
RHO_RESIDUAL_TOL = 1e-6    # absolute: a larger rho least-squares residual warns


def _inner(a, b):
    """Sesquilinear inner product, conjugate-linear in the first slot."""
    return complex(np.vdot(np.asarray(a), np.asarray(b)))


class LevyTriple:
    """Levy triple specified on generators and extended recursively.

    eta1 / rho1 / psi1 map generator indices to a k_dim vector, a
    k_dim x k_dim matrix, and a complex number.  psi may be given exactly
    (the GNS route keeps the original generator functional); if omitted it
    is built from the recursion.
    """

    def __init__(self, B, k_dim, eta1, rho1, psi1, psi=None, name="levy-triple"):
        self.B = B
        self.k_dim = int(k_dim)
        self.eta1 = {g: np.asarray(v, dtype=complex).reshape(self.k_dim)
                     for g, v in eta1.items()}
        self.rho1 = {g: np.asarray(m, dtype=complex).reshape(self.k_dim, self.k_dim)
                     for g, m in rho1.items()}
        self.psi1 = dict(psi1)
        self.name = name
        self._eta_memo = {(): np.zeros(self.k_dim, dtype=complex)}
        self._rho_memo = {(): np.eye(self.k_dim, dtype=complex)}
        self._psi_memo = {(): 0.0 + 0.0j}
        self.psi = psi if psi is not None else LinearFunctional(f"psi[{name}]", self._psi_word)

    # word-level recursion -------------------------------------------------

    def eta_word(self, w):
        hit = self._eta_memo.get(w)
        if hit is None:
            g, rest = w[0], w[1:]
            hit = self.rho1[g] @ self.eta_word(rest) \
                + self.eta1[g] * self.B.key_counit(rest)
            self._eta_memo[w] = hit
        return hit

    def rho_word(self, w):
        hit = self._rho_memo.get(w)
        if hit is None:
            hit = self.rho1[w[0]] @ self.rho_word(w[1:])
            self._rho_memo[w] = hit
        return hit

    def _psi_word(self, w):
        hit = self._psi_memo.get(w)
        if hit is None:
            g, rest = w[0], w[1:]
            gstar = (self.B.algebra.adjoint_of(g),)
            hit = (self.B.key_counit((g,)) * self._psi_word(rest)
                   + self.psi1[g] * self.B.key_counit(rest)
                   + _inner(self.eta_word(gstar), self.eta_word(rest)))
            self._psi_memo[w] = hit
        return hit

    # linear / affine extensions -------------------------------------------

    def eta(self, p):
        """Affine extension eta(p) = eta(p - delta(p) 1)."""
        out = np.zeros(self.k_dim, dtype=complex)
        for w, c in p.terms.items():
            if w:
                out = out + c * self.eta_word(w)
        return out

    def rho(self, p):
        out = np.zeros((self.k_dim, self.k_dim), dtype=complex)
        for w, c in p.terms.items():
            out = out + c * self.rho_word(w)
        return out

    def to_json(self):
        return {
            "name": self.name,
            "k_dim": self.k_dim,
            "tol_used": NULL_TOL,
            "eta_on_gen": {str(g): [_c2j(z) for z in v] for g, v in self.eta1.items()},
            "rho_on_gen": {str(g): [[_c2j(z) for z in row] for row in m]
                           for g, m in self.rho1.items()},
            "psi_on_gen": {str(g): _c2j(z) for g, z in self.psi1.items()},
        }


# ---------------------------------------------------------------------------
# conditional positivity and the GNS quotient
# ---------------------------------------------------------------------------

def _kernel_spectrum(psi, B, degree_cap):
    """(basis, g, eig, vec, null): the counit-kernel basis at degree_cap, its
    Gram matrix g = [psi(v_i* v_j)], the eigenpairs of the hermitian part of
    g, and NULL_TOL times their scale max(1, top eigenvalue)."""
    alg = B.algebra
    basis = b0_basis(B, degree_cap)
    stars = [involute(v, alg) for _w, v in basis]
    g = np.array([[psi(multiply(vs, v, alg)) for _w, v in basis] for vs in stars],
                 dtype=complex).reshape(len(basis), len(basis))
    eig, vec = np.linalg.eigh((g + g.conj().T) / 2.0)
    return basis, g, eig, vec, NULL_TOL * float(eig.max(initial=1.0))


def check_conditional_positivity(psi, B, degree_cap=3):
    """Gram spectrum and hermiticity residual of psi on the counit kernel; it
    passes exactly when psi is hermitian and gns_construct builds a triple."""
    basis, g, eig, _vec, null = _kernel_spectrum(psi, B, degree_cap)
    herm_res = float(np.abs(g - g.conj().T).max())
    for w, _v in basis:
        p = NcPoly.word(w)
        herm_res = max(herm_res, abs(psi(involute(p, B.algebra))
                                     - complex(psi(p)).conjugate()))
    return {
        "min_eigenvalue": float(eig.min()) if eig.size else 0.0,
        "max_eigenvalue": float(eig.max()) if eig.size else 0.0,
        "hermiticity_residual": herm_res,
        "dim": len(basis),
        "psi_unit": complex(psi(NcPoly.one())),
        "passed": bool(eig.min(initial=0.0) >= -null and herm_res <= HERMITICITY_TOL),
    }


def gns_construct(psi, B, degree_cap=3):
    """Levy triple from a generator by eigen-quotient of the Gram matrix.

    K is spanned by the eigenvectors above NULL_TOL * max(1, top eigenvalue),
    and an eigenvalue below minus that raises PositivityViolation;
    eta of a kernel-basis word is its rescaled eigen-coordinate row, with
    the phase gauge fixed so the first significant coordinate entry of each
    eigendirection is real positive.  rho is obtained by least squares from
    rho(g) eta(w) = eta(g w).
    """
    alg = B.algebra
    basis, _g, eig, vec, null = _kernel_spectrum(psi, B, degree_cap)
    if eig.min(initial=0.0) < -null:
        raise PositivityViolation(
            f"Gram matrix has eigenvalue {eig.min():.3e} < 0 at cap {degree_cap}")
    keep = [i for i in range(eig.size) if eig[i] > null]
    keep.sort(key=lambda i: -eig[i])
    k_dim = len(keep)

    # eta coordinates: columns over K, rows over basis words
    coords = np.zeros((len(basis), k_dim), dtype=complex)
    for col, i in enumerate(keep):
        coords[:, col] = np.sqrt(eig[i]) * vec[:, i].conj()
        nz = np.nonzero(np.abs(coords[:, col]) > PHASE_PIVOT_TOL)[0]
        if nz.size:
            pivot = coords[nz[0], col]
            coords[:, col] *= abs(pivot) / pivot
    eta_words = {w: coords[i] for i, (w, _v) in enumerate(basis)}

    def eta_poly(p):
        out = np.zeros(k_dim, dtype=complex)
        for w, c in p.terms.items():
            if w == ():
                continue
            if w not in eta_words:
                raise InvalidParameter(
                    f"word of degree {len(w)} outside the cap-{degree_cap} kernel")
            out = out + c * eta_words[w]
        return out

    # rho(g) from least squares over words staying inside the cap
    rho1 = {}
    worst = 0.0
    for gen in range(alg.ngen()):
        lhs_cols, rhs_cols = [], []
        eta_g = eta_words.get((gen,), np.zeros(k_dim, dtype=complex))
        for w, _v in basis:
            gw = normal_form(NcPoly.word((gen,) + w), alg)
            if gw.degree() > degree_cap:
                continue
            lhs_cols.append(eta_words[w])
            # cocycle: rho(g) eta(w) = eta(g w) - eta(g) delta(w)
            rhs_cols.append(eta_poly(gw) - eta_g * B.key_counit(w))
        if k_dim == 0 or not lhs_cols:
            rho1[gen] = np.zeros((k_dim, k_dim), dtype=complex)
            continue
        e = np.array(lhs_cols).T
        f = np.array(rhs_cols).T
        m, *_ = np.linalg.lstsq(e.T, f.T, rcond=None)
        rho1[gen] = m.T
        res = float(np.abs(rho1[gen] @ e - f).max())
        worst = max(worst, res)
    if worst > RHO_RESIDUAL_TOL:
        warnings.warn(
            f"rho is only approximately well-defined (residual {worst:.2e}); "
            f"degree_cap {degree_cap} is likely too small",
            RankDeficiencyWarning)

    eta1 = {gen: eta_words.get((gen,), np.zeros(k_dim, dtype=complex))
            for gen in range(alg.ngen())}
    psi1 = {gen: complex(psi(NcPoly.word((gen,)))) for gen in range(alg.ngen())}
    t = LevyTriple(B, k_dim, eta1, rho1, psi1=psi1, psi=psi, name=f"gns[{B.name}]")
    # seed the memo with the exact Gram-quotient values on all basis words
    for w, v in eta_words.items():
        t._eta_memo[w] = v
    return t


# ---------------------------------------------------------------------------
# U<d> triples from (W, L, H)
# ---------------------------------------------------------------------------

class UnitaryTripleParams:
    """W unitary on C^d (x) K-bar, L a d x d block of K-bar vectors, H = H*."""

    def __init__(self, d, W, L, H):
        self.d = int(d)
        self.W = np.asarray(W, dtype=complex)
        self.L = np.asarray(L, dtype=complex)
        self.H = np.asarray(H, dtype=complex)
        if self.W.ndim != 2 or self.W.shape[0] != self.W.shape[1] or self.W.shape[0] % self.d:
            raise InvalidParameter("W must be square of size d * m")
        self.m = self.W.shape[0] // self.d
        if self.L.shape != (self.d, self.d, self.m):
            raise InvalidParameter(f"L must have shape ({self.d},{self.d},{self.m})")
        if self.H.shape != (self.d, self.d):
            raise InvalidParameter("H must be d x d")
        if np.abs(self.W.conj().T @ self.W - np.eye(self.d * self.m)).max() > PARAM_TOL:
            raise InvalidParameter("W must be unitary")
        if np.abs(self.H - self.H.conj().T).max() > PARAM_TOL:
            raise InvalidParameter("H must be self-adjoint")

    def w_block(self, k, l):
        """The (k, l) block of W as an operator on K-bar (1-based indices)."""
        m = self.m
        return self.W[(k - 1) * m:k * m, (l - 1) * m:l * m]


def unitary_triple(params):
    """Levy triple on U<d> from (W, L, H).

    rho(x_kl) = W_kl, eta(x_kl) = L_kl, psi(x_kl) = -1/2 (L L*)_kl + i H_kl;
    the starred generators follow from *-compatibility and the cocycle:
    rho(x_kl*) = (W_kl)*, eta(x_kl*) = -(W* L)_lk, psi(x_kl*) = conj psi(x_kl).
    """
    from .constructions import make_unitary_bialgebra

    d, m = params.d, params.m

    def p(k, l):
        return (k - 1) * d + (l - 1)

    def s(k, l):
        return d * d + (k - 1) * d + (l - 1)

    # (L L*)_kl = sum_i <L_ik, L_il>; (W* L)_kl = sum_i (W_ik)* L_il
    ll = np.einsum("ikm,ilm->kl", params.L.conj(), params.L)
    wsl = np.zeros((d, d, m), dtype=complex)
    for k in range(1, d + 1):
        for l in range(1, d + 1):
            acc = np.zeros(m, dtype=complex)
            for i in range(1, d + 1):
                acc += params.w_block(i, k).conj().T @ params.L[i - 1, l - 1]
            wsl[k - 1, l - 1] = acc

    eta1, rho1, psi1 = {}, {}, {}
    for k in range(1, d + 1):
        for l in range(1, d + 1):
            rho1[p(k, l)] = params.w_block(k, l)
            rho1[s(k, l)] = params.w_block(k, l).conj().T
            eta1[p(k, l)] = params.L[k - 1, l - 1]
            eta1[s(k, l)] = -wsl[l - 1, k - 1]
            z = -0.5 * ll[k - 1, l - 1] + 1j * params.H[k - 1, l - 1]
            psi1[p(k, l)] = z
            psi1[s(k, l)] = complex(z).conjugate()
    return LevyTriple(make_unitary_bialgebra(d), m, eta1, rho1, psi1=psi1,
                      name=f"unitary-triple(d={d},m={m})")


# ---------------------------------------------------------------------------
# residual checker
# ---------------------------------------------------------------------------

def levy_triple_residuals(t, n_samples=50, sample_degree=3, rng=None):
    """Max residuals of Eq-2.1-style identities on random sample pairs of t.B."""
    from .ncpoly import random_poly

    B = t.B
    alg = B.algebra
    rng = rng if rng is not None else np.random.default_rng(20080131)
    rep = {"eq21": 0.0, "cocycle": 0.0, "rho_multiplicative": 0.0, "rho_star": 0.0}
    for _ in range(n_samples):
        a = random_poly(alg, rng, sample_degree, n_terms=3)
        b = random_poly(alg, rng, sample_degree, n_terms=3)
        ab = multiply(a, b, alg)
        a_star = involute(a, alg)
        lhs = B.counit(a) * t.psi(b) - t.psi(ab) + t.psi(a) * B.counit(b)
        rep["eq21"] = max(rep["eq21"], abs(lhs + _inner(t.eta(a_star), t.eta(b))))
        coc = t.eta(ab) - t.rho(a) @ t.eta(b) - t.eta(a) * B.counit(b)
        rep["cocycle"] = max(rep["cocycle"],
                             float(np.abs(coc).max()) if coc.size else 0.0)
        dm = t.rho(ab) - t.rho(a) @ t.rho(b)
        rep["rho_multiplicative"] = max(rep["rho_multiplicative"],
                                        float(np.abs(dm).max()) if dm.size else 0.0)
        ds = t.rho(a_star) - t.rho(a).conj().T
        rep["rho_star"] = max(rep["rho_star"],
                              float(np.abs(ds).max()) if ds.size else 0.0)
    rep["max_residual"] = max(rep.values())
    return rep
