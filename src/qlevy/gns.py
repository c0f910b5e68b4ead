"""GNS-type construction of finite-dimensional Levy triples (rho, eta, psi).

A generator (hermitian, conditionally positive, psi(1) = 0) determines a
pre-Hilbert space K as the Gram quotient of the counit kernel, a cocycle
eta, and a *-representation rho, linked by

    psi(a b) = delta(a) psi(b) + psi(a) delta(b) + <eta(a*), eta(b)>
    eta(a b) = rho(a) eta(b) + eta(a) delta(b).

Given data on generators, both identities extend psi and eta to all words
recursively.  Both shipped builders carry a closed-form triple evaluated
this way: unitary_triple on U<d> from (W, L, H), and azema_triple on the
Azema bialgebra.  gns_construct builds the triple of a tabulated psi, and
it is the oracle of both closed forms.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .bialg import LinearFunctional
from .constructions import b0_basis, unitary_letter
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


def _c2j(z):
    # a complex number as the JSON pair [real, imag]
    z = complex(z)
    return [z.real, z.imag]


def _from_suffixes(memo, w, value):
    """memo[w], filled from the longest suffix of w that memo holds down, one
    letter at a time: memo[w[j:]] = value(w[j], w[j + 1:], memo[w[j + 1:]])."""
    i = 0
    while w[i:] not in memo:
        i += 1
    for j in reversed(range(i)):
        memo[w[j:]] = value(w[j], w[j + 1:], memo[w[j + 1:]])
    return memo[w]


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
        self.psi = psi if psi is not None else LinearFunctional(f"psi[{name}]", self._psi_word)

    # word-level recurrence on the first letter -----------------------------

    def eta_word(self, w):
        hit = self._eta_memo.get(w)
        if hit is None:
            hit = _from_suffixes(self._eta_memo, w, lambda g, rest, eta: self.rho1[g] @ eta
                                 + self.eta1[g] * self.B.key_counit(rest))
        return hit

    def rho_word(self, w):
        hit = self._rho_memo.get(w)
        if hit is None:
            hit = _from_suffixes(self._rho_memo, w, lambda g, _rest, rho: self.rho1[g] @ rho)
        return hit

    def _psi_word(self, w):
        # the recursion on psi, into the memo of self.psi.on_word, whose on_key this is
        self.psi._memo.setdefault((), complex(0.0))
        return _from_suffixes(self.psi._memo, w, lambda g, rest, psi: complex(
            self.B.key_counit((g,)) * psi + self.psi1[g] * self.B.key_counit(rest)
            + _inner(self.eta_word((self.B.algebra.adjoint_of(g),)), self.eta_word(rest))))

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
    """(basis, g, eig, vec, null, p): the counit-kernel basis at degree_cap,
    its Gram matrix g = [psi(v_i* v_j)], the eigenpairs of the hermitian part
    of g, NULL_TOL times their scale max(1, top eigenvalue), and the table
    p[a, b] = psi(a* b) on the normal words up to degree_cap, unit first,
    from which g = E^H p E, column j of E being w_j - delta(w_j) 1."""
    alg, nf, on_word = B.algebra, B.algebra.word_normal_form, psi.on_word
    basis = b0_basis(B, degree_cap)
    words = [()] + [w for w, _v in basis]
    stars = [tuple(alg.adjoint_of(x) for x in reversed(a)) for a in words]
    p = np.array([[sum((c * on_word(x) for x, c in nf(a + b).items()), complex(0.0))
                   for b in words] for a in stars], dtype=complex)
    e = np.vstack([[-B.key_counit(w) for w in words[1:]], np.eye(len(basis))])
    g = e.conj().T @ p @ e
    eig, vec = np.linalg.eigh((g + g.conj().T) / 2.0)
    return basis, g, eig, vec, NULL_TOL * float(eig.max(initial=1.0)), p


def check_conditional_positivity(psi, B, degree_cap=3):
    """Gram spectrum and hermiticity residual of psi on the counit kernel; it
    passes exactly when psi is hermitian and gns_construct builds a triple."""
    basis, g, eig, _vec, null, p = _kernel_spectrum(psi, B, degree_cap)
    # below the unit, column 0 holds psi(w*) and row 0 holds psi(w)
    herm_res = max(float(np.abs(g - g.conj().T).max(initial=0.0)),
                   float(np.abs(p[1:, 0] - p[0, 1:].conj()).max(initial=0.0)))
    return {
        "min_eigenvalue": float(eig.min()) if eig.size else 0.0,
        "max_eigenvalue": float(eig.max()) if eig.size else 0.0,
        "hermiticity_residual": herm_res,
        "dim": len(basis),
        "psi_unit": complex(p[0, 0]),
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
    basis, _g, eig, vec, null, _p = _kernel_spectrum(psi, B, degree_cap)
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
    # the eta table: the unit and every normal word up to the cap
    eta_words = {(): np.zeros(k_dim, dtype=complex)}
    eta_words.update((w, coords[i]) for i, (w, _v) in enumerate(basis))

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
            eta_gw = sum(c * eta_words[x] for x, c in gw.terms.items())
            rhs_cols.append(eta_gw - eta_g * B.key_counit(w))
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
        for name, a in (("W", self.W), ("L", self.L), ("H", self.H)):
            if not np.isfinite(a).all():   # NaN would pass the two tests below
                raise InvalidParameter(f"{name} must be finite")
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
    p = functools.partial(unitary_letter, d)
    s = functools.partial(unitary_letter, d, star=True)

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
# the Azema triple
# ---------------------------------------------------------------------------

def azema_triple(q, B, psi):
    """Levy triple of the Azema generator psi on make_azema(q)'s B.

    K = C, eta(x*) = 1, rho(y) = q, and every other generator value is 0
    (Schuermann, White Noise on Bialgebras, LNM 1544): psi(x x*) =
    <eta(x*), eta(x*)> = 1 is psi's only nonzero value on a normal word
    M(x, x*) y^k.  psi is kept as given, as gns_construct keeps it; the
    GNS quotient of (psi, B) is this triple up to rounding.
    """
    x, xs, y = (B.algebra.index(name) for name in ("x", "x*", "y"))
    zero = {x: 0.0, xs: 0.0, y: 0.0}
    return LevyTriple(B, 1, {**zero, xs: 1.0}, {**zero, y: float(q)}, zero,
                      psi=psi, name=f"azema-triple[{B.name}]")


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
        rho_a, eta_b, eps_b = t.rho(a), t.eta(b), B.counit(b)
        lhs = B.counit(a) * t.psi(b) - t.psi(ab) + t.psi(a) * eps_b
        rep["eq21"] = max(rep["eq21"], abs(lhs + _inner(t.eta(a_star), eta_b)))
        residuals = {
            "cocycle": t.eta(ab) - rho_a @ eta_b - t.eta(a) * eps_b,
            "rho_multiplicative": t.rho(ab) - rho_a @ t.rho(b),
            "rho_star": t.rho(a_star) - rho_a.conj().T,
        }
        for name, r in residuals.items():
            rep[name] = max(rep[name], float(np.abs(r).max(initial=0.0)))
    rep["max_residual"] = max(rep.values())
    return rep
