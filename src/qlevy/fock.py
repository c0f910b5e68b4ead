"""Truncated Boson Fock space numerics.

Creation / annihilation / preservation operators as plain matrices on an
occupation-number truncation of the one-interval Fock factor, exponential
vectors as plain amplitude vectors on it, the first-order generator processes

    I_{s,t}(b) = delta(b) I + A(eta(b*)) + Lambda(rho(b) - delta(b))
                 + A*(eta(b)) + psi(b - delta(b) 1) (t - s),

their infinitesimal convolution products over a partition, unitary product
evolutions for the unitary-matrix bialgebra, and the Azema / Wiener
transformation experiments.  A vacuum value of a convolution product is a
convolution product of the one-interval values <I(a) Omega, I(b) Omega> on
the doubled coalgebra, over the pairs of words of the two elements'
coideals with a and b their right legs R, evaluated by
subcoalg.doubled_product as the gram module's powers are; neither the
n-fold tensor space nor Delta_n is expanded, except in cross_path_report,
an independent check that lays out the Sweedler terms by gram.index_terms
and pairs them by one gram._TermPairs over per-step tables of one-interval
values.  Every consumer of a partition reads one table of it (_FockMesh):
one factor, the step classes (Partition.step_classes), whose intervals
share their values, and each generator block I_{t_r, t_{r+1}}(b) built once
per basis element and interval, so the Azema / Wiener products and their
QSDE residual, the cross-path report's Fock tables and a unitary
evolution's blocks share one source of blocks.  A unitary product evolution
advances all its unitarity probes together through one transfer matrix per
block.  All vacuum quantities computed here are a second path to the exact
one-interval semigroup values of the gram module.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .bialg import iterated_coproduct
from .errors import DimensionMismatch, InvalidParameter, TailBoundExceeded
from .ncpoly import NcPoly, involute, multiply
from .subcoalg import conv_exp, doubled_product, factor_table, subcoalgebra_of

DEFAULT_CAP = 8
FACTOR_DIM_CAP = 4096   # most basis states of one factor, the side of its dense operators


class FockFactor:
    """Occupation-number truncation of the symmetric Fock space over C^m.

    Basis: occupation tuples (n_1 .. n_m) with sum n_j <= cap, ordered by
    (total particle number, tuple).  dim = sum_{p<=cap} C(m+p-1, p).
    """

    def __init__(self, m, cap):
        for name, v in (("mode count m", m), ("particle cap", cap)):
            if not math.isfinite(v) or v != int(v):
                raise InvalidParameter(f"{name} must be finite and an integer, got {v}")
        self.m = int(m)
        self.cap = int(cap)
        if self.m < 0 or self.cap < 0:
            raise InvalidParameter("mode count and particle cap must be >= 0")
        big = max(self.m, self.cap) >= FACTOR_DIM_CAP   # too big; math.comb would be slow
        if big or math.comb(self.m + self.cap, self.m) > FACTOR_DIM_CAP:
            raise InvalidParameter(f"mode count m = {m:g} at particle cap {cap:g} "
                                   f"gives more than {FACTOR_DIM_CAP} basis states")
        # a p-particle state is a multiset of p modes
        multisets = (itertools.combinations_with_replacement(range(self.m), p)
                     for p in range(self.cap + 1))
        self.basis = sorted((tuple(map(ms.count, range(self.m)))
                             for ms in itertools.chain(*multisets)), key=lambda o: (sum(o), o))
        self.index = {occ: i for i, occ in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._create = {}

    def vacuum(self):
        v = np.zeros(self.dim, dtype=complex)
        v[self.index[(0,) * self.m]] = 1.0
        return v

    def creation(self, j):
        """Matrix of a_j^* truncated at the cap (top level is annihilated)."""
        hit = self._create.get(j)
        if hit is None:
            if not 0 <= j < self.m:
                raise DimensionMismatch(f"mode {j} out of range for m = {self.m}")
            mat = np.zeros((self.dim, self.dim), dtype=complex)
            for i, occ in enumerate(self.basis):
                if sum(occ) < self.cap:
                    up = occ[:j] + (occ[j] + 1,) + occ[j + 1:]
                    mat[self.index[up], i] = math.sqrt(occ[j] + 1)
            hit = self._create[j] = mat
        return hit

    def annihilation(self, j):
        return self.creation(j).conj().T


def _interval(interval):
    s, t = float(interval[0]), float(interval[1])
    if not (math.isfinite(t - s) and s < t):
        raise InvalidParameter(f"interval must be finite with positive length, got ({s}, {t})")
    return s, t


def quantum_noise_op(kind, arg, interval, factor):
    """A_{s,t}, Lambda_{s,t}, A*_{s,t} on a truncated factor, as its matrix.

    Creation for a vector k: sqrt(t-s) sum_j k_j a_j^*; annihilation is its
    exact adjoint (conjugated coefficients, same sqrt(t-s) scaling);
    preservation for a matrix T: sum_{jl} T_jl a_j^* a_l, no time scaling.
    A non-finite entry of k or T, or an operator that overflows, raises.
    """
    s, t = _interval(interval)
    m = factor.m
    if kind in ("creation", "annihilation"):
        name, k = "vector k", np.asarray(arg, dtype=complex).reshape(-1)
        if k.shape != (m,):
            raise DimensionMismatch(f"vector argument must have length {m}")
        mat = np.zeros((factor.dim, factor.dim), dtype=complex)
        for j in range(m):
            if k[j] != 0.0:   # NaN included, for the check below
                mat = mat + k[j] * factor.creation(j)
        mat = math.sqrt(t - s) * mat
        mat = mat.conj().T if kind == "annihilation" else mat
    elif kind == "preservation":
        name, T = "matrix T", np.asarray(arg, dtype=complex)
        if T.shape != (m, m):
            raise DimensionMismatch(f"matrix argument must be {m} x {m}")
        mat = np.zeros((factor.dim, factor.dim), dtype=complex)
        for j in range(m):
            for l in range(m):
                if T[j, l] != 0.0:
                    mat = mat + T[j, l] * (factor.creation(j) @ factor.annihilation(l))
    else:
        raise InvalidParameter(f"unknown noise operator kind {kind!r}")
    if not np.isfinite(mat).all():
        raise InvalidParameter(f"the {kind} {name} = {arg!r} gives a non-finite operator")
    return mat


# ---------------------------------------------------------------------------
# exponential vectors
# ---------------------------------------------------------------------------

def fock_inner(u, v):
    """<u, v>, conjugate-linear in u."""
    return complex(np.vdot(u, v))


def exp_tail_bound(z, cap):
    """sum_{p > cap} |z|^p / p!  (analytic truncation tail), summed from its
    first term until the terms past p = |z|, which fall at least
    geometrically, add nothing at double precision.  A non-finite z, or a
    tail that overflows, raises InvalidParameter."""
    z = abs(z)
    if not math.isfinite(z):
        raise InvalidParameter(f"exp_tail_bound: z must be finite, got {z}")
    p = cap + 1
    try:   # z^p / p! by logarithms: z^p alone may overflow where the tail does not
        term = math.exp(p * math.log(z) - math.lgamma(p + 1)) if z else 0.0
    except OverflowError:
        term = math.inf
    acc = 0.0
    while True:
        acc += term
        if acc == math.inf:
            raise InvalidParameter(f"exp_tail_bound: the tail at z = {z:g} overflows")
        # the terms after p sum to at most term * z / (p + 1 - z)
        if p + 1 > z and term * z <= 1e-17 * acc * (p + 1 - z):
            return acc
        p += 1
        term *= z / p


def exponential_vector(k, interval, factor):
    """Truncated exponential vector of the profile k (x) 1_{[s,t]} on one factor.

    Occupation amplitudes prod_j c_j^{n_j} / sqrt(n_j!) with c = k sqrt(t-s),
    so <E(f), E(g)> = exp((t-s) <k, k'>) up to the tail sum_{p>cap} |.|^p/p!.
    The heuristic precondition |k|^2 (t-s) <= ln(10) cap / 3 keeps that tail
    controlled; its violation raises TailBoundExceeded.
    """
    s, t = _interval(interval)
    k = np.asarray(k, dtype=complex).reshape(-1)
    if k.shape != (factor.m,):
        raise DimensionMismatch(f"profile vector must have length {factor.m}")
    if not np.isfinite(k).all():
        raise InvalidParameter(f"profile vector k must be finite, got {k}")
    z = float(np.vdot(k, k).real) * (t - s)
    if z > math.log(10.0) * factor.cap / 3.0:
        raise TailBoundExceeded(
            f"|k|^2 (t-s) = {z:.3g} exceeds the cap-{factor.cap} tail heuristic")
    c = k * math.sqrt(t - s)
    vec = np.zeros(factor.dim, dtype=complex)
    for i, occ in enumerate(factor.basis):
        amp = 1.0 + 0.0j
        for j, n in enumerate(occ):
            if n:
                amp *= c[j] ** n / math.sqrt(math.factorial(n))
        vec[i] = amp
    return vec


# ---------------------------------------------------------------------------
# generator processes and their convolution products
# ---------------------------------------------------------------------------

def generator_process(triple, b, interval, factor):
    """I_{s,t}(b) for a Levy triple, as a matrix on one factor."""
    if factor.m != triple.k_dim:
        raise DimensionMismatch(
            f"factor has {factor.m} modes but the triple has kDim {triple.k_dim}")
    s, t = _interval(interval)
    B = triple.B
    delta = complex(B.counit(b))
    eta_b = triple.eta(b)
    eta_bs = triple.eta(involute(b, B.algebra))
    rho_b = triple.rho(b) - delta * np.eye(triple.k_dim)
    psi0 = complex(triple.psi(b.sub(NcPoly.one().scale(delta))))
    mat = (delta + psi0 * (t - s)) * np.eye(factor.dim, dtype=complex)
    mat = mat + quantum_noise_op("annihilation", eta_bs, (s, t), factor)
    mat = mat + quantum_noise_op("creation", eta_b, (s, t), factor)
    if np.abs(rho_b).max() if rho_b.size else 0.0:
        mat = mat + quantum_noise_op("preservation", rho_b, (s, t), factor)
    return mat


class _FockMesh:
    """One partition's Fock data for one call: a FockFactor, the step classes
    (Partition.step_classes) and each generator block I_{t_r, t_{r+1}}(b),
    built by generator_process once per (basis element, interval).  It lives
    for one call only: a partition of random times never repeats a step."""

    def __init__(self, triple, partition, particle_cap):
        self.triple = triple
        self.times = partition.times
        self.first, self.of = partition.step_classes()
        self.factor = FockFactor(triple.k_dim, particle_cap)
        self._blocks = {}

    def block(self, b, r):
        """I(b) on the interval (t_r, t_{r+1}) of the partition."""
        interval = (self.times[r], self.times[r + 1])
        hit = self._blocks.get((b, interval))
        if hit is None:
            hit = self._blocks[b, interval] = generator_process(
                self.triple, b, interval, self.factor)
        return hit

    def table(self, left, right, r, vec):
        """values[a, b] = <I(left[a]) vec, I(right[b]) vec> on interval r."""
        def vectors(ps):
            return np.array([self.block(p, r) @ vec for p in ps])

        va = vectors(left)
        return va.conj() @ (va if right is left else vectors(right)).T

    def vacuum_factors(self, subc, subd, vec, slots=None):
        """One (values, g) per run of g equal steps over the first slots
        intervals (all by default), with values[a, b] = <I(a) vec, I(b) vec>
        over the bases R of the coideals subc and subd.  Classes are numbered in order of
        first interval, so those of the prefix are the ones it starts."""
        of = self.of[:slots]
        values = [self.table(subc.basis, subd.basis, r, vec) for r in self.first if r < len(of)]
        return [(values[k], len(list(run))) for k, run in itertools.groupby(of)]

    def vacuum_gram(self, c, d, B):
        """product_vacuum_gram on this mesh."""
        subc = subcoalgebra_of(c, B)
        subd = subcoalgebra_of(d, B)
        return doubled_product(subc, subd, c, d,
                               self.vacuum_factors(subc, subd, self.factor.vacuum()))


def product_vacuum_gram(triple, c, d, B, partition, particle_cap=DEFAULT_CAP):
    """<P_alpha(c) Omega, P_alpha(d) Omega> for the infinitesimal convolution
    product P_alpha(b) = sum over Delta_n(b) of I(b_(1)) (x) ... (x) I(b_(n)).

    It is the convolution product over the intervals of the one-interval
    functionals a (x) b -> <I(a) Omega, I(b) Omega> on the doubled coalgebra,
    with state the pairs of words of the coideals of c and d and a, b
    running over their bases R; no Sweedler expansion is formed.  B supplies
    the coproduct only, so it may be any coproduct on the triple's algebra
    (the primitive one sums the increments I(b) per interval).
    """
    return _FockMesh(triple, partition, particle_cap).vacuum_gram(c, d, B)


def cross_path_report(triple, b, B, psi, partition, particle_cap=DEFAULT_CAP):
    """Vacuum norm of the convolution product vs the exact gram-engine value.

    The fock side uses the first-order operators I_{s,t} (_vacuum_table);
    the gram side uses the exact one-interval semigroup values
    e_*^{dt psi}(a* b) of subcoalg.factor_table.  gram.index_terms lays out
    the Sweedler terms of Delta_n(b) over one table per step, on the
    distinct leg words of its slots, and each sum over every pair of terms
    is one call of the gram._TermPairs the three sums share.  The reported
    per-instance bound telescopes the per-interval deviations
    |<I(a) Omega, I(b) Omega> - phi_dt(a* b)| through the term-pair
    products and adds the (here zero: a single application of I creates at
    most one particle per slot) truncation tail.
    """
    from .gram import _TermPairs, index_terms

    n = partition.n_intervals()
    steps = partition.steps()
    mesh = _FockMesh(triple, partition, particle_cap)
    first, slot_class = mesh.first, mesh.of
    terms, words = index_terms([iterated_coproduct(b, n, B)], slot_class, len(first))
    polys = [[NcPoly.word(w) for w in ws] for ws in words]
    vac = mesh.factor.vacuum()
    ftabs = [mesh.table(ps, ps, r, vac) for r, ps in zip(first, polys)]
    gtabs = [factor_table(psi, steps[r], ps, ps, B) for r, ps in zip(first, polys)]
    pairs = _TermPairs([t.shape for t in ftabs], slot_class, terms, terms)
    coeffs = terms[0]
    fock_total = complex(pairs(ftabs, coeffs, coeffs)[0, 0])
    gram_total = complex(pairs(gtabs, coeffs, coeffs)[0, 0])

    # bound = sum_pairs |z_a z_b| sum_r |f_r - g_r| prod_{s != r} max(|f_s|, |g_s|)
    # is the h-derivative at 0 of prod_r (max(|f_r|, |g_r|) + i h |f_r - g_r|),
    # read by complex step as Im / h (Squire & Trapp, SIAM Review 40, 1998).  It
    # is exact to rounding: |f - g| <= 2 max(|f|, |g|) keeps the h^3 terms of Im
    # below 1e-55 relative, and the h^2 terms land in Re, where they vanish.
    h = 1e-30
    moduli = np.abs(coeffs).astype(complex)
    btabs = [np.maximum(abs(f), abs(g)) + 1j * h * abs(f - g) for f, g in zip(ftabs, gtabs)]
    bound = pairs(btabs, moduli, moduli)[0, 0].imag / h
    return {
        "n": n,
        "mesh": partition.mesh(),
        "fock_value": fock_total,
        "gram_value": gram_total,
        "defect": abs(fock_total - gram_total),
        "bound": float(bound),
        "tail": 0.0,
    }


# ---------------------------------------------------------------------------
# unitary product evolutions
# ---------------------------------------------------------------------------

class UnitaryEvolution:
    """Ordered product of per-interval d x d generator-block matrices.

    blocks lists each distinct block once, as a d x d list of matrices, and
    block_of[r] is the index of the block on interval r.  Blocks on distinct
    intervals act on their own tensor factor; matrix elements against
    factorized states are evaluated by chaining d^2 x d^2 transfer matrices,
    one per block and probe-variant pair, never enumerating the d^n block
    paths.
    """

    def __init__(self, params, factor, blocks, block_of):
        self.params = params
        self.factor = factor
        self.blocks = blocks
        self.block_of = block_of

    def vacuum_amplitude(self):
        """d x d matrix of <Omega, (U_alpha)_{ij} Omega>."""
        d = self.params.d
        om = self.factor.vacuum()
        values = [np.array([[np.vdot(om, blk[i][j] @ om) for j in range(d)]
                            for i in range(d)]) for blk in self.blocks]
        out = np.eye(d, dtype=complex)
        for b in self.block_of:
            out = out @ values[b]
        return out

    def unitarity_defect(self):
        """max |<U chi, U chi'> - <chi, chi'>| over a low-particle test family.

        chi ranges over e_j (x) Phi with Phi the vacuum or a one-particle
        excitation in a probe slot, the first, middle and last; this spans
        the reachable low-order part of the <= cap-1 particle subspace
        without materializing it.
        """
        d, m = self.params.d, self.factor.m
        n = len(self.block_of)
        probe_slots = sorted({0, n // 2, n - 1})
        # the vacuum, then one particle in each mode
        one = [self.factor.index[(0,) * mu + (1,) + (0,) * (m - mu - 1)] for mu in range(m)]
        variants = [self.factor.vacuum()] + list(np.eye(self.factor.dim, dtype=complex)[one])

        @functools.cache
        def transfer(b, u, v):
            # P[(k, k'), (l, l')] = <B_{kl} u, B_{k'l'} v> for block b, variants u, v
            blk = self.blocks[b]
            au = [[blk[k][l] @ variants[u] for l in range(d)] for k in range(d)]
            av = [[blk[k][l] @ variants[v] for l in range(d)] for k in range(d)]
            return np.array([[np.vdot(au[k][l], av[kp][lp]) for l in range(d) for lp in range(d)]
                             for k in range(d) for kp in range(d)])

        probes = [None] + [(r, v) for r in probe_slots
                           for v in range(1, len(variants))]
        pairs = [(pa, pb) for pa in probes for pb in probes]
        # the variant pair each probe pair carries in each probe slot
        at_slot = {r: [(pa[1] if pa is not None and pa[0] == r else 0,
                        pb[1] if pb is not None and pb[0] == r else 0)
                       for pa, pb in pairs] for r in probe_slots}
        # one row per probe pair, all advanced together outside probe slots
        rows = np.zeros((len(pairs), d * d), dtype=complex)
        rows[:, ::d + 1] = 1.0
        for r, b in enumerate(self.block_of):
            uv = at_slot.get(r)
            if uv is None:
                rows = rows @ transfer(b, 0, 0)
            else:
                rows = np.array([row @ transfer(b, u, v) for row, (u, v) in zip(rows, uv)])
        want = np.zeros(rows.shape)
        for k, (pa, pb) in enumerate(pairs):
            if pa == pb:
                want[k, ::d + 1] = 1.0
        return float(np.abs(rows - want).max())


def unitary_product_evolution(params, d, partition, particle_cap=DEFAULT_CAP):
    """Product evolution U_alpha = I_{t0,t1} ... I_{tn-1,tn} of generator
    blocks for the (W, L, H) triple, plus its unitarity defect."""
    from .constructions import unitary_letter
    from .gns import unitary_triple

    if int(d) != params.d:
        raise InvalidParameter("d does not match the parameter set")
    mesh = _FockMesh(unitary_triple(params), partition, particle_cap)
    letters = range(1, params.d + 1)
    blocks = [[[mesh.block(NcPoly.word((unitary_letter(params.d, i, j),)), r) for j in letters]
               for i in letters] for r in mesh.first]
    evo = UnitaryEvolution(params, mesh.factor, blocks, mesh.of)
    return evo, evo.unitarity_defect()


# ---------------------------------------------------------------------------
# Azema / Wiener experiment
# ---------------------------------------------------------------------------

def azema_wiener_experiment(q, partition, cap=DEFAULT_CAP):
    """Both transformation directions of the Azema / Wiener pair on Fock space.

    Wiener from Azema increments: the sum of per-interval Z = I(x + x*)
    applied to the vacuum, versus the primitive-structure (Brownian) target.
    Azema from Wiener increments: the convolution product of I(x + x*) over
    the Azema coproduct (creation / annihilation heads with second-quantized
    y tails), versus the Azema-structure target.  Also reports the discrete
    residual of dX = (q - 1) X dLambda + dA on a coherent-type test vector.
    The triple is gns.azema_triple, in closed form: both shipped builders
    carry one, and the GNS quotient of (psi, B) is its test oracle.  So each
    last-slot operator equals its QSDE operator exactly, and the residual
    reads 0 at every mesh and q.
    """
    from .constructions import make_azema
    from .gns import azema_triple

    B, primitive, psi = make_azema(q)
    return azema_wiener_mesh(q, B, primitive, psi, azema_triple(q, B, psi), partition, cap)


def azema_wiener_mesh(q, B, primitive, psi, triple, partition, cap):
    """azema_wiener_experiment on make_azema(q)'s (B, primitive, psi) and
    its azema_triple, built once for every mesh of a run."""
    alg = B.algebra
    n = partition.n_intervals()
    times = partition.times
    tau = partition.t - partition.s
    x = NcPoly.word((0,))
    w = NcPoly({(0,): 1.0, (1,): 1.0})          # x + x*
    wsq = multiply(involute(w, alg), w, alg)

    mesh = _FockMesh(triple, partition, cap)

    # Wiener from Azema increments: x + x* is primitive in the primitive
    # coproduct, so sum_j Z_{t_j, t_{j+1}} is its convolution product there
    wiener_norm = mesh.vacuum_gram(w, w, primitive).real
    wiener_target = complex(conv_exp(psi, tau, wsq, primitive)).real

    # Azema from Wiener increments: the infinitesimal convolution product
    azema_norm = mesh.vacuum_gram(w, w, B).real
    azema_target = complex(conv_exp(psi, tau, wsq, B)).real
    x_vacuum_norm = mesh.vacuum_gram(x, x, B).real

    # discrete QSDE residual over the last subinterval: Delta x = x (x) y + 1 (x) x
    # makes r = X_{n-1}(x) (x) (I(y) - 1 - (q-1) Lambda) + 1 (x) (I(x) - A), a
    # convolution product whose last slot carries I(a) minus the QSDE operator
    qsde_residual = None
    if n >= 2:
        factor = mesh.factor
        tail = (times[-2], times[-1])
        ident = np.eye(factor.dim, dtype=complex)
        lam = quantum_noise_op("preservation", np.eye(factor.m), tail, factor)
        ann = quantum_noise_op("annihilation", np.ones(factor.m), tail, factor)
        # the QSDE operator of each word of the basis R = {1, x, y} of x's coideal
        qsde_op = {(): ident, (0,): ann, (2,): ident + (q - 1.0) * lam}
        probe = factor.vacuum()
        for mu in range(factor.m):
            occ = (0,) * mu + (1,) + (0,) * (factor.m - mu - 1)
            probe[factor.index[occ]] = 0.5
        sub = subcoalgebra_of(x, B)
        # the first n - 1 slots, grouped by the mesh's step classes
        factors = mesh.vacuum_factors(sub, sub, probe, n - 1)
        last = np.array([(mesh.block(a, n - 1) - qsde_op[next(iter(a.terms))]) @ probe
                         for a in sub.basis])
        factors.append((last.conj() @ last.T, 1))
        qsde_residual = math.sqrt(max(doubled_product(sub, sub, x, x, factors).real, 0.0))

    return {
        "q": float(q),
        "t": tau,
        "n": n,
        "mesh": partition.mesh(),
        "wiener_norm_sq": wiener_norm,
        "wiener_target": wiener_target,
        "wiener_defect": abs(wiener_norm - wiener_target),
        "azema_norm_sq": azema_norm,
        "azema_target": azema_target,
        "azema_defect": abs(azema_norm - azema_target),
        "x_vacuum_norm_sq": x_vacuum_norm,
        "qsde_residual": qsde_residual,
    }
