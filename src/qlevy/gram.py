"""Exact vacuum Gram data of infinitesimal convolution products.

The Levy process j is never materialized as operators here.  A vector of
the form j_{t0,t1}(b_1) ... j_{tn-1,tn}(b_n) Omega is identified with the
elementary tensor of its per-interval factors, and every inner product of
two such sums reduces -- after passing to the common refinement of the two
partitions -- to products of one-interval vacuum values

    <j_{u,v}(a) Omega, j_{u,v}(b) Omega> = e_*^{(v-u) psi}(a* b),

each computed by conv_exp.  This makes the engine exact up to
matrix-exponential precision and immune to Fock truncation error.  Where
one side holds a single entry a between two common points, the sum of these
values over the Sweedler legs of a is a convolution of functionals, taken as
a product of transfer matrices on the subcoalgebra of a in O(m dim^2) for m
sub-intervals (see gram).  Every reverse check, and every sweep whose
successive n divide each other, gives only such blocks and one-interval
ones; other ns lists give crossing blocks, which keep the term-by-term
expansion.
Convergence sweeps realize the transformation theorem numerically: the
theta_alpha products of a transported process, the zeta_alpha products of
the reverse transformation, defects against the limiting convolution
exponential, and Cauchy increments along dyadic mesh sequences.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from .bialg import TERM_BUDGET, LinearFunctional
from .constructions import GroupLikeBialgebra, Morphism
from .errors import InvalidParameter, TermBudgetExceeded
from .ncpoly import DROP_TOL, NcPoly, involute, multiply
from .partition import TIME_TOL, Partition, common_points
from .subcoalg import DIM_CAP, _cached_sub, _transfer, conv_exp

FACTOR_EVAL_WARN = 10 ** 5
DEFECT_FLOOR = 1e-13   # a sweep defect at or below this fits no rate constant


class FactorizedVectorSum:
    """Sum of elementary tensors of per-interval vectors j_{.}(b) Omega."""

    def __init__(self, partition):
        self.partition = partition
        self.terms = {}       # tuple of entry keys -> coefficient
        self.registry = {}    # entry key -> NcPoly

    def add_term(self, polys, coeff):
        if len(polys) != self.partition.n_intervals():
            raise InvalidParameter("one entry per subinterval required")
        self._add(tuple(self._register(p) for p in polys), coeff)

    def _register(self, p):
        k = p.key()
        self.registry.setdefault(k, p)
        return k

    def _add(self, keys, coeff):
        """add_term for entries already in the registry, given by key."""
        self.terms[keys] = self.terms.get(keys, 0.0) + coeff
        if abs(self.terms[keys]) <= DROP_TOL:
            del self.terms[keys]
        if len(self.terms) > TERM_BUDGET:
            raise TermBudgetExceeded(f"more than {TERM_BUDGET} factorized terms")

    def n_terms(self):
        return len(self.terms)

    @classmethod
    def singleton(cls, b, s, t):
        out = cls(Partition([s, t]))
        out.add_term((b,), 1.0)
        return out

    def refine(self, gamma, B):
        """Re-expand over a finer partition using iterated coproducts.

        Legitimate because the process satisfies j_{r,s} * j_{s,t} = j_{r,t};
        Gram values are unchanged by refinement.
        """
        if not gamma.refines(self.partition):
            raise InvalidParameter("target partition does not refine the source")
        ptimes = self.partition.times
        (layout,) = _side_layout(ptimes, (ptimes[0], ptimes[-1]), gamma.times)
        counts = tuple(m for _si, m in layout)
        out = FactorizedVectorSum(gamma)
        for keys, z in self.terms.items():
            polys = tuple(self.registry[k] for k in keys)
            for legs, c in _expand_slots(B, polys, counts):
                out.add_term(legs, z * c)
        return out


def identity_morphism(B):
    return Morphism(B, B, "algebra-homomorphism",
                    key_map=lambda k: NcPoly.word(k), name=f"id[{B.name}]")


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------

def theta_expand(c, kappa, alpha):
    """theta_alpha(c): Sweedler-expand the n-fold coproduct of c in the
    source carrier and push every leg through kappa into B; each distinct
    leg is mapped once per call."""
    source = kappa.source
    n = alpha.n_intervals()
    exp = source.iterated_coproduct(c, n)
    out = FactorizedVectorSum(alpha)
    images = {}   # source key -> entry key of its image
    for key_tuple, z in exp.terms.items():
        entries = []
        for k in key_tuple:
            e = images.get(k)
            if e is None:
                e = images[k] = out._register(kappa.map_key(k))
            entries.append(e)
        out._add(tuple(entries), z)
    return out


def zeta_expand(b, kappa_tilde, alpha, inner_mesh_factor=1):
    """zeta_alpha(b): legs of Delta_n(b) lifted by kappa-tilde into the
    group-like carrier; each group-like factor on an interval is itself
    represented through its (constant) theta expansion over a sub-partition
    with inner_mesh_factor equal pieces.

    A leg w becomes kappa-tilde(w) + counit(w) hat(1), which is hat(w) when
    w has counit 1; each distinct leg word is lifted once per call."""
    if inner_mesh_factor < 1:
        raise InvalidParameter("inner_mesh_factor must be >= 1")
    G = kappa_tilde.target
    if not isinstance(G, GroupLikeBialgebra):
        raise InvalidParameter("kappa_tilde must map into a group-like carrier")
    B = kappa_tilde.source
    n = alpha.n_intervals()
    exp = B.iterated_coproduct(b, n)
    times = []
    for a, t1 in zip(alpha.times, alpha.times[1:]):
        times.extend(np.linspace(a, t1, inner_mesh_factor + 1)[:-1])
    times.append(alpha.times[-1])
    gamma = Partition(times)
    out = FactorizedVectorSum(gamma)
    lifts = {}    # leg word -> [(entry key of a group-like polynomial, coefficient)]
    for word_tuple, z in exp.terms.items():
        leg_options = []
        for w in word_tuple:
            opts = lifts.get(w)
            if opts is None:
                lifted = kappa_tilde.map_key(w).add(G.one().scale(B.key_counit(w)))
                opts = lifts[w] = [(out._register(G.poly(k)), c)
                                   for k, c in lifted.terms.items()]
            leg_options.append(opts)
        for combo in itertools.product(*leg_options):
            coeff = z
            entries = []
            for k, c in combo:
                coeff *= c
                entries.extend([k] * inner_mesh_factor)
            out._add(tuple(entries), coeff)
    return out


# ---------------------------------------------------------------------------
# gram evaluation
# ---------------------------------------------------------------------------

def _factor_value(psi, B, dt, a_key, b_key, a, b):
    """One-interval vacuum value e_*^{dt psi}(a* b), memoized on B."""
    key = (psi, dt, a_key, b_key)
    hit = B._factors.get(key)
    if hit is None:
        prod = multiply(involute(a, B.algebra), b, B.algebra)
        hit = B._factors[key] = conv_exp(psi, dt, prod, B)
        if len(B._factors) == FACTOR_EVAL_WARN:
            warnings.warn(
                f"more than {FACTOR_EVAL_WARN} distinct Gram factor evaluations",
                RuntimeWarning)
    return hit


def _expand_slots(B, polys, counts):
    """Sweedler-expand a run of slots over their sub-interval counts.

    Returns a list of (leg polys across all sub-intervals, coefficient);
    expansions are memoized on B per (entry keys, counts).
    """
    key = (tuple(p.key() for p in polys), counts)
    hit = B._expansions.get(key)
    if hit is not None:
        return hit
    options = []
    for p, m in zip(polys, counts):
        if m == 1:
            options.append([((p,), 1.0)])
        else:
            exp = B.iterated_coproduct(p, m)
            options.append([(tuple(NcPoly.word(w) for w in legs), z)
                            for legs, z in exp.terms.items()])
    out = []
    for combo in itertools.product(*options):
        coeff = 1.0
        legs = []
        for ls, z in combo:
            coeff *= z
            legs.extend(ls)
        out.append((tuple(legs), coeff))
        if len(out) > TERM_BUDGET:
            raise TermBudgetExceeded("slot expansion exceeds the term budget")
    B._expansions[key] = out
    return out


def _side_layout(ptimes, common, gamma_times):
    """Per block: list of (slot index, number of gamma sub-intervals)."""
    per_block = [[] for _ in range(len(common) - 1)]
    bi = 0
    gi = 0
    for si, (a, b) in enumerate(zip(ptimes, ptimes[1:])):
        while bi + 1 < len(common) - 1 and common[bi + 1] <= a + TIME_TOL:
            bi += 1
        m = 0
        while gi + 1 < len(gamma_times) and gamma_times[gi + 1] <= b + TIME_TOL:
            m += 1
            gi += 1
        per_block[bi].append((si, m))
    return per_block


def gram(u, v, psi, B):
    """<u, v> with the left argument conjugate-starred entrywise.

    The value factorizes over the blocks between partition points common to
    both sides (legitimate because j_{r,s} * j_{s,t} = j_{r,t}), and each
    block value is one of three kinds, fixed by the block layout alone:
    - one sub-interval: the one-interval value e_*^{dt psi}(a* b);
    - a single coarse entry a on one side over m > 1 entries b_r of the
      other, one per sub-interval: delta T(g_1) ... T(g_m) coords(a) on the subcoalgebra of a,
      with g_r(e) = e_*^{dt_r psi}(b_r* e) when a is on the right; on the
      left, the conjugate of that with g_r(e) = conj e_*^{dt_r psi}(e* b_r).
      Each table T(g_r) is built once per call for its (dt, entry), so one
      table serves every term and block of a uniform mesh;
    - any other block, such as a crossing one with two or more entries on
      both sides (a sweep whose successive n do not divide): both sides are
      re-expanded over the common refinement by iterated coproducts and the
      one-interval values are paired term by term.
    """
    if abs(u.partition.s - v.partition.s) > TIME_TOL \
            or abs(u.partition.t - v.partition.t) > TIME_TOL:
        raise InvalidParameter("expansions cover different intervals")
    if not u.terms or not v.terms:
        return 0.0 + 0.0j
    gamma = u.partition.common_refinement(v.partition)
    common = common_points(u.partition.times, v.partition.times)
    u_blocks = _side_layout(u.partition.times, common, gamma.times)
    v_blocks = _side_layout(v.partition.times, common, gamma.times)
    n_blocks = len(common) - 1
    # gamma steps grouped by block
    steps = gamma.steps()
    block_dts = []
    gi = 0
    for bi in range(n_blocks):
        m = sum(m for _si, m in u_blocks[bi])
        block_dts.append(tuple(steps[gi:gi + m]))
        gi += m

    tables = {}   # (subcoalgebra, dt, fine entry key, coarse on the left) -> T(g)

    def table(sub, dt, kb, b, left):
        key = (sub, dt, kb, left)
        m = tables.get(key)
        if m is None:
            if left:
                # g(e) = conj e_*^{dt psi}(e* b), linear in e
                def g(e):
                    return np.conj(_factor_value(psi, B, dt, e.key(), kb, e, b))
            else:
                def g(e):
                    return _factor_value(psi, B, dt, kb, e.key(), b, e)
            m = tables[key] = _transfer(g, sub)
        return m

    def transfer_value(dts, a, fine, left):
        sub = _cached_sub(a, B, DIM_CAP)
        x = sub.coords(a)
        for dt, (kb, b) in zip(reversed(dts), reversed(fine)):
            x = table(sub, dt, kb, b, left) @ x
        val = complex(sub.counit_vector @ x)
        return val.conjugate() if left else val

    def crossing_value(dts, u_polys, v_polys, u_counts, v_counts):
        total = 0.0 + 0.0j
        u_opts = _expand_slots(B, u_polys, u_counts)
        v_opts = _expand_slots(B, v_polys, v_counts)
        for ulegs, cu in u_opts:
            for vlegs, cv in v_opts:
                prod = np.conj(cu) * cv
                for dt, a, b in zip(dts, ulegs, vlegs):
                    prod *= _factor_value(psi, B, dt, a.key(), b.key(), a, b)
                    if prod == 0.0:
                        break
                total += prod
        return total

    # per block: the route, fixed by the sub-interval counts of the slots;
    # the transfer route needs one fine entry per sub-interval
    routes = []
    for bi in range(n_blocks):
        fine = (1,) * len(block_dts[bi])
        uc = tuple(m for _s, m in u_blocks[bi])
        vc = tuple(m for _s, m in v_blocks[bi])
        if uc == vc == (1,):
            routes.append("one")
        elif uc == fine and vc == (len(fine),):
            routes.append("right")
        elif vc == fine and uc == (len(fine),):
            routes.append("left")
        else:
            routes.append((uc, vc))

    def block_value(bi, ak, bk):
        dts, route = block_dts[bi], routes[bi]
        if route == "one":
            (ka,), (kb,) = ak, bk
            return _factor_value(psi, B, dts[0], ka, kb, u.registry[ka], v.registry[kb])
        if route == "right":
            return transfer_value(dts, v.registry[bk[0]],
                                  [(k, u.registry[k]) for k in ak], False)
        if route == "left":
            return transfer_value(dts, u.registry[ak[0]],
                                  [(k, v.registry[k]) for k in bk], True)
        return crossing_value(dts, tuple(u.registry[k] for k in ak),
                              tuple(v.registry[k] for k in bk), *route)

    u_terms = list(u.terms.items())
    v_terms = list(v.terms.items())
    uz = np.array([z for _k, z in u_terms])
    vz = np.array([z for _k, z in v_terms])

    # per block: distinct slot-entry runs per side, and the value matrix
    u_sub = [[tuple(keys[si] for si, _m in u_blocks[bi]) for bi in range(n_blocks)]
             for keys, _z in u_terms]
    v_sub = [[tuple(keys[si] for si, _m in v_blocks[bi]) for bi in range(n_blocks)]
             for keys, _z in v_terms]
    pair = np.ones((len(u_terms), len(v_terms)), dtype=complex)
    for bi in range(n_blocks):
        ui = {k: i for i, k in enumerate(dict.fromkeys(s[bi] for s in u_sub))}
        vi = {k: i for i, k in enumerate(dict.fromkeys(s[bi] for s in v_sub))}
        fm = np.empty((len(ui), len(vi)), dtype=complex)
        for ak, i in ui.items():
            for bk, j in vi.items():
                fm[i, j] = block_value(bi, ak, bk)
        uidx = np.array([ui[s[bi]] for s in u_sub])
        vidx = np.array([vi[s[bi]] for s in v_sub])
        pair *= fm[uidx[:, None], vidx[None, :]]
    return complex(uz.conj() @ pair @ vz)


# ---------------------------------------------------------------------------
# limits e_*^{(t-s) psi o kappa} on the source carrier
# ---------------------------------------------------------------------------

def limit_value(psi, kappa, tau, elem):
    """e_*^{tau psi o kappa} evaluated on a source element, on any carrier."""
    pk = LinearFunctional(f"psi-kappa[{kappa.name}]",
                          lambda w: psi(kappa.map_key(w)))
    return conv_exp(pk, tau, elem, kappa.source)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class ConvergenceRow:
    def __init__(self, n, mesh, norm_sq, cross, defect, bound,
                 cauchy_increment=None):
        self.n = n
        self.mesh = mesh
        self.norm_sq = norm_sq
        self.cross = cross
        self.defect = defect
        self.bound = bound
        self.cauchy_increment = cauchy_increment


def convergence_sweep(c, d, kappa, psi, s, t, ns):
    """Sweep the theta products over uniform meshes against their limit.

    The reported bound is mesh * (t-s) * C with C fitted from the coarsest
    mesh with nonzero defect (the theorem's constant is existential).
    """
    B = kappa.target
    source = kappa.source
    tau = t - s
    limit = limit_value(psi, kappa, tau, source.mul(source.star(c), d))
    rows = []
    prev_u = prev_norm = None
    c_fit = None
    for n in ns:
        alpha = Partition.uniform(s, t, n)
        u = theta_expand(c, kappa, alpha)
        v = u if not c.sub(d).terms else theta_expand(d, kappa, alpha)
        norm_sq = gram(u, u, psi, B).real
        cross = gram(u, v, psi, B)
        defect = abs(cross - limit)
        if c_fit is None and defect > DEFECT_FLOOR:
            c_fit = defect * n / tau
        bound = (alpha.mesh() * tau * c_fit) if c_fit is not None else 0.0
        inc = None
        if prev_u is not None:
            inc = abs(norm_sq + prev_norm - 2.0 * gram(u, prev_u, psi, B).real)
        rows.append(ConvergenceRow(n, alpha.mesh(), norm_sq, cross, defect,
                                   bound, inc))
        prev_u, prev_norm = u, norm_sq
    return rows


def reverse_check(b, d, kappa_tilde, psi, s, t, ns, inner_mesh_factor=1):
    """|<zeta_alpha(b), j_{s,t}(d) Omega> - e_*^{(t-s) psi}(b* d)| per mesh."""
    B = kappa_tilde.source
    tau = t - s
    bd = multiply(involute(b, B.algebra), d, B.algebra)
    limit = conv_exp(psi, tau, bd, B)
    v = FactorizedVectorSum.singleton(d, s, t)
    rows = []
    for n in ns:
        alpha = Partition.uniform(s, t, n)
        u = zeta_expand(b, kappa_tilde, alpha, inner_mesh_factor)
        norm_sq = gram(u, u, psi, B).real
        cross = gram(u, v, psi, B)
        defect = abs(cross - limit)
        rows.append(ConvergenceRow(n, alpha.mesh(), norm_sq, cross, defect,
                                   defect))
    return rows
