"""Exact vacuum Gram data of infinitesimal convolution products.

The Levy process j is never materialized as operators here.  A vector of
the form j_{t0,t1}(b_1) ... j_{tn-1,tn}(b_n) Omega is identified with the
elementary tensor of its per-interval entries b_r (each NcPoly its own key:
it hashes by value), and every inner product of two such sums reduces --
after passing to the common refinement of the two partitions -- to products
of one-interval vacuum values

    <j_{u,v}(a) Omega, j_{u,v}(b) Omega> = e_*^{(v-u) psi}(a* b),

read for all entries of one step off one exponential by
subcoalg.factor_table.  This makes the engine exact up to matrix-exponential
precision and immune to Fock truncation error.  _TermPairs, the one
term-pair kernel (fock's cross-path report uses it and index_terms too),
pairs the terms of such sums in gram_matrix, and gram is its 1 x 1 case.

Convergence sweeps realize the transformation theorem numerically: the
theta_alpha products of a transported process, the zeta_alpha products of
the reverse transformation, defects against the limiting convolution
exponential, and Cauchy increments between uniform meshes.  On a uniform
mesh each of their Gram values is an infinitesimal convolution product of
g identical blocks, i.e. the g-th convolution power of one block
functional on the doubled coalgebra conj(C) (x) C of the subcoalgebras of
the two elements, taken by subcoalg.doubled_product's layout (by repeated
squaring, O(log g) dense products, on small doubled coalgebras), the path
fock's vacuum values take too.  On uniform meshes the one-block values of
two meshes differ only through the step, so a sweep keeps one layout per
piece-count pair, evaluated per mesh: the expansions, their term indices,
the factor tables' products and coordinates, the term pairs' index work
and the doubled structure are built once (_ConvolutionPowers), and each
mesh pays one counit row per step class, the table sums, the pair products
and its matrix power.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

import numpy as np

from .bialg import TERM_BUDGET, LinearFunctional, iterated_coproduct
from .constructions import GroupLikeBialgebra, Morphism
from .errors import InvalidParameter, TermBudgetExceeded
from .ncpoly import NcPoly, involute, multiply
from .partition import TIME_TOL, Partition
from .subcoalg import _DoubledLayout, _FactorLayout, conv_exp, subcoalgebra_of

PAIR_BLOCK = 1 << 16   # term pairs multiplied at once by _TermPairs
DEFECT_FLOOR = 1e-13   # absolute: a sweep defect at or below this fits no rate constant


class FactorizedVectorSum:
    """Sum of elementary tensors of per-interval vectors j_{.}(b) Omega.

    terms maps each tuple of entries b (NcPolys of B, one per interval, each
    its own key) to its coefficient, in first-seen order."""

    def __init__(self, partition):
        self.partition = partition
        self.terms = {}       # tuple of entry NcPolys -> coefficient

    def add_term(self, entries, coeff):
        if len(entries) != self.partition.n_intervals():
            raise InvalidParameter("one entry per subinterval required")
        self.terms[entries] = self.terms.get(entries, 0.0) + coeff
        if self.terms[entries] == 0.0:
            del self.terms[entries]
        if len(self.terms) > TERM_BUDGET:
            raise TermBudgetExceeded(f"more than {TERM_BUDGET} factorized terms")

    @classmethod
    def singleton(cls, b, s, t):
        out = cls(Partition([s, t]))
        out.add_term((b,), 1.0)
        return out

    def refine(self, gamma, B):
        """Re-expand by bialg.iterated_coproduct over gamma, a refinement with the same ends.

        Legitimate because the process satisfies j_{r,s} * j_{s,t} = j_{r,t};
        Gram values are unchanged by refinement.  A sum on gamma is itself;
        otherwise each distinct entry is split once per sub-interval count,
        into one leg NcPoly per word.
        """
        if gamma.times == self.partition.times:
            return self
        at = [bisect.bisect_right(gamma.times, t + TIME_TOL) - 1 for t in self.partition.times]
        if at[0] != 0 or at[-1] != gamma.n_intervals() or any(
                abs(gamma.times[i] - t) > TIME_TOL for i, t in zip(at, self.partition.times)):
            raise InvalidParameter("target partition does not refine the source")
        counts = [b - a for a, b in zip(at, at[1:])]    # sub-intervals per slot
        leg, splits = functools.cache(NcPoly.word), {}   # one NcPoly per word
        out = FactorizedVectorSum(gamma)
        for entries, z in self.terms.items():
            options = []
            for p, m in zip(entries, counts):
                opts = splits.get((p, m))
                if opts is None:
                    opts = splits[p, m] = [((p,), 1.0)] if m == 1 else [
                        (tuple(leg(w) for w in legs), c)
                        for legs, c in iterated_coproduct(p, m, B).items()]
                options.append(opts)
            out._add_products(z, options)
        return out

    def _add_products(self, z, options):
        """Add z * prod c on the joined ens of each choice of one (ens, c) per slot."""
        for combo in itertools.product(*options):
            coeff = 1.0
            entries = []
            for ens, c in combo:
                coeff *= c
                entries.extend(ens)
            self.add_term(tuple(entries), z * coeff)


def identity_morphism(B):
    return Morphism(B, B, "algebra-homomorphism",
                    key_map=lambda k: NcPoly.word(k), name=f"id[{B.name}]")


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------

def theta_expand(c, kappa, alpha):
    """theta_alpha(c): Sweedler-expand the n-fold coproduct of c in the
    source carrier and push every leg through kappa into B."""
    exp = iterated_coproduct(c, alpha.n_intervals(), kappa.source)
    keys = dict.fromkeys(itertools.chain.from_iterable(exp))
    images = {k: kappa.map_key(k) for k in keys}     # each distinct key once
    out = FactorizedVectorSum(alpha)
    for key_tuple, z in exp.items():
        out.add_term(tuple(images[k] for k in key_tuple), z)
    return out


def zeta_expand(b, kappa_tilde, alpha, inner_mesh_factor=1):
    """zeta_alpha(b): legs of Delta_n(b) lifted by kappa-tilde into the
    group-like carrier; each group-like factor on an interval is itself
    represented through its (constant) theta expansion over a sub-partition
    with inner_mesh_factor equal pieces.

    A leg w becomes kappa-tilde(w) + counit(w) hat(1), which is hat(w) when
    w has counit 1; each group-like key, a polynomial of B, is an entry."""
    if inner_mesh_factor < 1:
        raise InvalidParameter("inner_mesh_factor must be >= 1")
    G = kappa_tilde.target
    if not isinstance(G, GroupLikeBialgebra):
        raise InvalidParameter("kappa_tilde must map into a group-like carrier")
    B = kappa_tilde.source
    exp = iterated_coproduct(b, alpha.n_intervals(), B)
    times = []
    for a, t1 in zip(alpha.times, alpha.times[1:]):
        times.extend(np.linspace(a, t1, inner_mesh_factor + 1)[:-1])
    times.append(alpha.times[-1])
    gamma = Partition(times)
    out = FactorizedVectorSum(gamma)
    for word_tuple, z in exp.items():
        options = []
        for w in word_tuple:
            lifted = kappa_tilde.map_key(w).add(G.one().scale(B.key_counit(w)))
            options.append([((g,) * inner_mesh_factor, c) for g, c in lifted.terms.items()])
        out._add_products(z, options)
    return out


# ---------------------------------------------------------------------------
# gram evaluation
# ---------------------------------------------------------------------------

class _TermPairs:
    """(left owners) x (right owners) matrix of the sums over term pairs of
    conj(z_a) z_b prod_r tables[slot_class[r]][i_ar, i_br], split into the
    part that does not depend on the tables' values or the coefficients,
    built here, and its evaluation, a call on tables of the given shapes and
    the two sides' coefficients z.

    left and right are (coeffs, index, owner, n_owners) (coeffs not read
    here), terms grouped by ascending owner, index[t, r] the table row
    (left) or column (right) of term t in slot r.  A pair's product is
    formed in slot order after its coefficient; numpy's pairwise summation
    adds the pairs of one left term and one right owner, then (pairwise
    again) those sums over the left terms of one owner, so rounding grows
    with log(terms), not the pairs.
    """

    def __init__(self, shapes, slot_class, left, right):
        (_, il, ol, nl), (_, ir, orr, nr) = left, right
        self.shape = (nl, nr)
        self.cls = np.asarray(slot_class, dtype=np.intp)
        widths = np.array([w for _, w in shapes], dtype=np.intp)
        base = np.cumsum([0] + [h * w for h, w in shapes])[:-1]
        self.lrow = base[self.cls] + il * widths[self.cls]   # flat start of each left entry's row
        self.ir = ir
        self.lown, self.lstart = np.unique(ol, return_index=True)
        self.rown, self.rstart = np.unique(orr, return_index=True)

    def __call__(self, tables, zl, zr):
        out = np.zeros(self.shape, dtype=complex)
        if not (zl.size and zr.size):
            return out
        lrow, ir = self.lrow, self.ir
        flat = np.concatenate([np.ravel(t) for t in tables])
        rowsums = np.empty((zl.size, self.rown.size), dtype=complex)
        step = max(1, PAIR_BLOCK // zr.size)
        for a in range(0, zl.size, step):
            acc = np.multiply.outer(zl[a:a + step].conj(), zr)
            for r in range(self.cls.size):
                acc *= flat[lrow[a:a + step, r, None] + ir[:, r]]
            rowsums[a:a + step] = np.add.reduceat(acc, self.rstart, axis=1)
        out[np.ix_(self.lown, self.rown)] = np.add.reduceat(
            np.ascontiguousarray(rowsums.T), self.lstart, axis=1).T
        return out


def index_terms(sums, slot_class, n_classes):
    """The terms of sums (each a dict: entry tuple -> coefficient, such as
    FactorizedVectorSum.terms or an iterated_coproduct) in _TermPairs
    form, and per step class the distinct entries its index refers to."""
    seen = [{} for _ in range(n_classes)]    # per class: entry -> index
    coeffs, index, owner = [], [], []
    for o, s in enumerate(sums):
        for entries, z in s.items():
            index.append([seen[k].setdefault(e, len(seen[k]))
                          for k, e in zip(slot_class, entries)])
            coeffs.append(z)
            owner.append(o)
    return (np.array(coeffs, dtype=complex),
            np.array(index, dtype=np.intp).reshape(len(coeffs), len(slot_class)),
            np.array(owner, dtype=np.intp), len(sums)), [list(d) for d in seen]


class _GramLayout:
    """The part of gram_matrix(us, vs, psi, B) that does not depend on the
    steps, given gamma, the common refinement of the two sides' partitions:
    its step classes, index_terms of both sides, one _FactorLayout per class
    and the _TermPairs of the two sides.  values(gamma) evaluates it at the
    steps of gamma, a refinement with the same step classes."""

    def __init__(self, us, vs, gamma, psi, B):
        self.shape = (len(us), len(vs))
        self.first, self.slot_class = gamma.step_classes()
        self.tables = None
        if not (us and vs):     # e.g. the empty basis of the zero element
            return
        self.left, lents = index_terms([u.refine(gamma, B).terms for u in us],
                                       self.slot_class, len(self.first))
        self.right, rents = index_terms([v.refine(gamma, B).terms for v in vs],
                                        self.slot_class, len(self.first))
        steps = gamma.steps()
        self.tables = [_FactorLayout(psi, a, b, B, steps[r])
                       for r, a, b in zip(self.first, lents, rents)]
        self.pairs = _TermPairs([t.shape for t in self.tables], self.slot_class,
                                self.left, self.right)

    def values(self, gamma):
        if self.tables is None:
            return np.zeros(self.shape, dtype=complex)
        steps = gamma.steps()
        return self.pairs([t.table(steps[r]) for r, t in zip(self.first, self.tables)],
                          self.left[0], self.right[0])


def gram_matrix(us, vs, psi, B):
    """[[<u, v> for v in vs] for u in us], left arguments conjugate-starred
    entrywise; the sums of each list share one partition.

    Both lists are re-expanded over the common refinement of the partitions
    (legitimate because j_{r,s} * j_{s,t} = j_{r,t}); each step class of it
    gets one factor table over the distinct entries of its slots, in
    first-seen order, and each term indexes its entries into those tables.
    This is a _GramLayout evaluated at its own steps; a sweep builds one
    layout and evaluates it per mesh.  The cost is the product of the term
    counts, so the layout serves user partitions and the one-block values of
    _ConvolutionPowers, never an n-interval sweep.  A sum already on the
    refinement is used as it is.
    """
    if not (us and vs):     # e.g. the empty basis of the zero element
        return np.zeros((len(us), len(vs)), dtype=complex)
    pu, pv = us[0].partition, vs[0].partition
    if any(w.partition.times != p.times for ws, p in ((us, pu), (vs, pv)) for w in ws):
        raise InvalidParameter("the sums of one side must share their partition")
    if abs(pu.s - pv.s) > TIME_TOL or abs(pu.t - pv.t) > TIME_TOL:
        raise InvalidParameter("expansions cover different intervals")
    gamma = pu.common_refinement(pv)
    return _GramLayout(us, vs, gamma, psi, B).values(gamma)


def gram(u, v, psi, B):
    """<u, v> with the left argument conjugate-starred entrywise: the
    1 x 1 case of gram_matrix."""
    return complex(gram_matrix([u], [v], psi, B)[0, 0])


class _ConvolutionPowers:
    """[<U, V_e> for (e, block_e) in rights] on uniform meshes: U = sum over
    Delta_g(c) of block_c(c_(1)) (x) ... (x) block_c(c_(g)), c and each e in
    the carrier S, V_e likewise for e.  A block maps an element a and a
    partition p to the sums of a on p; their terms depend on p's number of
    intervals, never on its times.

    Each value is the g-th convolution power of Psi(a (x) b) =
    gram(block_c(a), block_e(b)) on conj(sub(c)) (x) sub(e), taken by a
    _DoubledLayout (repeated squaring, O(log g) dense products, up to
    DENSE_POWER_DIM doubled dimensions; g sparse matrix-vector products
    above) on e's column slice of one _GramLayout, whose right side reuses
    the left blocks for a right with c's block, subcoalgebra and partition.
    One layout per piece-count pair, evaluated per mesh: pu and pv run
    uniformly from 0, so their common refinement's step classes depend on
    the piece counts only.  Each call evaluates the layout of its counts at
    its own steps.  The object lives for one sweep call.
    """

    def __init__(self, S, c, block_c, rights, psi, B):
        self.S, self.c, self.block_c, self.rights = S, c, block_c, rights
        self.psi, self.B = psi, B
        self._layouts = {}    # (pu's pieces, pv's pieces) -> (_GramLayout, doubled)

    def _build(self, pu, pv, gamma):
        S, c, block_c = self.S, self.c, self.block_c
        subc = subcoalgebra_of(c, S)
        lefts = [block_c(a, pu) for a in subc.basis]
        subs = [subcoalgebra_of(e, S) for e, _ in self.rights]
        same = pu.times == pv.times
        vs = [v for (_, block), sub in zip(self.rights, subs)
              for v in (lefts if same and block is block_c and sub is subc
                        else [block(a, pv) for a in sub.basis])]
        ends = np.cumsum([0] + [sub.dim() for sub in subs])
        return _GramLayout(lefts, vs, gamma, self.psi, self.B), [
            (_DoubledLayout(subc, sub, c, e), a, b)
            for (e, _), sub, a, b in zip(self.rights, subs, ends, ends[1:])]

    def __call__(self, pu, pv, g):
        """The powers g with c's blocks on pu and the rights' blocks on pv."""
        gamma = pu.common_refinement(pv)
        pieces = (pu.n_intervals(), pv.n_intervals())
        if pieces not in self._layouts:
            self._layouts[pieces] = self._build(pu, pv, gamma)
        gram_layout, doubled = self._layouts[pieces]
        values = gram_layout.values(gamma)
        return [power([(values[:, a:b], g)]) for power, a, b in doubled]


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

def _uniform_mesh(s, t, n):
    """Partition.uniform(s, t, n).mesh(), read off the same np.linspace
    steps with no partition built; the sweep's own partitions refuse a bad
    interval."""
    if n < 1:
        raise InvalidParameter(f"a uniform mesh needs n >= 1 intervals, got {n}")
    return float(np.diff(np.linspace(s, t, n + 1)).max())


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

    Every Gram value is a convolution power over g identical blocks of
    length (t-s)/g (the increments are stationary): g = n for norm_sq and
    cross, and g = gcd(n, previous n) for the Cauchy increment: theta over
    n/g pieces against (previous n)/g pieces.  One layout per piece-count
    pair, evaluated per mesh: norm and cross share one _ConvolutionPowers,
    the Cauchy increments another, so a doubling sweep builds two layouts.

    The reported bound is mesh * (t-s) * C with C fitted from the coarsest
    mesh with nonzero defect (the theorem's constant is existential).
    """
    B = kappa.target
    source = kappa.source
    tau = t - s
    limit = limit_value(psi, kappa, tau, source.mul(source.star(c), d))

    def theta(a, p):
        return theta_expand(a, kappa, p)

    norm_cross = _ConvolutionPowers(source, c, theta, [(y, theta) for y in (
        [c, d] if c.sub(d).terms else [c])], psi, B)
    increments = _ConvolutionPowers(source, c, theta, [(c, theta)], psi, B)

    def theta_powers(powers, n, m):
        """powers at theta_{alpha_n}(c) against theta_{alpha_m}(y) on uniform meshes."""
        g = math.gcd(n, m)
        return powers(Partition.uniform(0.0, tau / g, n // g),
                      Partition.uniform(0.0, tau / g, m // g), g)

    rows = []
    prev_n = prev_norm = None
    c_fit = None
    for n in ns:
        mesh = _uniform_mesh(s, t, n)
        powers = theta_powers(norm_cross, n, n)
        norm_sq, cross = powers[0].real, powers[-1]
        defect = abs(cross - limit)
        if c_fit is None and defect > DEFECT_FLOOR:
            c_fit = defect * n / tau
        bound = (mesh * tau * c_fit) if c_fit is not None else 0.0
        inc = None
        if prev_n is not None:
            inc = abs(norm_sq + prev_norm - 2.0 * theta_powers(increments, n, prev_n)[0].real)
        rows.append(ConvergenceRow(n, mesh, norm_sq, cross, defect, bound, inc))
        prev_n, prev_norm = n, norm_sq
    return rows


def reverse_check(b, d, kappa_tilde, psi, s, t, ns, inner_mesh_factor=1):
    """|<zeta_alpha(b), j_{s,t}(d) Omega> - e_*^{(t-s) psi}(b* d)| per mesh.

    Both Gram values are convolution powers over the n intervals of the
    mesh, with zeta over one interval as the block of b and, since
    j_{s,t}(d) Omega = theta^id_alpha(d) Omega, j over one interval, on
    zeta's sub-partition, as the block of d.  One layout per sweep,
    evaluated per mesh: one _ConvolutionPowers gives both values at every
    mesh, so each zeta block is built once.

    At inner_mesh_factor = 1 each zeta slot sums back to its leg w, since
    kappa(kappa-tilde(w) + counit(w) hat(1)) = w and Gram values are linear
    in each entry; zeta_alpha(b) Omega is then j_{s,t}(b) Omega and the
    cross defect is at rounding level for every b, d and psi.  Only an
    inner_mesh_factor above 1 tests the reverse transformation.
    """
    B = kappa_tilde.source
    tau = t - s
    bd = multiply(involute(b, B.algebra), d, B.algebra)
    limit = conv_exp(psi, tau, bd, B)

    def zeta(a, p):
        return zeta_expand(a, kappa_tilde, Partition([0.0, p.t]), inner_mesh_factor)

    def j(e, p):
        return FactorizedVectorSum.singleton(e, 0.0, p.t).refine(p, B)

    powers = _ConvolutionPowers(B, b, zeta, [(b, zeta), (d, j)], psi, B)
    rows = []
    for n in ns:
        mesh = _uniform_mesh(s, t, n)
        gamma = Partition.uniform(0.0, tau / n, inner_mesh_factor)   # zeta's sub-partition
        norm, cross = powers(gamma, gamma, n)
        defect = abs(cross - limit)
        rows.append(ConvergenceRow(n, mesh, norm.real, cross, defect, defect))
    return rows
