"""Sampled oracles of the exact checks: the *-bialgebra axioms
(bialg.certify_bialgebra) and counit preservation (constructions.counit_residual).

check_bialgebra_axioms measures the coalgebra and compatibility laws on
random elements, by a route the certificate does not take: it builds the
coproducts of whole products and Sweedler expansions, not of generators and
rules, and it multiplies and involutes legs with ncpoly.multiply and
ncpoly.involute, not with bialg's own leg loops.  Each residual is a gap
relative to the sides' magnitudes (at least 1), and a non-finite gap reads
inf, since max() would pass over a NaN.  check_counit_preserving compares
the two counits on random elements of the source, mapped whole, where
counit_residual reads generating keys only.  star_legs is the oracle of
bialg._tensor_star.
first_leg_coproduct is the oracle of bialg.iterated_coproduct: Delta_n by
splitting the first leg n - 1 times, not memoized.
"""

import cmath
import math

import numpy as np

from qlevy.bialg import iterated_coproduct
from qlevy.ncpoly import NcPoly, involute, multiply


def first_leg_coproduct(p, n, B):
    """Delta_n(p) = (Delta (x) id^{n-2}) o Delta_{n-1}(p) as legs -> coeff,
    read from key_delta of either carrier; exact zeros are dropped."""
    out = {}
    for w, c in p.terms.items():
        got = {(w,): 1.0}
        for _ in range(n - 1):
            split = {}
            for legs, z in got.items():
                for (a, b), z2 in B.key_delta(legs[0]).items():
                    k = (a, b) + legs[1:]
                    split[k] = split.get(k, 0.0) + z * z2
            got = {k: z for k, z in split.items() if z != 0.0}
        for legs, z in got.items():
            out[legs] = out.get(legs, 0.0) + c * z
    return {k: c for k, c in out.items() if c != 0.0}


def _rel(diffs, *sides):
    # largest |d| over diffs relative to the largest side (at least 1)
    diffs = list(diffs)
    if not all(cmath.isfinite(d) for d in diffs):
        return math.inf
    return max((abs(d) for d in diffs), default=0.0) / max([1.0, *sides])


def _diff(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0.0) - c
    return out.values()


def _top(terms):
    return max((abs(c) for c in terms.values()), default=0.0)


def _add_legs(out, z, left, right):
    # out += z left (x) right for two NcPoly legs
    for u, cu in left.terms.items():
        for v, cv in right.terms.items():
            out[u, v] = out.get((u, v), 0.0) + z * cu * cv


def star_legs(s, alg):
    """(* (x) *) s for s given as legs -> coeff, each leg involuted as a
    one-term polynomial by ncpoly.involute; exact zeros are kept."""
    out = {}
    for (a, b), c in s.items():
        _add_legs(out, complex(c).conjugate(),
                  involute(NcPoly.word(a), alg), involute(NcPoly.word(b), alg))
    return out


def _mul_legs(s, t, alg):
    # s t in B (x) B, each leg product a normal form by ncpoly.multiply, once per pair
    products = {}

    def leg(a, u):
        got = products.get((a, u))
        if got is None:
            got = products[a, u] = multiply(NcPoly.word(a), NcPoly.word(u), alg)
        return got

    out = {}
    for (a, b), c1 in s.items():
        for (u, v), c2 in t.items():
            _add_legs(out, c1 * c2, leg(a, u), leg(b, v))
    return out


def check_bialgebra_axioms(B, sample_degree=4, n_samples=50, rng=None):
    """Max residuals of the coalgebra and compatibility axioms on samples."""
    rng = rng if rng is not None else np.random.default_rng(20080131)
    alg = B.algebra
    samples = [B.random_element(rng, sample_degree) for _ in range(n_samples)]
    report = dict.fromkeys(["coassociativity", "counit_law", "delta_multiplicative",
                            "counit_multiplicative", "rule_compatibility",
                            "involution_compatibility"], 0.0)

    def note(check, r):
        report[check] = max(report[check], r)

    def tensor_gap(s, t):
        return _rel(_diff(s, t), _top(s), _top(t))

    deltas = [B.coproduct(p) for p in samples]
    for p, dp in zip(samples, deltas):
        # coassociativity: (Delta (x) id) Delta  vs  (id (x) Delta) Delta,
        # which is what iterated_coproduct builds at arity 3
        right = iterated_coproduct(p, 3, B)
        left = {}
        for (a, b), z in dp.items():
            for (u, v), z2 in B.key_delta(a).items():
                k = (u, v, b)
                left[k] = left.get(k, 0.0) + z * z2
        note("coassociativity", _rel(_diff(left, right), _top(left), _top(right)))

        # counit law, both sides
        lhs, rhs = {}, {}
        for (a, b), z in dp.items():
            lhs[b] = lhs.get(b, 0.0) + z * B.key_counit(a)
            rhs[a] = rhs.get(a, 0.0) + z * B.key_counit(b)
        note("counit_law", _rel([NcPoly(lhs).sub(p).norm1(), NcPoly(rhs).sub(p).norm1()],
                                p.norm1()))

        # involution compatibility: Delta(p*) = Delta(p)* legwise
        note("involution_compatibility",
             tensor_gap(B.coproduct(involute(p, alg)), star_legs(dp, alg)))

    for p, q, dp, dq in zip(samples[::2], samples[1::2], deltas[::2], deltas[1::2]):
        pq = multiply(p, q, alg)
        note("delta_multiplicative", tensor_gap(B.coproduct(pq), _mul_legs(dp, dq, alg)))
        e_pq, e_p_e_q = B.counit(pq), B.counit(p) * B.counit(q)
        note("counit_multiplicative", _rel([e_pq - e_p_e_q], abs(e_pq), abs(e_p_e_q)))

    for rule in alg.rules:
        lhs_p = NcPoly({rule.lhs: 1.0})
        r = tensor_gap(B.coproduct(lhs_p), B.coproduct(rule.rhs))
        note("rule_compatibility", max(r, _rel([B.counit(lhs_p) - B.counit(rule.rhs)])))

    report["max_residual"] = max(report.values())
    return report


def check_counit_preserving(m, n_samples=100, sample_degree=3, rng=None):
    """Max |counit_target(m(p)) - counit_source(p)| over random samples."""
    rng = rng if rng is not None else np.random.default_rng(20080131)
    worst = 0.0
    for _ in range(n_samples):
        elem = m.source.random_element(rng, sample_degree)
        worst = max(worst, abs(m.target.counit(m.apply(elem)) - m.source.counit(elem)))
    return {"max_residual": worst, "n_samples": n_samples}
