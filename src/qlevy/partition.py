"""Partitions of an interval, ordered by refinement."""

from __future__ import annotations

import bisect

import numpy as np

from .errors import InvalidParameter

TIME_TOL = 1e-12   # absolute: two partition times closer than this are the same point
STEP_ULPS = 4      # relative: steps within STEP_ULPS * eps * max|t| are one step


class Partition:
    """Strictly increasing finite times t0 < ... < tn with endpoints (s, t),
    any two consecutive ones more than TIME_TOL apart."""

    def __init__(self, times):
        times = tuple(float(u) for u in times)
        if len(times) < 2:
            raise InvalidParameter("a partition needs at least two points")
        # with finite ends and increasing times, every step is finite too
        if not (np.isfinite(times).all() and abs(times[-1] - times[0]) < np.inf):
            raise InvalidParameter(
                f"partition times must be finite and span a finite length, got {list(times)}")
        if any(b - a <= TIME_TOL for a, b in zip(times, times[1:])):
            raise InvalidParameter(
                f"partition times must increase by more than TIME_TOL = {TIME_TOL:g}; "
                "closer times are the same point")
        self.times = times

    @classmethod
    def uniform(cls, s, t, n):
        return cls(np.linspace(s, t, n + 1))

    @property
    def s(self):
        return self.times[0]

    @property
    def t(self):
        return self.times[-1]

    def n_intervals(self):
        return len(self.times) - 1

    def steps(self):
        return [b - a for a, b in zip(self.times, self.times[1:])]

    def mesh(self):
        return max(self.steps())

    def step_classes(self):
        """(first, of): first[k] is the first interval of the k-th distinct
        step, of[r] the step class of interval r.  In sorted order, a run of
        steps takes every step within STEP_ULPS * eps * max|t_i| of its
        smallest, the rounding of the times themselves (np.linspace spreads
        the steps of a uniform partition by at most 2 eps * max|t_i|)."""
        steps = self.steps()
        tol = STEP_ULPS * np.finfo(float).eps * max(abs(self.s), abs(self.t))
        lows = []               # the smallest step of each run, ascending
        for dt in sorted(steps):
            if not lows or dt - lows[-1] > tol:
                lows.append(dt)
        first, of, seen = [], [], {}
        for r, dt in enumerate(steps):
            k = seen.setdefault(bisect.bisect_right(lows, dt), len(first))
            if k == len(first):
                first.append(r)
            of.append(k)
        return first, of

    def common_refinement(self, other):
        pts = sorted(set(self.times) | set(other.times))
        merged = [pts[0]]
        for u in pts[1:]:
            if u - merged[-1] > TIME_TOL:
                merged.append(u)
        return Partition(merged)

    def __repr__(self):
        return f"Partition({list(self.times)})"
