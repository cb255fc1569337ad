"""Symmetrization toolbox: distribution function, decreasing and Schwarz
rearrangements, weighted median, median split, concentration curves and the
mass-concentration partial order.

All operations are exact over the finite (value, measure) multiset of a
field: rearranged profiles are step functions, concentration curves are
piecewise linear, and order checks sample at breakpoints where piecewise
linear functions attain their extrema.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField, unit_ball_measure

__all__ = [
    "RearrangedProfile",
    "ConcentrationCurve",
    "OrderVerdict",
    "distribution_function",
    "decreasing_rearrangement",
    "schwarz_rearrangement",
    "median",
    "median_split",
    "concentration",
    "add_curves",
    "less_concentrated",
]


@dataclass(frozen=True)
class RearrangedProfile:
    """Non-increasing step profile f*(s) on (0, total_measure).

    ``breaks[i]`` is the cumulative measure at the right edge of block i and
    ``values[i]`` the block value; f*(s) = values[i] for
    s in [breaks[i-1], breaks[i]).  ``widths`` keeps the exact per-block
    measure multiset (breaks are its rounded cumulative sums).  Beyond
    total_measure the profile is extended by zero.
    """

    breaks: np.ndarray
    values: np.ndarray
    widths: np.ndarray
    total_measure: float

    def __post_init__(self):
        self.breaks.setflags(write=False)
        self.values.setflags(write=False)
        self.widths.setflags(write=False)

    def value_at(self, s):
        """Right-continuous evaluation f*(s); zero beyond the support."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        idx = np.searchsorted(self.breaks, s_arr, side="right")
        padded = np.append(self.values, 0.0)
        out = padded[np.minimum(idx, self.values.size)]
        return out if np.ndim(s) else float(out[0])


@dataclass(frozen=True)
class ConcentrationCurve:
    """Piecewise-linear running integral s -> int_0^s f*(tau) dtau."""

    s: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        self.s.setflags(write=False)
        self.F.setflags(write=False)

    @property
    def total(self) -> float:
        return float(self.F[-1])

    @property
    def s_max(self) -> float:
        return float(self.s[-1])

    def eval(self, s):
        """Linear interpolation; clamps outside [0, s_max] (zero-extension
        of the profile makes the curve constant past its support)."""
        return np.interp(s, self.s, self.F)


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a concentration-order check f < g."""

    gap: float
    s_at_gap: float
    holds: bool


def distribution_function(field: ScalarField, k: float) -> float:
    """mu_f(k) = measure of {|f| > k}; right-continuous, non-increasing."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    mask = np.abs(field.values) > k
    return float(np.sum(field.grid.measures[mask]))


def _sorted_desc(field: ScalarField, signed: bool = False):
    """Values sorted descending, with the measures of their cells.

    Box cells all have one measure, so a box sorts its values alone and
    returns its measures as they are.  Ball shells differ, so the ball
    permutes values and measures together, ties broken by shell index.
    """
    v = field.values if signed else np.abs(field.values)
    grid = field.grid
    if grid.kind != "radial_ball":
        return np.sort(v)[::-1], grid.measures
    order = np.argsort(-v, kind="stable")
    return v[order], grid.measures[order]


def decreasing_rearrangement(field: ScalarField) -> RearrangedProfile:
    """One-dimensional decreasing rearrangement of |field|.

    Equidistributed with |field| by construction: the profile is the sorted
    (value, measure) multiset of the field laid out on (0, |Omega|).
    """
    vals, meas = _sorted_desc(field)
    return RearrangedProfile(
        breaks=np.cumsum(meas),
        values=vals,
        widths=meas,
        total_measure=float(field.grid.total_measure),
    )


def schwarz_rearrangement(field: ScalarField, ball_grid: Grid) -> ScalarField:
    """Radially non-increasing field on the ball, value f*(omega_N r^N) at
    each shell midpoint radius r: f* is cut at |B|, so the ball keeps the
    most concentrated part of the field, the part the radial problems see."""
    if ball_grid.kind != "radial_ball":
        raise ValueError("schwarz_rearrangement needs a radial_ball target grid")
    omega = unit_ball_measure(ball_grid.dimension)
    s_mid = omega * ball_grid.centroids[:, 0] ** ball_grid.dimension
    return ScalarField(ball_grid, decreasing_rearrangement(field).value_at(s_mid))


def median(field: ScalarField) -> float:
    """Weighted median per the infimum definition:
    inf{k : measure{u > k} <= |Omega|/2}, exact over the value set."""
    vals, meas = _sorted_desc(field, signed=True)
    return _sorted_median(vals, np.cumsum(meas), field.grid.total_measure)


def _sorted_median(vals: np.ndarray, cum: np.ndarray, total: float) -> float:
    """median() of the values vals, sorted descending, with running measure
    cum = np.cumsum(measures) on a domain of measure total.  Cell j is the
    last with at most half the measure above it, and every later tie group
    has more than half above it, so the median is the value of j's group,
    read at the group's first cell (that fixes the sign of a 0.0/-0.0 tie)."""
    # cumsum round-off must not flip an exact half/half tie
    j = np.searchsorted(cum, total / 2.0 + 1e-12 * total, side="right")
    first = vals.size - np.searchsorted(vals[::-1], vals[j], side="right")  # values above vals[j]
    return float(vals[first])


def median_split(field: ScalarField):
    """(u - m(u))^+ and (u - m(u))^-; both supports stay within
    |Omega|/2 plus at most one cell."""
    m = median(field)
    shifted = field - m
    return shifted.positive_part(), shifted.negative_part()


def concentration(profile: RearrangedProfile) -> ConcentrationCurve:
    """Exact running integral of the step profile."""
    F = np.concatenate([[0.0], np.cumsum(profile.values * profile.widths)])
    s = np.concatenate([[0.0], profile.breaks])
    return ConcentrationCurve(s=s, F=F)


def union_breakpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union with near-duplicate points (cumsum round-off twins, closer
    than 1e-12 of the span) collapsed; keeps the first and last points."""
    s = np.union1d(a, b)
    if s.size <= 2:
        return s
    tol = 1e-12 * float(s[-1] - s[0])
    keep = np.ones(s.size, dtype=bool)
    keep[:-1] = np.diff(s) > tol
    keep[0] = True
    if s[1] - s[0] <= tol:
        keep[1] = False
    return s[keep]


def add_curves(a: ConcentrationCurve, b: ConcentrationCurve) -> ConcentrationCurve:
    """Pointwise sum; exact because both curves are piecewise linear."""
    s = union_breakpoints(a.s, b.s)
    return ConcentrationCurve(s=s, F=a.eval(s) + b.eval(s))


def less_concentrated(
    f_curve: ConcentrationCurve, g_curve: ConcentrationCurve, tol: float = 0.0
) -> OrderVerdict:
    """Check f < g, i.e. f_curve <= g_curve on the overlapping s-range.

    Both curves are piecewise linear so the worst gap is attained at a
    breakpoint; samples the union of breakpoints up to min(s_max).
    """
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    s_hi = min(f_curve.s_max, g_curve.s_max)
    s = union_breakpoints(f_curve.s, g_curve.s)
    s = np.append(s[s <= s_hi], s_hi)
    gaps = f_curve.eval(s) - g_curve.eval(s)
    i = int(np.argmax(gaps))
    gap = float(gaps[i])
    return OrderVerdict(gap=gap, s_at_gap=float(s[i]), holds=gap <= tol)
