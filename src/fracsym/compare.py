"""Elliptic concentration-comparison harness.

Solves the Neumann problem on Omega and the symmetrized Dirichlet problem
on the half-measure ball B, extends both solutions, and checks at every
height y that the median-split rearranged extension is less concentrated
than its radial counterpart:

    U(s, y) = int_0^s (w1* + w2*)  <=  V(s, y) = int_0^s xi*

for s in [0, |Omega|/2].  Discretization noise is absorbed by a tolerance
tol = C_tol * h * ||f||_2 (first order in the cell size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, ScalarField, unit_ball_measure
from .rearrange import (
    ConcentrationCurve,
    _sorted_desc,
    _sorted_median,
    concentration,
    decreasing_rearrangement,
    less_concentrated,
    median,
    median_split,
    schwarz_rearrangement,
    union_breakpoints,
)
from .spectral import SpectralOperator, solve_elliptic
from .extension import extend

__all__ = [
    "DominanceViolated",
    "NonFiniteData",
    "YSlice",
    "ComparisonReport",
    "gamma_constant",
    "symmetrized_data",
    "elliptic_compare",
    "dominated_compare",
    "oscillation_check",
    "lp_check",
    "default_tolerance",
]

DEFAULT_TOL_CONSTANT = 10.0
_BALL_MEASURE_TOL = 1e-10
_PRECONDITION_SLACK = 1e-9


class DominanceViolated(ValueError):
    """The radial datum fails to dominate the rearranged source parts."""


class NonFiniteData(ValueError):
    """A field handed to a comparison holds NaN or infinite values."""


def gamma_constant(dim: int, q: float) -> float:
    """Diffusion gamma = 1 / (N * omega_N^(1/N) * Q)^2 for the ball problem."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if q <= 0:
        raise ValueError(f"Q must be positive, got {q}")
    return 1.0 / (dim * unit_ball_measure(dim) ** (1.0 / dim) * q) ** 2


def _check_inputs(omega_grid: Grid, ball_grid: Grid, data: dict):
    """Entry check of every comparison: Omega is a box (the U curve relies
    on its equal cells), |B| = |Omega|/2, and each labelled field in data
    is finite; None entries pass."""
    if omega_grid.kind == "radial_ball":
        raise ValueError("Omega must be an interval or a rectangle, got a radial ball")
    half = omega_grid.total_measure / 2.0
    if abs(ball_grid.total_measure - half) > _BALL_MEASURE_TOL * max(half, 1.0):
        raise ValueError(
            f"ball measure {ball_grid.total_measure:.12g} must equal "
            f"|Omega|/2 = {half:.12g}"
        )
    for label, fld in data.items():
        if fld is not None and not np.all(np.isfinite(fld.values)):
            raise NonFiniteData(f"{label} holds non-finite values")


def _overflow_checked(fn):
    """Run a comparison without numpy's overflow/invalid warnings: finite
    but huge data (a source of 1e300, T = 1e308) may still overflow, and
    _report turns any non-finite gap or tolerance into NonFiniteData."""
    return np.errstate(over="ignore", invalid="ignore")(fn)


def _mode(c: float) -> str:
    return "zero_mean" if c == 0.0 else "with_c"


def _source_parts(f: ScalarField, mode: str):
    if mode == "zero_mean":
        return f.positive_part(), f.negative_part()
    if mode == "with_c":
        return median_split(f)
    raise ValueError(f"mode must be 'zero_mean' or 'with_c', got {mode!r}")


def _radial_datum(parts, ball_grid: Grid) -> ScalarField:
    """Sum of the Schwarz rearrangements of parts, each cut at |B|."""
    first, *rest = (schwarz_rearrangement(p, ball_grid) for p in parts)
    return sum(rest, first)


def symmetrized_data(f: ScalarField, ball_grid: Grid, mode: str = "zero_mean") -> ScalarField:
    """Radial datum f1# + f2# on B.

    mode "zero_mean" splits f into plain positive/negative parts (the pure
    Neumann setting); mode "with_c" splits f - median(f) (the zero-order
    setting, where no compatibility holds).
    """
    _check_inputs(f.grid, ball_grid, {"f": f})
    return _radial_datum(_source_parts(f, mode), ball_grid)


@dataclass(frozen=True)
class YSlice:
    """Concentration data of one height: curves sampled on the union of
    breakpoints restricted to [0, |Omega|/2]."""

    y: float
    s: np.ndarray
    U: np.ndarray
    V: np.ndarray

    @property
    def chi(self) -> np.ndarray:
        return self.U - self.V

    @property
    def gap(self) -> float:
        return float(np.max(self.chi))


@dataclass(frozen=True)
class ComparisonReport:
    """Per-height concentration gaps with a single tolerance verdict."""

    slices: tuple
    worst_gap: float
    tolerance: float
    verdict: str  # "holds" | "violated"
    params: dict = field(default_factory=dict)
    split_reports: tuple = ()

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_json_dict(self) -> dict:
        return {
            "params": self.params,
            "per_y": [
                {
                    "y": float(sl.y),
                    "s": [float(x) for x in sl.s],
                    "U": [float(x) for x in sl.U],
                    "V": [float(x) for x in sl.V],
                    "chi": [float(x) for x in sl.chi],
                }
                for sl in self.slices
            ],
            "worst_gap": float(self.worst_gap),
            "tolerance": float(self.tolerance),
            "verdict": self.verdict,
            "split": [r.to_json_dict() for r in self.split_reports],
        }


def default_tolerance(omega_grid: Grid, f: ScalarField, tol_constant: float) -> float:
    """C_tol * h * ||f||_2; first-order-in-h model for rearrangement error."""
    return tol_constant * omega_grid.cell_width * f.norm(2)


def _curve(f: ScalarField) -> ConcentrationCurve:
    return concentration(decreasing_rearrangement(f))


def _split_curve(w_layer: ScalarField) -> ConcentrationCurve:
    """U-curve of one box layer, the running integral of w1* + w2* where
    w1, w2 = median_split(w_layer), from one sort of the layer.

    With desc the layer sorted descending and m its median, x -> fl(x - m)
    and max(., 0) are monotone, so max(desc - m, 0) is w1*, bit for bit;
    fl(-(x - m)) = -fl(x - m), so max(-(desc - m) reversed, 0) is w2*.
    Box cells share one measure, so both parts have the breakpoints
    [0, cumsum(measures)], and U is the sum of their running integrals
    there: the bytes add_curves gives for the two curves of median_split.
    """
    desc, meas = _sorted_desc(w_layer, signed=True)
    cum = np.cumsum(meas)
    shifted = desc - _sorted_median(desc, cum, w_layer.grid.total_measure)
    pos, neg = np.maximum(shifted, 0.0), np.maximum(-shifted[::-1], 0.0)
    F = np.cumsum(pos * meas) + np.cumsum(neg * meas)
    return ConcentrationCurve(s=np.concatenate([[0.0], cum]), F=np.concatenate([[0.0], F]))


def _slices(ys, w_layers, xi_layers, u_curve) -> list:
    """The comparison core: per height y, U = u_curve(w layer) against the
    rearranged curve V of the xi layer, on [0, |Omega|/2]."""
    slices = []
    for y, w_layer, xi_layer in zip(ys, w_layers, xi_layers):
        uc, vc = u_curve(w_layer), _curve(xi_layer)
        s_hi = w_layer.grid.total_measure / 2.0
        s = union_breakpoints(uc.s, vc.s)
        s = np.concatenate([s[s < s_hi], [s_hi]])
        slices.append(YSlice(y=float(y), s=s, U=uc.eval(s), V=vc.eval(s)))
    return slices


def _compare_extensions(omega_spec, ball_spec, sigma, u, v, y_samples, u_curve=_split_curve):
    """Extend both solutions and slice every height."""
    w = extend(omega_spec, sigma, u, y_samples)
    xi = extend(ball_spec, sigma, v, y_samples)
    return _slices(w.y_samples, w.layers, xi.layers, u_curve), w


def _report(slices, tolerance, params, split_reports=()) -> ComparisonReport:
    """Verdict worst gap <= tolerance; a gap or tolerance that overflowed
    raises NonFiniteData instead of giving a verdict."""
    for sl in slices:
        if not np.all(np.isfinite(sl.chi)):
            raise NonFiniteData(f"concentration gap at y = {sl.y:g} is not finite")
    if not math.isfinite(tolerance):
        raise NonFiniteData(f"tolerance {tolerance} is not finite")
    worst = max(sl.gap for sl in slices)
    return ComparisonReport(
        slices=tuple(slices),
        worst_gap=worst,
        tolerance=float(tolerance),
        verdict="holds" if worst <= tolerance else "violated",
        params=params,
        split_reports=tuple(split_reports),
    )


def _params(omega_spec, ball_spec, sigma, c, q, mode) -> dict:
    return {
        "sigma": float(sigma),
        "c": float(c),
        "gamma": float(ball_spec.gamma),
        "Q": None if q is None else float(q),
        "omega_grid": omega_spec.grid.to_json_dict(),
        "ball_grid": ball_spec.grid.to_json_dict(),
        "mode": mode,
    }


def _median_curve_is_flat(w, tol: float) -> bool:
    meds = [median(layer) for layer in w.layers]
    return max(meds) - min(meds) <= tol


@_overflow_checked
def elliptic_compare(
    omega_spec: SpectralOperator,
    ball_spec: SpectralOperator,
    sigma: float,
    c: float,
    f: ScalarField,
    y_samples,
    tol: float = None,
    tol_constant: float = DEFAULT_TOL_CONSTANT,
    q: float = None,
    split_mode: bool = False,
) -> ComparisonReport:
    """Run the full elliptic comparison for source f.

    Solves both problems, extends, and checks U <= V + tol at every height.
    With split_mode on and a y-constant median curve, the positive and
    negative parts are additionally compared against their own radial
    problems and reported separately.
    """
    _check_inputs(omega_spec.grid, ball_spec.grid, {"source f": f})
    mode = _mode(c)
    u = solve_elliptic(omega_spec, sigma, c, f)
    v = solve_elliptic(ball_spec, sigma, c, symmetrized_data(f, ball_spec.grid, mode))
    if tol is None:
        tol = default_tolerance(omega_spec.grid, f, tol_constant)
    slices, w = _compare_extensions(omega_spec, ball_spec, sigma, u, v, y_samples)
    params = _params(omega_spec, ball_spec, sigma, c, q, mode)
    split_reports = []
    if split_mode and _median_curve_is_flat(w, tol):
        split_reports = _split_mode_reports(
            omega_spec, ball_spec, sigma, c, f, u, mode, y_samples, tol, params
        )
    return _report(slices, tol, params, split_reports)


def _split_mode_reports(omega_spec, ball_spec, sigma, c, f, u, mode, y_samples, tol, params):
    """Separate comparisons w_i* vs xi_i* (flat-median strengthening)."""
    reports = []
    for label, f_i, u_i in zip(("positive", "negative"), _source_parts(f, mode), median_split(u)):
        v_i = solve_elliptic(ball_spec, sigma, c, _radial_datum([f_i], ball_spec.grid))
        slices, _ = _compare_extensions(omega_spec, ball_spec, sigma, u_i, v_i, y_samples, _curve)
        reports.append(_report(slices, tol, {**params, "part": label}))
    return reports


@_overflow_checked
def dominated_compare(
    omega_spec: SpectralOperator,
    ball_spec: SpectralOperator,
    sigma: float,
    c: float,
    f: ScalarField,
    g: ScalarField,
    y_samples,
    extra: ScalarField = None,
    g2: ScalarField = None,
    q: float = None,
) -> ComparisonReport:
    """Comparison against a dominating radial datum.

    g must be radially non-increasing on B with f1# + f2# < g (checked);
    an optional additive term `extra` on Omega requires its own dominating
    g2 with (extra+)# + (extra-)# < g2.  The Omega problem is solved with
    f (+ extra), the ball problem with g (+ g2).  The tolerance is the
    default C_tol * h * ||f (+ extra)||_2.
    """
    fields = {"source f": f, "datum g": g, "extra term": extra, "datum g2": g2}
    _check_inputs(omega_spec.grid, ball_spec.grid, fields)
    mode = _mode(c)
    _require_dominance(symmetrized_data(f, ball_spec.grid, mode), g, "f1# + f2#")
    datum = g
    source = f
    if extra is not None:
        if g2 is None:
            raise ValueError("an extra Omega term needs its own dominating datum g2")
        extra_parts = symmetrized_data(extra, ball_spec.grid, "zero_mean")
        _require_dominance(extra_parts, g2, "(h+)# + (h-)#")
        datum = g + g2
        source = f + extra
    u = solve_elliptic(omega_spec, sigma, c, source)
    v = solve_elliptic(ball_spec, sigma, c, datum)
    tol = default_tolerance(omega_spec.grid, source, DEFAULT_TOL_CONSTANT)
    slices, _ = _compare_extensions(omega_spec, ball_spec, sigma, u, v, y_samples)
    params = {**_params(omega_spec, ball_spec, sigma, c, q, mode), "dominated": True}
    return _report(slices, tol, params)


def _require_dominance(parts: ScalarField, g: ScalarField, label: str):
    scale = max(g.norm(1), parts.norm(1), 1.0)
    verdict = less_concentrated(_curve(parts), _curve(g), tol=_PRECONDITION_SLACK * scale)
    if not verdict.holds:
        raise DominanceViolated(
            f"{label} is not dominated by the radial datum "
            f"(gap {verdict.gap:.3e} at s = {verdict.s_at_gap:.6g})"
        )


def oscillation_check(u: ScalarField, v: ScalarField, tol: float = 0.0):
    """max(v) >= oscillation of u, up to tol; returns (holds, slack)."""
    osc = float(np.max(u.values) - np.min(u.values))
    slack = float(np.max(v.values)) - osc
    return slack >= -tol, slack


def lp_check(u: ScalarField, v: ScalarField, p_list, tol: float = 0.0) -> dict:
    """||u - median(u)||_p <= ||v||_p + tol for each requested p."""
    shifted = u - median(u)
    out = {}
    for p in p_list:
        key = "inf" if p in (math.inf, "inf") else p
        out[key] = shifted.norm(p) <= v.norm(p) + tol
    return out
