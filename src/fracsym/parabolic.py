"""Implicit time discretization for the fractional Cauchy-Neumann problem
and the step-by-step concentration comparison against the symmetrized
Cauchy-Dirichlet problem on the half-measure ball.

Each implicit step solves (1 + h * A) u_k = u_{k-1} + h f_k spectrally, so
a trajectory is a sequence of resolvent applications; the mild solution is
the h -> 0 limit of the piecewise-constant interpolants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField, write_csv
from .spectral import SpectralOperator, apply_fractional
from .compare import (
    _check_inputs,
    _compare_extensions,
    _overflow_checked,
    _report,
    _slices,
    _split_curve,
    symmetrized_data,
)

__all__ = [
    "Trajectory",
    "implicit_step",
    "mild_solve",
    "effective_gamma",
    "symmetrized_parabolic_problem",
    "parabolic_compare",
    "trajectory_to_csv",
]


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant-in-time discrete solution u_{h,k}, k = 0..n."""

    spec: SpectralOperator
    sigma: float
    h: float
    times: np.ndarray
    states: tuple
    sources: tuple  # per-step samples f_k^{(h)}, k = 1..n

    def __post_init__(self):
        self.times.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return len(self.sources)

    def state(self, k: int) -> ScalarField:
        return self.states[k]

    def step_residual(self, k: int) -> float:
        """||h A u_k + u_k - u_{k-1} - h f_k||_2 for step k >= 1."""
        if not 1 <= k <= self.n_steps:
            raise IndexError(f"step index {k} out of range 1..{self.n_steps}")
        au = apply_fractional(self.spec, self.sigma, self.states[k])
        r = self.h * au + self.states[k] - self.states[k - 1] - self.h * self.sources[k - 1]
        return r.norm(2)


def implicit_step(
    spec: SpectralOperator, sigma: float, h: float, prev: ScalarField, f_k: ScalarField = None
) -> ScalarField:
    """One backward step: multipliers 1/(1 + h lambda^sigma) on prev + h f_k."""
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    rhs = prev if f_k is None else prev + h * f_k
    coeffs = spec.coefficients(rhs)
    return spec.synthesize(coeffs / (1.0 + h * spec.eigenvalues**sigma))


def _sample_forcing(forcing, t0: float, t1: float, sampling: str) -> ScalarField:
    if isinstance(forcing, ScalarField):
        return forcing
    if sampling == "midpoint":
        return forcing(0.5 * (t0 + t1))
    if sampling == "average":
        # Simpson on the subinterval; consistent sampling is all that is needed
        return (1.0 / 6.0) * (
            forcing(t0) + 4.0 * forcing(0.5 * (t0 + t1)) + forcing(t1)
        )
    raise ValueError(f"sampling must be 'midpoint' or 'average', got {sampling!r}")


def mild_solve(
    spec: SpectralOperator,
    sigma: float,
    u0: ScalarField,
    forcing,
    T: float,
    n: int,
    sampling: str = "midpoint",
) -> Trajectory:
    """March n implicit steps to time T.

    forcing may be None, a time-constant ScalarField, or a callable
    t -> ScalarField; per-step samples default to the midpoint value.
    """
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    h = T / n
    times = np.linspace(0.0, T, n + 1)
    zero = ScalarField(spec.grid, np.zeros(spec.grid.n_cells))
    states = [u0]
    sources = []
    for k in range(1, n + 1):
        f_k = zero if forcing is None else _sample_forcing(
            forcing, times[k - 1], times[k], sampling
        )
        sources.append(f_k)
        states.append(implicit_step(spec, sigma, h, states[-1], f_k))
    return Trajectory(
        spec=spec, sigma=sigma, h=h, times=times, states=tuple(states), sources=tuple(sources)
    )


def effective_gamma(gamma: float, sigma: float, exponent: str = "sigma") -> float:
    """Diffusion to build the ball operator with, so the step multipliers
    realize either reading of the symmetrized operator.

    "sigma": (-gamma Lap)^sigma, multipliers gamma^sigma * lambda^sigma.
    "half":  gamma^(1/2) (-Lap)^sigma; obtained by feeding gamma^(1/(2 sigma))
    into the assembly so the sigma-power lands on gamma^(1/2).
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if exponent == "sigma":
        return gamma
    if exponent == "half":
        return gamma ** (1.0 / (2.0 * sigma))
    raise ValueError(f"gamma exponent must be 'sigma' or 'half', got {exponent!r}")


def symmetrized_parabolic_problem(u0: ScalarField, f_samples, ball_grid: Grid):
    """Initial value and per-step sources of the ball problem.

    v0 is the rearranged median split of u0; each source sample maps to
    (f_k+)# + (f_k-)#.
    """
    v0 = symmetrized_data(u0, ball_grid, "with_c")
    g_samples = [symmetrized_data(f_k, ball_grid, "zero_mean") for f_k in f_samples]
    return v0, g_samples


@_overflow_checked
def parabolic_compare(
    omega_spec: SpectralOperator,
    ball_spec: SpectralOperator,
    sigma: float,
    u0: ScalarField,
    forcing,
    T: float,
    n: int,
    tol: float = None,
    tol_constant: float = 10.0,
    y_samples=None,
    sampling: str = "midpoint",
):
    """Step both problems with matched h and compare at every t_k.

    Returns one ComparisonReport per step, holding the trace-level (y = 0)
    concentration slice and, when y_samples is given, extension-level
    slices of the two states as well.
    """
    fixed_forcing = forcing if isinstance(forcing, ScalarField) else None
    _check_inputs(
        omega_spec.grid, ball_spec.grid, {"initial value u0": u0, "forcing": fixed_forcing}
    )
    omega_traj = mild_solve(omega_spec, sigma, u0, forcing, T, n, sampling)
    _check_inputs(omega_spec.grid, ball_spec.grid, {"forcing": omega_traj.sources})
    v0, g_samples = symmetrized_parabolic_problem(
        u0, omega_traj.sources, ball_spec.grid
    )
    h = T / n
    states_v = [v0]
    for g_k in g_samples:
        states_v.append(implicit_step(ball_spec, sigma, h, states_v[-1], g_k))
    if tol is None:
        f_scale = max((f.norm(2) for f in omega_traj.sources), default=0.0)
        scale = u0.norm(2) + T * f_scale
        tol = tol_constant * omega_spec.grid.cell_width * scale
    reports = []
    for k in range(1, n + 1):
        u_k, v_k = omega_traj.state(k), states_v[k]
        if y_samples is None:
            slices = _slices([0.0], [u_k], [v_k], _split_curve)
        else:
            slices, _ = _compare_extensions(omega_spec, ball_spec, sigma, u_k, v_k, y_samples)
        params = {
            "step": k,
            "t": float(omega_traj.times[k]),
            "sigma": float(sigma),
            "h": float(h),
            "gamma": float(ball_spec.gamma),
        }
        reports.append(_report(slices, tol, params))
    return reports


def trajectory_to_csv(traj: Trajectory, path):
    """Rows (k, t, cell, value)."""
    rows = (
        (k, t, i, v)
        for k, (t, state) in enumerate(zip(traj.times, traj.states))
        for i, v in enumerate(state.values)
    )
    write_csv(path, ("k", "t", "cell", "value"), rows)
