"""Implicit time discretization for the fractional Cauchy-Neumann problem
and the step-by-step concentration comparison against the symmetrized
Cauchy-Dirichlet problem on the half-measure ball.

Each implicit step solves (1 + h * A) u_k = u_{k-1} + h f_k spectrally, so
a trajectory is a sequence of resolvent applications; the mild solution is
the h -> 0 limit of the piecewise-constant interpolants.  A time-dependent
forcing is sampled once per step, at the step midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField
from .spectral import SpectralOperator, apply_fractional
from .compare import (
    DEFAULT_TOL_CONSTANT,
    _check_inputs,
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
    "symmetrized_parabolic_problem",
    "parabolic_compare",
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


def mild_solve(
    spec: SpectralOperator, sigma: float, u0: ScalarField, forcing, T: float, n: int
) -> Trajectory:
    """March n implicit steps to time T.

    forcing may be None, a time-constant ScalarField, or a callable
    t -> ScalarField, sampled at the midpoint of each step.
    """
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    h = T / n
    times = np.linspace(0.0, T, n + 1)
    if forcing is None:
        forcing = ScalarField(spec.grid, np.zeros(spec.grid.n_cells))
    states = [u0]
    sources = []
    for k in range(1, n + 1):
        mid = 0.5 * (times[k - 1] + times[k])
        f_k = forcing if isinstance(forcing, ScalarField) else forcing(mid)
        sources.append(f_k)
        states.append(implicit_step(spec, sigma, h, states[-1], f_k))
    return Trajectory(
        spec=spec, sigma=sigma, h=h, times=times, states=tuple(states), sources=tuple(sources)
    )


def symmetrized_parabolic_problem(u0: ScalarField, f_samples, ball_grid: Grid):
    """Initial value and per-step sources of the ball problem.

    v0 is the rearranged median split of u0; each source sample maps to
    (f_k+)# + (f_k-)#, computed once per distinct sample object (a
    time-constant forcing is one object repeated at every step).
    """
    v0 = symmetrized_data(u0, ball_grid, "with_c")
    radial = {}
    for f_k in f_samples:
        if id(f_k) not in radial:
            radial[id(f_k)] = symmetrized_data(f_k, ball_grid, "zero_mean")
    return v0, [radial[id(f_k)] for f_k in f_samples]


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
    tol_constant: float = DEFAULT_TOL_CONSTANT,
):
    """Step both problems with matched h and compare at every t_k.

    Returns one ComparisonReport per step, holding the trace-level (y = 0)
    concentration slice of the two states.
    """
    fixed_forcing = forcing if isinstance(forcing, ScalarField) else None
    _check_inputs(
        omega_spec.grid, ball_spec.grid, {"initial value u0": u0, "forcing": fixed_forcing}
    )
    omega_traj = mild_solve(omega_spec, sigma, u0, forcing, T, n)
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
        slices = _slices([0.0], [omega_traj.state(k)], [states_v[k]], _split_curve)
        params = {
            "step": k,
            "t": float(omega_traj.times[k]),
            "sigma": float(sigma),
            "h": float(h),
            "gamma": float(ball_spec.gamma),
        }
        reports.append(_report(slices, tol, params))
    return reports
