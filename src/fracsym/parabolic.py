"""Implicit time discretization for the fractional Cauchy-Neumann problem
and the step-by-step concentration comparison against the symmetrized
Cauchy-Dirichlet problem on the half-measure ball.

Each implicit step solves (1 + h * A) u_k = u_{k-1} + h f, so a trajectory
is a sequence of resolvent applications; the mild solution is the h -> 0
limit of the piecewise-constant interpolants.  Both operators are diagonal
in their modes, so a trajectory is marched in mode coefficients and each
state is synthesized once.  The forcing is one time-constant field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField
from .spectral import SpectralOperator, apply_fractional
from .extension import _check_open_sigma
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
    forcing: ScalarField  # the time-constant f, or None

    def __post_init__(self):
        self.times.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1

    def state(self, k: int) -> ScalarField:
        return self.states[k]

    def step_residual(self, k: int) -> float:
        """||h A u_k + u_k - u_{k-1} - h f||_2 for step k >= 1."""
        if not 1 <= k <= self.n_steps:
            raise IndexError(f"step index {k} out of range 1..{self.n_steps}")
        au = apply_fractional(self.spec, self.sigma, self.states[k])
        r = self.h * au + self.states[k] - self.states[k - 1]
        return (r if self.forcing is None else r - self.h * self.forcing).norm(2)


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
    """March n implicit steps to time T in mode coefficients:
    c_k = (c_{k-1} + h <f, phi>) / (1 + h lambda^sigma), from one forward
    transform of u0 and of the forcing (None or a time-constant
    ScalarField) and one synthesis per state.
    """
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    h = T / n
    denom = 1.0 + h * spec.eigenvalues**sigma
    coeffs = spec.coefficients(u0)
    push = 0.0 if forcing is None else h * spec.coefficients(forcing)
    states = [u0]
    for _ in range(n):
        coeffs = (coeffs + push) / denom
        states.append(spec.synthesize(coeffs))
    return Trajectory(spec, sigma, h, np.linspace(0.0, T, n + 1), tuple(states), forcing)


def symmetrized_parabolic_problem(u0: ScalarField, forcing, ball_grid: Grid):
    """Initial value and forcing of the ball problem: v0 is the rearranged
    median split of u0, and g = (f+)# + (f-)#, None without forcing."""
    v0 = symmetrized_data(u0, ball_grid, "with_c")
    return v0, None if forcing is None else symmetrized_data(forcing, ball_grid, "zero_mean")


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

    forcing is None or a time-constant ScalarField.  Returns one
    ComparisonReport per step, holding the trace-level (y = 0)
    concentration slice of the two states.
    """
    _check_open_sigma(sigma)
    if forcing is not None and not isinstance(forcing, ScalarField):
        raise TypeError(f"forcing must be a ScalarField or None, got {type(forcing).__name__}")
    _check_inputs(omega_spec.grid, ball_spec.grid, {"initial value u0": u0, "forcing": forcing})
    omega_traj = mild_solve(omega_spec, sigma, u0, forcing, T, n)
    ball_traj = mild_solve(
        ball_spec, sigma, *symmetrized_parabolic_problem(u0, forcing, ball_spec.grid), T, n
    )
    if tol is None:
        scale = u0.norm(2) + T * (0.0 if forcing is None else forcing.norm(2))
        tol = tol_constant * omega_spec.grid.cell_width * scale
    slices = _slices([0.0] * n, omega_traj.states[1:], ball_traj.states[1:], _split_curve)
    reports = []
    for k, sl in enumerate(slices, 1):
        params = {
            "step": k,
            "t": float(omega_traj.times[k]),
            "sigma": float(sigma),
            "h": float(omega_traj.h),
            "gamma": float(ball_spec.gamma),
        }
        reports.append(_report([sl], tol, params))
    return reports
