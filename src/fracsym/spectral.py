"""Discrete Laplacians with Neumann/Dirichlet conditions and their spectral
machinery: fractional powers and elliptic solvers.

Operators act on cell values and are symmetric in the measure-weighted
inner product <u, v> = sum(u * v * measure).  Interval and rectangle boxes
are matrix-free: their cell-centred stencils are diagonalised exactly by the
orthonormal DCT-II (Neumann) and DST-II (Dirichlet), so the spectrum is a
closed form and each transform is one scipy.fft call.  The radial ball is
one symmetric tridiagonal eigenproblem (scipy.linalg.eigh_tridiagonal); its
modes are held as a dense matrix, so it is capped at DENSE_CAP shells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg

from .grid import Grid, ScalarField, unit_ball_measure

__all__ = [
    "IncompatibleData",
    "EigendecompositionError",
    "SpectralOperator",
    "build_operator",
    "apply_fractional",
    "solve_elliptic",
]

DENSE_CAP = 12000
_RESIDUAL_TOL = 1e-8


class IncompatibleData(ValueError):
    """Zero-mean compatibility violated for a pure Neumann solve."""


class EigendecompositionError(RuntimeError):
    """Eigenpair residual check failed."""


@dataclass(frozen=True)
class _DenseBasis:
    """Weighted-orthonormal eigenvectors, one mode per column."""

    eigenvectors: np.ndarray  # (n_cells, n_modes), read-only
    measures: np.ndarray

    def forward(self, values: np.ndarray) -> np.ndarray:
        return self.eigenvectors.T @ (values * self.measures)

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        return self.eigenvectors @ coeffs


@dataclass(frozen=True)
class _BoxBasis:
    """Tensor cosine (Neumann) or sine (Dirichlet) modes of a uniform box,
    applied by the orthonormal type-II transform over every axis.

    Mode k is transform vector order[k] divided by sqrt(cell measure), so it
    is weighted-orthonormal and positive in cell 0.
    """

    shape: tuple
    bc: str
    order: np.ndarray  # flat transform index of each mode
    sqrt_measure: float

    def forward(self, values: np.ndarray) -> np.ndarray:
        transform = scipy.fft.dctn if self.bc == "neumann" else scipy.fft.dstn
        spectrum = transform(values.reshape(self.shape), type=2, norm="ortho")
        return (spectrum * self.sqrt_measure).ravel()[self.order]

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        transform = scipy.fft.idctn if self.bc == "neumann" else scipy.fft.idstn
        spectrum = np.empty(self.order.size)
        spectrum[self.order] = coeffs
        values = transform(spectrum.reshape(self.shape), type=2, norm="ortho")
        return values.ravel() / self.sqrt_measure


@dataclass(frozen=True)
class SpectralOperator:
    """Eigenvalues (ascending, >= 0) of a discrete Laplacian and the
    transforms to and from its modes, which are orthonormal in the
    measure-weighted inner product.

    Boxes apply their modes matrix-free; the radial ball holds them as a
    matrix, exposed as `eigenvectors`.
    """

    grid: Grid
    gamma: float
    bc: str
    eigenvalues: np.ndarray
    basis: object  # _DenseBasis | _BoxBasis

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)

    @property
    def eigenvectors(self) -> np.ndarray:
        """(n_cells, n_modes) mode matrix of a dense basis; a box has none
        (AttributeError)."""
        return self.basis.eigenvectors

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    def coefficients(self, field: ScalarField) -> np.ndarray:
        """Weighted inner products <field, phi_k> for every mode."""
        return self.basis.forward(field.values)

    def synthesize(self, coeffs: np.ndarray) -> ScalarField:
        return ScalarField(self.grid, self.basis.inverse(coeffs))


def _box_operator(grid: Grid, gamma: float) -> SpectralOperator:
    """Closed-form spectrum of a uniform box: the cell-centred 1D stencil
    (reflecting ghost for Neumann, odd-mirror ghost for Dirichlet) has
    eigenvalues (2 - 2cos(pi k/n))/h^2 per axis, with k = 0..n-1 (Neumann,
    DCT-II modes) or k = 1..n (Dirichlet, DST-II modes).  Modes are ordered
    by (lambda, i, j); the Neumann kernel is mode 0 with lambda exactly 0."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    first = 0 if grid.bc == "neumann" else 1
    axis_lams = []
    for n, length in zip(grid.shape, grid.lengths):
        k = np.arange(first, n + first)
        axis_lams.append(gamma * (2.0 - 2.0 * np.cos(math.pi * k / n)) / (length / n) ** 2)
    lam = functools.reduce(np.add.outer, axis_lams)
    # a stable sort breaks ties by flat index, i.e. by (i, j)
    order = np.argsort(lam.ravel(), kind="stable")
    basis = _BoxBasis(grid.shape, grid.bc, order, math.sqrt(grid.measures[0]))  # uniform cells
    return SpectralOperator(grid, float(gamma), grid.bc, lam.ravel()[order], basis)


def _ball_operator(grid: Grid, gamma: float) -> SpectralOperator:
    """Dirichlet modes of the radial ball.  The flux-form shell stencil of
    -r^(1-N) (r^(N-1) v')' (no flux through r = 0, zero wall value half a
    shell beyond r = R) is K / measure with K symmetric tridiagonal, so
    scaling by sqrt(measure) leaves one symmetric tridiagonal eigenproblem.
    Modes are psi / sqrt(measure), positive in shell 0.  Raises
    EigendecompositionError when any eigenpair residual exceeds
    1e-8 * max(1, lambda_max).

    Neighbouring measures are multiplied after an exact power-of-two scaling
    to at most 1, and the residual is divided by max(1, lambda_max) before
    squaring, so neither overflows nor underflows at an extreme radius."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n = grid.n_cells
    if n > DENSE_CAP:
        raise EigendecompositionError(
            f"ball has {n} shells; its dense mode matrix is capped at {DENSE_CAP}"
        )
    dim, radius, m = grid.dimension, grid.lengths[0], grid.measures
    faces = np.linspace(0.0, radius, n + 1)[1:]
    # gamma * face area / shell width; the last face is the wall, at half a shell
    flux = gamma * dim * unit_ball_measure(dim) * faces ** (dim - 1) / (radius / n)
    diag = (np.append(0.0, flux[:-1]) + np.append(flux[:-1], 2.0 * flux[-1])) / m
    shift = np.frexp(m.max())[1]
    ms = np.ldexp(m, -shift)
    off = -flux[:-1] / np.ldexp(np.sqrt(ms[:-1] * ms[1:]), shift)
    lam, psi = scipy.linalg.eigh_tridiagonal(diag, off)
    if lam[0] <= 0.0:
        raise EigendecompositionError("Dirichlet spectrum must be positive")
    psi *= np.where(psi[0] < 0, -1.0, 1.0)
    res = psi * (diag[:, None] - lam)
    res[:-1] += off[:, None] * psi[1:]
    res[1:] += off[:, None] * psi[:-1]
    res /= max(1.0, float(lam[-1]))
    worst = math.sqrt(float(np.max(np.einsum("ij,ij->j", res, res))))
    if worst > _RESIDUAL_TOL:
        raise EigendecompositionError(
            f"eigenpair residual {worst:.3e} relative to max(1, lambda_max) too large"
        )
    psi /= np.sqrt(m)[:, None]
    psi.setflags(write=False)
    return SpectralOperator(grid, float(gamma), grid.bc, lam, _DenseBasis(psi, m))


def build_operator(grid: Grid, gamma: float = 1.0) -> SpectralOperator:
    """Spectral operator of -gamma * Laplacian on the grid: matrix-free
    DCT/DST transforms on interval and rectangle boxes, the tridiagonal
    eigensolver on the radial ball."""
    if grid.kind == "radial_ball":
        return _ball_operator(grid, gamma)
    return _box_operator(grid, gamma)


def _check_sigma(sigma: float):
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")


def apply_fractional(spec: SpectralOperator, sigma: float, field: ScalarField) -> ScalarField:
    """Spectral multiplier lambda_k^sigma; constants are annihilated in the
    Neumann case."""
    _check_sigma(sigma)
    coeffs = spec.coefficients(field)
    return spec.synthesize(coeffs * spec.eigenvalues**sigma)


def solve_elliptic(
    spec: SpectralOperator, sigma: float, c: float, f: ScalarField
) -> ScalarField:
    """Solve (fractional Laplacian + c) u = f by spectral division.

    For c = 0 on a Neumann operator the data must have (numerically) zero
    mean and the returned solution is the zero-mean representative.
    """
    _check_sigma(sigma)
    if c < 0:
        raise ValueError(f"c must be nonnegative, got {c}")
    coeffs = spec.coefficients(f)
    lam = spec.eigenvalues
    if c == 0.0 and spec.bc == "neumann":
        if abs(coeffs[0]) > 1e-10 * max(f.norm(2), 1e-300):
            raise IncompatibleData(
                f"mean of f is {coeffs[0] / math.sqrt(spec.grid.total_measure):.3e}; "
                "a pure Neumann solve needs zero-mean data"
            )
        out = np.zeros_like(coeffs)
        out[1:] = coeffs[1:] / lam[1:] ** sigma
        return spec.synthesize(out)
    return spec.synthesize(coeffs / (lam**sigma + c))
