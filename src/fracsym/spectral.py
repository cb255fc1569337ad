"""Discrete Laplacians with Neumann/Dirichlet conditions and their spectral
machinery: fractional powers, elliptic solvers and the heat semigroup.

Operators act on cell values and are symmetric in the measure-weighted
inner product <u, v> = sum(u * v * measure).  Interval and rectangle boxes
are matrix-free: their cell-centred stencils are diagonalised exactly by the
orthonormal DCT-II (Neumann) and DST-II (Dirichlet), so the spectrum is a
closed form and each transform is one scipy.fft call.  The radial ball, and
the dense assemble_laplacian/eigendecompose route kept as the oracle for the
boxes, use a dense symmetric eigendecomposition capped at DENSE_CAP unknowns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg

from .grid import Grid, ScalarField, unit_ball_measure, write_csv

__all__ = [
    "IncompatibleData",
    "EigendecompositionError",
    "DiscreteLaplacian",
    "SpectralOperator",
    "assemble_laplacian",
    "eigendecompose",
    "build_operator",
    "apply_fractional",
    "solve_elliptic",
    "heat_semigroup",
]

DENSE_CAP = 12000
_RESIDUAL_TOL = 1e-8


class IncompatibleData(ValueError):
    """Zero-mean compatibility violated for a pure Neumann solve."""


class EigendecompositionError(RuntimeError):
    """Eigenpair residual check failed."""


@dataclass(frozen=True)
class DiscreteLaplacian:
    """Dense second-difference operator -gamma * Lap on a grid."""

    grid: Grid
    gamma: float
    bc: str
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def _tridiag_1d(n: int, h: float, bc: str) -> np.ndarray:
    """1D -d2/dx2 on n cells of width h; reflecting ghost (Neumann) or
    odd-mirror ghost (Dirichlet wall value zero)."""
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = 2.0
    a[idx[:-1], idx[:-1] + 1] = -1.0
    a[idx[1:], idx[1:] - 1] = -1.0
    if bc == "neumann":
        a[0, 0] = 1.0
        a[-1, -1] = 1.0
    else:
        a[0, 0] = 3.0
        a[-1, -1] = 3.0
    return a / h**2


def _radial_matrix(grid: Grid, gamma: float) -> np.ndarray:
    """Flux-form weighted radial Laplacian -r^(1-N) (r^(N-1) v')' with a
    zero-flux symmetry condition at r = 0 and zero wall value at r = R."""
    n = grid.n_cells
    dim = grid.dimension
    radius = grid.lengths[0]
    dr = radius / n
    omega = unit_ball_measure(dim)
    faces = np.linspace(0.0, radius, n + 1)
    area = dim * omega * faces ** (dim - 1)  # interface "surface" factors
    k = np.zeros((n, n))
    for i in range(n - 1):
        f = area[i + 1] / dr
        k[i, i] += f
        k[i + 1, i + 1] += f
        k[i, i + 1] -= f
        k[i + 1, i] -= f
    # interface 0 carries no flux (symmetry at the origin); the wall sees the
    # zero Dirichlet value at half-cell distance
    k[-1, -1] += 2.0 * area[-1] / dr
    return gamma * (k / grid.measures[:, None])


def assemble_laplacian(grid: Grid, gamma: float = 1.0) -> DiscreteLaplacian:
    """Dense operator for -gamma * Laplacian with the grid's boundary
    condition."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if grid.kind == "radial_ball":
        mat = _radial_matrix(grid, gamma)
    else:
        # Kronecker sum over the axes of a box, x-major like its cells
        axes = [_tridiag_1d(n, length / n, grid.bc) for n, length in zip(grid.shape, grid.lengths)]
        mat = gamma * functools.reduce(
            lambda a, b: np.kron(a, np.eye(len(b))) + np.kron(np.eye(len(a)), b), axes
        )
    return DiscreteLaplacian(grid=grid, gamma=float(gamma), bc=grid.bc, matrix=mat)


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

    Boxes apply their modes matrix-free; the radial ball and the dense
    oracle hold them as a matrix, exposed as `eigenvectors`.
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

    def spectrum_to_csv(self, path):
        write_csv(path, ("k", "eigenvalue"), enumerate(self.eigenvalues))


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """First component exceeding 1e-8 of the column max is made positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-8 * np.max(np.abs(col)))[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def _clamp_spectrum(lam: np.ndarray, bc: str) -> np.ndarray:
    lam = lam.copy()
    tiny = 1e-12 * max(float(lam[-1]), 1.0)
    lam[np.abs(lam) < tiny] = 0.0
    if bc == "neumann":
        lam[0] = 0.0
    elif lam[0] <= 0.0:
        raise EigendecompositionError("Dirichlet spectrum must be positive")
    if np.any(lam < 0.0):
        raise EigendecompositionError("negative eigenvalue after clamping")
    return lam


def eigendecompose(op: DiscreteLaplacian) -> SpectralOperator:
    """Dense symmetric eigendecomposition in the weighted inner product.

    The operator is conjugated by sqrt(measures) so a standard symmetric
    solver applies; eigenvectors come back weighted-orthonormal with a
    deterministic sign convention.  Raises EigendecompositionError when any
    eigenpair residual exceeds 1e-8.
    """
    n = op.grid.n_cells
    if n > DENSE_CAP:
        raise EigendecompositionError(
            f"grid has {n} unknowns; dense eigendecomposition capped at {DENSE_CAP}"
        )
    sqrt_m = np.sqrt(op.grid.measures)
    b = op.matrix * (sqrt_m[:, None] / sqrt_m[None, :])
    b = 0.5 * (b + b.T)
    lam, psi = scipy.linalg.eigh(b)
    vecs = _fix_signs(psi / sqrt_m[:, None])
    vecs.setflags(write=False)
    lam = _clamp_spectrum(lam, op.bc)
    basis = _DenseBasis(eigenvectors=vecs, measures=op.grid.measures)
    spec = SpectralOperator(op.grid, op.gamma, op.bc, lam, basis)
    _check_residuals(op.matrix, spec)
    return spec


def _check_residuals(matrix: np.ndarray, spec: SpectralOperator):
    res = matrix @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues[None, :]
    m = spec.grid.measures
    worst = math.sqrt(float(np.max(np.sum(res * res * m[:, None], axis=0))))
    if worst > _RESIDUAL_TOL * max(1.0, float(spec.eigenvalues[-1])):
        raise EigendecompositionError(f"eigenpair residual {worst:.3e} too large")


def _box_operator(grid: Grid, gamma: float) -> SpectralOperator:
    """Closed-form spectrum of a uniform box: the cell-centred stencil of
    _tridiag_1d has eigenvalues (2 - 2cos(pi k/n))/h^2 per axis, with
    k = 0..n-1 (Neumann, DCT-II modes) or k = 1..n (Dirichlet, DST-II
    modes).  Modes are ordered by (lambda, i, j); the Neumann kernel is
    mode 0 with lambda exactly 0."""
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


def build_operator(grid: Grid, gamma: float = 1.0) -> SpectralOperator:
    """Spectral operator of -gamma * Laplacian on the grid: matrix-free
    DCT/DST transforms on interval and rectangle boxes, the dense
    eigendecomposition on the radial ball."""
    if grid.kind == "radial_ball":
        return eigendecompose(assemble_laplacian(grid, gamma))
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


def heat_semigroup(spec: SpectralOperator, t: float, field: ScalarField) -> ScalarField:
    """exp(t * Lap) field via multipliers exp(-lambda_k t)."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    coeffs = spec.coefficients(field)
    return spec.synthesize(coeffs * np.exp(-spec.eigenvalues * t))
