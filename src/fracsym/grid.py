"""Discretized domains and the scalar fields living on them.

Three grid kinds are supported: the Neumann domains, a 1D interval and a
2D rectangle, which are both uniform boxes made by one tensor-grid builder
that loops over the axes; and a radial ball made of spherical shells (the
Dirichlet model domain).  Every grid carries per-cell Lebesgue measures;
all integrals, inner products and norms are weighted by them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "unit_ball_measure",
    "build_interval",
    "build_rectangle",
    "build_radial_ball",
]


def unit_ball_measure(dim: int) -> float:
    """Lebesgue measure of the unit ball in R^dim (2, pi, 4pi/3, ...)."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


@dataclass(frozen=True)
class Grid:
    """Immutable cell-centered grid.

    Attributes:
        kind: "interval" | "rectangle" | "radial_ball"
        dimension: ambient dimension N
        shape: cells per axis ((n,), (nx, ny) or (n_shells,))
        lengths: side lengths, or (radius,) for the ball
        bc: "neumann" | "dirichlet"
        centroids: (n_cells, k) cell centroid coordinates; for the ball
            the single column holds the shell midpoint radius
        measures: (n_cells,) strictly positive cell measures, units length^N
        total_measure: sum of measures (= analytic domain measure)
    """

    kind: str
    dimension: int
    shape: tuple
    lengths: tuple
    bc: str
    centroids: np.ndarray
    measures: np.ndarray
    total_measure: float

    def __post_init__(self):
        self.centroids.setflags(write=False)
        self.measures.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return self.measures.size

    @property
    def cell_width(self) -> float:
        """Largest per-axis cell width (the discretization scale h); the
        shell width on the ball."""
        return max(length / n for n, length in zip(self.shape, self.lengths))

    @property
    def max_cell_measure(self) -> float:
        return float(self.measures.max())

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "N": self.dimension,
            "n": list(self.shape),
            "bc": self.bc,
            "total_measure": float(self.total_measure),
        }
        if self.kind == "radial_ball":
            out["radius"] = float(self.lengths[0])
        else:
            out["lengths"] = [float(x) for x in self.lengths]
        return out


def _check_bc(bc: str) -> str:
    if bc not in ("neumann", "dirichlet"):
        raise ValueError(f"bc must be 'neumann' or 'dirichlet', got {bc!r}")
    return bc


def _build_box(kind: str, shape, lengths, bc: str) -> Grid:
    """Uniform tensor grid on [0, L_1] x ... x [0, L_N]; cells ordered
    x-major (the last axis varies fastest)."""
    if min(shape) < 2:
        raise ValueError(f"need at least 2 cells per side, got {tuple(shape)}")
    if min(lengths) <= 0:
        raise ValueError(f"side lengths must be positive, got {tuple(lengths)}")
    lengths = tuple(float(length) for length in lengths)
    widths = [length / n for n, length in zip(shape, lengths)]
    axes = [(np.arange(n) + 0.5) * h for n, h in zip(shape, widths)]
    centroids = np.column_stack([c.ravel() for c in np.meshgrid(*axes, indexing="ij")])
    return Grid(
        kind=kind,
        dimension=len(shape),
        shape=tuple(shape),
        lengths=lengths,
        bc=_check_bc(bc),
        centroids=centroids,
        measures=np.full(centroids.shape[0], math.prod(widths)),
        total_measure=math.prod(lengths),
    )


def build_interval(n: int, length: float, bc: str = "neumann") -> Grid:
    """Uniform partition of [0, length] into n cells."""
    return _build_box("interval", (n,), (length,), bc)


def build_rectangle(nx: int, ny: int, lx: float, ly: float, bc: str = "neumann") -> Grid:
    """Tensor grid on [0, lx] x [0, ly]; cell index ix * ny + iy."""
    return _build_box("rectangle", (nx, ny), (lx, ly), bc)


def build_radial_ball(n: int, dim: int, target_measure: float) -> Grid:
    """Ball of given measure split into n uniform radial shells (Dirichlet).

    The radius is R = (target_measure / omega_N)^(1/N); shell i covers
    [i, i+1) * R/n and carries measure omega_N * (r_{i+1}^N - r_i^N).
    """
    if n < 2:
        raise ValueError(f"need at least 2 shells, got n={n}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if target_measure <= 0:
        raise ValueError(f"target_measure must be positive, got {target_measure}")
    omega = unit_ball_measure(dim)
    radius = (target_measure / omega) ** (1.0 / dim)
    edges = np.linspace(0.0, radius, n + 1)
    measures = omega * (edges[1:] ** dim - edges[:-1] ** dim)
    centroids = (0.5 * (edges[:-1] + edges[1:])).reshape(-1, 1)
    return Grid(
        kind="radial_ball",
        dimension=dim,
        shape=(n,),
        lengths=(float(radius),),
        bc="dirichlet",
        centroids=centroids,
        measures=measures,
        total_measure=float(np.sum(measures)),
    )


@dataclass(frozen=True)
class ScalarField:
    """Real values attached to the cells of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid with {self.grid.n_cells} cells"
            )
        object.__setattr__(self, "values", vals)

    def integral(self) -> float:
        return float(np.dot(self.values, self.grid.measures))

    def mean(self) -> float:
        return self.integral() / self.grid.total_measure

    def inner(self, other: "ScalarField") -> float:
        """Measure-weighted L2 inner product."""
        self._check_same_grid(other)
        return float(np.dot(self.values * other.values, self.grid.measures))

    def norm(self, p=2) -> float:
        if p == math.inf or p == "inf":
            return float(np.max(np.abs(self.values))) if self.values.size else 0.0
        if p < 1:
            raise ValueError(f"p must be >= 1 or inf, got {p}")
        a = np.abs(self.values)
        top = float(np.max(a)) if a.size else 0.0
        if top == 0.0 or not math.isfinite(top):
            return top
        # scaled by the max so that |v|^p cannot overflow for finite values
        return top * float(np.dot((a / top) ** p, self.grid.measures) ** (1.0 / p))

    def positive_part(self) -> "ScalarField":
        return ScalarField(self.grid, np.maximum(self.values, 0.0))

    def negative_part(self) -> "ScalarField":
        return ScalarField(self.grid, np.maximum(-self.values, 0.0))

    def _check_same_grid(self, other: "ScalarField"):
        if self.grid is not other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other):
        if isinstance(other, ScalarField):
            self._check_same_grid(other)
            return ScalarField(self.grid, self.values + other.values)
        return ScalarField(self.grid, self.values + float(other))

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            self._check_same_grid(other)
            return ScalarField(self.grid, self.values - other.values)
        return ScalarField(self.grid, self.values - float(other))

    def __mul__(self, scalar):
        return ScalarField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.values)
