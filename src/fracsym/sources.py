"""Analytic source-term presets.

Presets are evaluated from closed-form expressions on the cells of a box
(interval or rectangle) so the same continuum datum can be realized on
grids of different resolution (needed by the refinement studies).  The
analytic modes are tensor products of Neumann cosines, one factor per axis,
and must be resolvable on the grid: a mode index at or past an axis's cell
count is rejected rather than aliased.  Random fields are seeded,
band-limited combinations of the low analytic modes: a documented,
reproducible generator.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

from .grid import Grid, ScalarField

__all__ = [
    "constant_source",
    "eigenmode_source",
    "two_bump_source",
    "random_band_source",
    "project_zero_mean",
    "make_source",
]


def _mode_table(grid: Grid, count: int) -> np.ndarray:
    """Axis indices, one row per mode, of the first `count` nonzero Neumann
    cosine modes of a box, ordered by continuum eigenvalue
    sum_a (k_a pi / L_a)^2, ties broken by index.

    A mode with axis index k comes after the k - 1 lower modes of that axis
    alone, so indices up to `count` suffice.  Index n_a, one past an axis's
    cells, is kept as a sentinel: if it is among the first `count`, some
    wanted mode is not resolved on the grid and ValueError is raised.
    """
    if grid.kind == "radial_ball":
        raise ValueError("cosine modes need a box grid, got the radial ball")
    if count < 1:
        raise ValueError(f"need at least one mode, got {count}")
    # Python-float terms: numpy's x ** 2 differs from pow(x, 2) in the last
    # bit now and then, which can reorder modes whose eigenvalues tie exactly
    axis_lams = [
        np.array([(k * math.pi / length) ** 2 for k in range(min(count, n) + 1)])
        for n, length in zip(grid.shape, grid.lengths)
    ]
    lam = functools.reduce(np.add.outer, axis_lams)
    # a stable sort breaks ties by flat index, i.e. by axis index; mode 0 is the constant
    order = np.argsort(lam.ravel(), kind="stable")[1 : count + 1]
    table = np.column_stack(np.unravel_index(order, lam.shape))
    if np.any(table >= grid.shape):
        raise ValueError(
            f"the first {count} cosine modes reach axis index {table.max(axis=0).tolist()}; "
            f"a grid of {list(grid.shape)} cells per axis resolves only smaller indices"
        )
    return table


def _mode_values(grid: Grid, table: np.ndarray) -> Iterator[np.ndarray]:
    """Cell values of each mode in `table`, one mode at a time: the product
    over the axes of sqrt((2 if k else 1) / L) cos(k pi x / L), evaluated on
    the axis's cell centres and multiplied out by an outer product."""
    # centroids are x-major: axis a's centres are every prod(shape[a+1:])-th row
    centres = [grid.centroids[:: math.prod(grid.shape[a + 1 :]), a][:n]
               for a, n in enumerate(grid.shape)]
    for index in table:
        factors = [np.cos(k * math.pi * x / length)
                   for k, x, length in zip(index, centres, grid.lengths)]
        scale = math.prod(math.sqrt((2.0 if k else 1.0) / length)
                          for k, length in zip(index, grid.lengths))
        factors[0] = scale * factors[0]
        yield functools.reduce(np.multiply.outer, factors).ravel()


def constant_source(grid: Grid, value: float = 1.0) -> ScalarField:
    return ScalarField(grid, np.full(grid.n_cells, float(value)))


def eigenmode_source(grid: Grid, k: int = 1) -> ScalarField:
    """k-th nonzero Neumann cosine mode (unit continuum L2 norm)."""
    return ScalarField(grid, next(_mode_values(grid, _mode_table(grid, k)[-1:])))


def two_bump_source(grid: Grid) -> ScalarField:
    """Two Gaussian bumps of opposite sign on the domain diagonal, centred
    at 0.3 and 0.7 of each side, with width 0.1 of the shortest side."""
    if grid.kind == "radial_ball":
        raise ValueError("the two-bump preset needs a box grid, got the radial ball")
    w = 0.1 * min(grid.lengths)
    lo = 0.3 * np.asarray(grid.lengths)
    hi = 0.7 * np.asarray(grid.lengths)
    d1 = np.sum((grid.centroids - lo) ** 2, axis=1)
    d2 = np.sum((grid.centroids - hi) ** 2, axis=1)
    return ScalarField(grid, np.exp(-d1 / (2 * w * w)) - np.exp(-d2 / (2 * w * w)))


def random_band_source(grid: Grid, seed: int, n_modes: int = 12) -> ScalarField:
    """Seeded Gaussian combination of the first n_modes nonzero modes,
    normalized to unit weighted L2 norm."""
    table = _mode_table(grid, n_modes)
    coeffs = np.random.default_rng(seed).standard_normal(n_modes)
    vals = np.zeros(grid.n_cells)
    for c, mode in zip(coeffs, _mode_values(grid, table)):
        vals += c * mode
    f = ScalarField(grid, vals)
    nrm = f.norm(2)
    return f * (1.0 / nrm) if nrm > 0 else f


def project_zero_mean(f: ScalarField) -> ScalarField:
    return f - f.mean()


def make_source(grid: Grid, spec: str, seed: int = 0, project: bool = False) -> ScalarField:
    """Parse a preset string: eigenmode[:k], two-bump, random[:nmodes],
    constant[:value], zero."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "eigenmode":
        f = eigenmode_source(grid, int(arg) if arg else 1)
    elif name == "two-bump":
        f = two_bump_source(grid)
    elif name == "random":
        f = random_band_source(grid, seed, int(arg) if arg else 12)
    elif name == "constant":
        f = constant_source(grid, float(arg) if arg else 1.0)
    elif name == "zero":
        f = constant_source(grid, 0.0)
    else:
        raise ValueError(f"unknown source preset {spec!r}")
    return project_zero_mean(f) if project else f
