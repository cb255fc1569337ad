import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracsym import ScalarField, build_interval, build_radial_ball, build_rectangle
from fracsym.sources import eigenmode_source, random_band_source, two_bump_source


# Oracle: the per-kind loop implementation the separable box path replaced.
def _loop_mode_table(grid, count):
    if grid.kind == "interval":
        length = grid.lengths[0]
        return [((k,), (k * math.pi / length) ** 2) for k in range(1, count + 1)]
    lx, ly = grid.lengths
    top = int(math.isqrt(count)) + count + 1
    cand = []
    for i in range(top):
        for j in range(top):
            if i == 0 and j == 0:
                continue
            lam = (i * math.pi / lx) ** 2 + (j * math.pi / ly) ** 2
            cand.append(((i, j), lam))
    cand.sort(key=lambda e: (e[1], e[0]))
    return cand[:count]


def _loop_mode_values(grid, index):
    if grid.kind == "interval":
        (k,) = index
        length = grid.lengths[0]
        x = grid.centroids[:, 0]
        return math.sqrt(2.0 / length) * np.cos(k * math.pi * x / length)
    lx, ly = grid.lengths
    i, j = index
    x, y = grid.centroids[:, 0], grid.centroids[:, 1]
    cx = math.sqrt((2.0 if i else 1.0) / lx)
    cy = math.sqrt((2.0 if j else 1.0) / ly)
    return cx * cy * np.cos(i * math.pi * x / lx) * np.cos(j * math.pi * y / ly)


def _loop_random_band(grid, seed, n_modes):
    coeffs = np.random.default_rng(seed).standard_normal(n_modes)
    vals = np.zeros(grid.n_cells)
    for c, (index, _) in zip(coeffs, _loop_mode_table(grid, n_modes)):
        vals += c * _loop_mode_values(grid, index)
    f = ScalarField(grid, vals)
    return (f * (1.0 / f.norm(2))).values


def _loop_two_bump(grid):
    w = 0.1 * min(grid.lengths)
    lo = 0.3 * np.asarray(grid.lengths)
    hi = 0.7 * np.asarray(grid.lengths)
    pts = grid.centroids[:, :1] if grid.kind == "interval" else grid.centroids
    d1 = np.sum((pts - lo) ** 2, axis=1)
    d2 = np.sum((pts - hi) ** 2, axis=1)
    return np.exp(-d1 / (2 * w * w)) - np.exp(-d2 / (2 * w * w))


def _resolved(grid, table):
    return all(k < n for index, _ in table for k, n in zip(index, grid.shape))


@st.composite
def cases(draw):
    """An interval or rectangle, 2-40 cells a side, lengths 0.2-5, with
    squares and 2:1 sides for ties; and a mode count, resolvable or not:
    up to one past the interval's modes, up to 300 on a rectangle (the loop
    oracle costs count^2)."""
    length = draw(st.floats(0.2, 5.0))
    nx = draw(st.integers(2, 40))
    shape = draw(st.sampled_from(["interval", "square", "two-to-one", "free"]))
    if shape == "interval":
        grid = build_interval(nx, length)
    elif shape == "square":
        grid = build_rectangle(nx, nx, length, length)
    else:
        ny = draw(st.integers(2, 40))
        ly = length / 2 if shape == "two-to-one" else draw(st.floats(0.2, 5.0))
        grid = build_rectangle(nx, ny, length, ly)
    top = grid.n_cells if grid.dimension == 1 else min(grid.n_cells, 300)
    return grid, draw(st.integers(1, top))


# i^2 + j^2 = 25 on a square: (0, 5), (3, 4), (4, 3), (5, 0) tie exactly at
# side 1; at side 3.1775... round-off puts (5, 0) before (3, 4)
_TIE_25 = build_rectangle(12, 12, 1.0, 1.0)
_TIE_25_ROUNDED = build_rectangle(12, 12, 3.1775386671436983, 3.1775386671436983)


class TestMatchesLoopOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=cases(), seed=st.integers(0, 2**32 - 1))
    @example(case=(_TIE_25, 23), seed=0)
    @example(case=(_TIE_25, 24), seed=1)
    @example(case=(_TIE_25_ROUNDED, 23), seed=2)
    @example(case=(_TIE_25_ROUNDED, 24), seed=3)
    def test_sources_bit_identical(self, case, seed):
        grid, count = case
        table = _loop_mode_table(grid, count)
        if not _resolved(grid, table):
            with pytest.raises(ValueError, match="resolves only"):
                eigenmode_source(grid, count)
            with pytest.raises(ValueError, match="resolves only"):
                random_band_source(grid, seed, count)
            return
        expected = _loop_mode_values(grid, table[-1][0])
        assert np.array_equal(eigenmode_source(grid, count).values, expected)
        expected = _loop_random_band(grid, seed, count)
        assert np.array_equal(random_band_source(grid, seed, count).values, expected)
        assert np.array_equal(two_bump_source(grid).values, _loop_two_bump(grid))

    @pytest.mark.parametrize(
        "grid",
        [
            build_interval(40, 1.0),
            build_rectangle(16, 16, 1.0, 1.0),
            build_rectangle(13, 13, 0.7, 0.7),
            build_rectangle(20, 10, 2.0, 1.0),
            build_rectangle(9, 31, 1.0, 1.0),
        ],
    )
    def test_every_count(self, grid):
        # the loop table of the largest count; its first k rows are the
        # table of count k, because the order does not depend on the count
        table = _loop_mode_table(grid, grid.n_cells)
        for count in range(1, grid.n_cells + 1):
            if _resolved(grid, table[:count]):
                expected = _loop_mode_values(grid, table[count - 1][0])
                assert np.array_equal(eigenmode_source(grid, count).values, expected)
            else:
                with pytest.raises(ValueError):
                    eigenmode_source(grid, count)


@pytest.mark.parametrize(
    "grid",
    [build_interval(17, 2.5), build_rectangle(12, 12, 1.0, 1.0), build_rectangle(9, 14, 0.5, 3.0)],
)
def test_modes_weighted_orthonormal(grid):
    # the constant and every resolved mode
    modes = [np.full(grid.n_cells, 1.0 / math.sqrt(grid.total_measure))]
    for count in range(1, grid.n_cells):
        try:
            modes.append(eigenmode_source(grid, count).values)
        except ValueError:
            break
    assert len(modes) > 10
    m = np.array(modes)
    gram = (m * grid.measures) @ m.T
    assert np.max(np.abs(gram - np.eye(len(modes)))) <= 1e-12


class TestUnresolvedModes:
    """A mode index at or past an axis's cell count is aliased on the grid
    (index n + j is -(n - j), index n vanishes), so it is rejected."""

    @pytest.mark.parametrize("k", [8, 9])
    def test_interval_past_its_cells(self, k):
        with pytest.raises(ValueError, match="resolves only"):
            eigenmode_source(build_interval(8, 1.0), k)

    def test_short_axis_of_a_rectangle(self):
        # mode 4 of a 64 x 2 unit square is (0, 2), past the two y cells
        with pytest.raises(ValueError, match="resolves only"):
            eigenmode_source(build_rectangle(64, 2, 1.0, 1.0), 4)

    @pytest.mark.parametrize("count", [0, -3])
    def test_no_modes(self, count):
        g = build_rectangle(8, 8, 1.0, 1.0)
        with pytest.raises(ValueError, match="at least one mode"):
            random_band_source(g, 0, count)
        with pytest.raises(ValueError, match="at least one mode"):
            eigenmode_source(g, count)


@pytest.mark.parametrize("preset", [eigenmode_source, two_bump_source])
def test_presets_need_a_box(preset):
    with pytest.raises(ValueError, match="radial"):
        preset(build_radial_ball(8, 2, 1.0))
