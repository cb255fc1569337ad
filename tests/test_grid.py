import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracsym import (
    ScalarField,
    build_interval,
    build_radial_ball,
    build_rectangle,
    unit_ball_measure,
)


def test_unit_ball_measures():
    assert unit_ball_measure(1) == pytest.approx(2.0, abs=1e-15)
    assert unit_ball_measure(2) == pytest.approx(math.pi, abs=1e-15)
    assert unit_ball_measure(3) == pytest.approx(4 * math.pi / 3, abs=1e-14)


class TestInterval:
    def test_uniform_partition(self):
        g = build_interval(4, 1.0)
        assert g.n_cells == 4
        np.testing.assert_allclose(g.measures, 0.25)

    def test_total_measure(self):
        assert build_interval(2, 2.0).total_measure == 2.0
        g = build_interval(100, 1.0)
        assert abs(g.measures.sum() - 1.0) < 1e-12

    def test_centroids(self):
        g = build_interval(4, 1.0)
        np.testing.assert_allclose(g.centroids[:, 0], [0.125, 0.375, 0.625, 0.875])

    @pytest.mark.parametrize("n,length", [(1, 1.0), (0, 1.0), (4, 0.0), (4, -2.0)])
    def test_rejects_degenerate(self, n, length):
        with pytest.raises(ValueError):
            build_interval(n, length)


class TestRectangle:
    def test_small(self):
        g = build_rectangle(2, 2, 1.0, 1.0)
        assert g.n_cells == 4
        np.testing.assert_allclose(g.measures, 0.25)

    def test_total(self):
        assert build_rectangle(3, 2, 3.0, 2.0).total_measure == 6.0
        g = build_rectangle(64, 64, 1.0, 1.0)
        assert abs(g.measures.sum() - 1.0) < 1e-12

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            build_rectangle(1, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_rectangle(4, 4, 1.0, 0.0)

    def test_centroids_x_major(self):
        # cell index = ix * ny + iy: y varies fastest
        g = build_rectangle(3, 2, 3.0, 2.0)
        expected = [[0.5, 0.5], [0.5, 1.5], [1.5, 0.5], [1.5, 1.5], [2.5, 0.5], [2.5, 1.5]]
        assert np.array_equal(g.centroids, expected)


@pytest.mark.parametrize(
    "grid, width",
    [
        (build_interval(8, 2.0), 0.25),
        (build_rectangle(4, 2, 1.0, 3.0), 1.5),  # the y cells are wider
        (build_rectangle(8, 2, 4.0, 0.5), 0.5),  # the x cells are wider
        (build_radial_ball(8, 2, math.pi), 0.125),  # shell width, radius 1
    ],
)
def test_cell_width(grid, width):
    assert grid.cell_width == width


class TestRadialBall:
    def test_radius_one_dim(self):
        g = build_radial_ball(8, 1, 1.0)
        assert g.lengths[0] == pytest.approx(0.5, abs=1e-15)

    def test_radius_disk(self):
        g = build_radial_ball(8, 2, math.pi)
        assert g.lengths[0] == pytest.approx(1.0, abs=1e-14)

    def test_half_measure_disk(self):
        # closed-form radius oracle
        g = build_radial_ball(50, 2, 0.5)
        assert g.lengths[0] == pytest.approx(math.sqrt(0.5 / math.pi), rel=1e-14)
        assert abs(g.measures.sum() - 0.5) < 1e-12 * 0.5

    def test_shell_measure_formula(self):
        g = build_radial_ball(6, 3, 2.0)
        omega = unit_ball_measure(3)
        edges = np.linspace(0.0, g.lengths[0], 7)
        np.testing.assert_allclose(g.measures, omega * (edges[1:] ** 3 - edges[:-1] ** 3))

    def test_dirichlet_tag(self):
        assert build_radial_ball(4, 2, 1.0).bc == "dirichlet"

    def test_rejects_bad_measure(self):
        with pytest.raises(ValueError):
            build_radial_ball(4, 2, 0.0)
        with pytest.raises(ValueError):
            build_radial_ball(4, 2, -1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
        dim=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=2, max_value=40),
    )
    def test_measure_roundtrip(self, m, dim, n):
        g = build_radial_ball(n, dim, m)
        assert abs(g.measures.sum() - m) <= 1e-12 * m
        assert np.all(g.measures > 0)


def test_reconstruction_is_deterministic():
    a = build_rectangle(5, 7, 1.0, 2.0)
    b = build_rectangle(5, 7, 1.0, 2.0)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.measures, b.measures)


def test_grids_are_immutable():
    g = build_interval(4, 1.0)
    with pytest.raises(ValueError):
        g.measures[0] = 7.0


def test_json_metadata():
    d = build_radial_ball(4, 2, 0.5).to_json_dict()
    assert d["kind"] == "radial_ball" and d["N"] == 2 and "radius" in d
    d = build_rectangle(4, 4, 1.0, 2.0).to_json_dict()
    assert d["lengths"] == [1.0, 2.0]


class TestScalarField:
    def test_integral_and_mean(self):
        g = build_interval(4, 2.0)
        f = ScalarField(g, np.array([1.0, 2.0, 3.0, 4.0]))
        assert f.integral() == pytest.approx(0.5 * 10.0)
        assert f.mean() == pytest.approx(2.5)

    def test_norms(self):
        g = build_interval(2, 1.0)
        f = ScalarField(g, np.array([3.0, -4.0]))
        assert f.norm(1) == pytest.approx(3.5)
        assert f.norm(2) == pytest.approx(math.sqrt(12.5))
        assert f.norm("inf") == 4.0

    def test_norm_of_huge_field_is_finite(self):
        # |v|^2 overflows for v = 1e300, the scaled norm does not
        g = build_rectangle(16, 16, 2.0, 4.0)
        f = ScalarField(g, np.full(g.n_cells, 1e300))
        assert f.norm(2) == pytest.approx(1e300 * math.sqrt(8.0), rel=1e-15)
        assert ScalarField(g, np.zeros(g.n_cells)).norm(2) == 0.0

    def test_parts(self):
        g = build_interval(2, 1.0)
        f = ScalarField(g, np.array([3.0, -4.0]))
        np.testing.assert_allclose(f.positive_part().values, [3.0, 0.0])
        np.testing.assert_allclose(f.negative_part().values, [0.0, 4.0])
        np.testing.assert_allclose((f.positive_part() - f.negative_part()).values, f.values)

    def test_grid_mismatch(self):
        f = ScalarField(build_interval(2, 1.0), np.ones(2))
        h = ScalarField(build_interval(2, 1.0), np.ones(2))
        with pytest.raises(ValueError):
            f.inner(h)  # distinct grid objects

    def test_shape_check(self):
        with pytest.raises(ValueError):
            ScalarField(build_interval(4, 1.0), np.ones(3))
