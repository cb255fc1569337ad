import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fracsym import (
    ScalarField,
    build_interval,
    build_radial_ball,
    build_rectangle,
    concentration,
    decreasing_rearrangement,
    distribution_function,
    less_concentrated,
    median,
    median_split,
    schwarz_rearrangement,
)
from fracsym import rearrange
from fracsym.compare import _split_curve
from fracsym.rearrange import add_curves


def interval_field(values, length=1.0):
    vals = np.asarray(values, dtype=float)
    return ScalarField(build_interval(vals.size, length), vals)


def linear_field(n=200):
    g = build_interval(n, 1.0)
    return ScalarField(g, g.centroids[:, 0].copy())


finite_values = arrays(
    np.float64,
    st.integers(min_value=4, max_value=64),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False, width=64),
)


class TestDistributionFunction:
    def test_constant_above(self):
        f = interval_field([2.0] * 10)
        assert distribution_function(f, 1.0) == 1.0

    def test_strict_inequality(self):
        f = interval_field([2.0] * 10)
        assert distribution_function(f, 2.0) == 0.0

    def test_linear(self):
        f = linear_field()
        h = 1.0 / 200
        assert abs(distribution_function(f, 0.3) - 0.7) <= h

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            distribution_function(interval_field([1.0] * 4), -0.1)


class TestDecreasingRearrangement:
    def test_linear_profile(self):
        f = linear_field()
        prof = decreasing_rearrangement(f)
        s = np.linspace(1e-9, 1 - 1e-9, 333)
        assert np.max(np.abs(prof.value_at(s) - (1 - s))) <= 1.0 / 200

    def test_constant(self):
        prof = decreasing_rearrangement(interval_field([3.0] * 7))
        assert np.all(prof.values == 3.0)

    def test_two_valued_enumeration(self):
        # {3 on measure 0.4, 1 on measure 0.6}
        f = interval_field([1.0] * 6 + [3.0] * 4)
        prof = decreasing_rearrangement(f)
        assert prof.value_at(0.2) == 3.0
        assert prof.value_at(0.39) == 3.0
        assert prof.value_at(0.4) == 1.0  # right-continuous
        assert prof.value_at(0.9) == 1.0
        assert prof.value_at(1.2) == 0.0  # zero extension

    def test_uses_absolute_value(self):
        prof = decreasing_rearrangement(interval_field([-5.0, 1.0]))
        np.testing.assert_allclose(prof.values, [5.0, 1.0])


class TestSchwarz:
    def test_indicator_maps_to_ball(self):
        f = interval_field([1.0] * 30 + [0.0] * 70)  # support measure 0.3
        ball = build_radial_ball(64, 1, 1.0)
        g = schwarz_rearrangement(f, ball)
        omega_rn = 2.0 * ball.centroids[:, 0]
        np.testing.assert_allclose(g.values, (omega_rn < 0.3).astype(float))

    def test_constant_fills_ball(self):
        ball = build_radial_ball(16, 2, 0.5)
        f = ScalarField(ball, np.full(16, 4.0))
        np.testing.assert_allclose(schwarz_rearrangement(f, ball).values, 4.0)

    def test_linear_on_symmetric_interval(self):
        f = linear_field()
        ball = build_radial_ball(64, 1, 1.0)
        g = schwarz_rearrangement(f, ball)
        r = ball.centroids[:, 0]
        assert np.max(np.abs(g.values - (1 - 2 * r))) <= 2.0 / 200 + 2.0 / 64

    def test_radially_nonincreasing(self):
        rng = np.random.default_rng(5)
        f = interval_field(rng.standard_normal(40) * 0.5)
        ball = build_radial_ball(32, 2, 1.0)
        g = schwarz_rearrangement(f, ball)
        assert np.all(np.diff(g.values) <= 1e-15)

    def test_support_overflow_rejected(self):
        f = interval_field([1.0] * 100)
        ball = build_radial_ball(16, 1, 0.5)
        trunc = schwarz_rearrangement(f, ball)
        np.testing.assert_allclose(trunc.values, 1.0)


class TestMedian:
    def test_constant(self):
        assert median(interval_field([2.5] * 8)) == 2.5

    def test_two_block_enumeration(self):
        f = interval_field([0.0] * 60 + [1.0] * 40)
        assert median(f) == 0.0

    def test_linear(self):
        assert abs(median(linear_field()) - 0.5) <= 1.0 / 200

    def test_exact_half_tie_takes_infimum(self):
        f = interval_field([-1.0] * 50 + [1.0] * 50)
        assert median(f) == -1.0

    def test_zero_tie_takes_sign_of_first_cell(self):
        # the ball sorts ties by shell index, so this 0.0/-0.0 group starts with -0.0
        f = ScalarField(build_radial_ball(4, 2, 1.0), np.array([-0.0, 0.0, 0.0, 0.0]))
        assert math.copysign(1.0, median(f)) == -1.0


class TestMedianSplit:
    def test_constant_vanishes(self):
        u1, u2 = median_split(interval_field([7.0] * 9))
        assert u1.norm("inf") == 0.0 and u2.norm("inf") == 0.0

    def test_linear(self):
        f = linear_field()
        u1, u2 = median_split(f)
        x = f.grid.centroids[:, 0]
        h = 1.0 / 200
        assert np.max(np.abs(u1.values - np.maximum(x - 0.5, 0))) <= h
        assert np.max(np.abs(u2.values - np.maximum(0.5 - x, 0))) <= h

    def test_asymmetric_tie(self):
        f = interval_field([-1.0] * 5 + [1.0] * 5)
        u1, u2 = median_split(f)
        np.testing.assert_allclose(u1.values, [0.0] * 5 + [2.0] * 5)
        assert u2.norm("inf") == 0.0

    @settings(max_examples=40, deadline=None)
    @given(values=finite_values)
    def test_support_bound(self, values):
        f = interval_field(values)
        bound = f.grid.total_measure / 2 + f.grid.max_cell_measure + 1e-12
        for part in median_split(f):
            assert distribution_function(part, 0.0) <= bound


class TestConcentration:
    def test_constant_slope(self):
        curve = concentration(decreasing_rearrangement(interval_field([2.0] * 4)))
        s = np.linspace(0, 1, 9)
        np.testing.assert_allclose(curve.eval(s), 2.0 * s, atol=1e-15)

    def test_two_block_value(self):
        f = interval_field([1.0] * 6 + [3.0] * 4)
        curve = concentration(decreasing_rearrangement(f))
        assert curve.eval(0.5) == pytest.approx(3 * 0.4 + 1 * 0.1, abs=1e-14)

    def test_zero_field(self):
        curve = concentration(decreasing_rearrangement(interval_field([0.0] * 4)))
        assert curve.total == 0.0

    def test_concave_nondecreasing(self):
        rng = np.random.default_rng(11)
        curve = concentration(decreasing_rearrangement(interval_field(rng.standard_normal(50))))
        diffs = np.diff(curve.F)
        assert np.all(diffs >= -1e-15)
        slopes = diffs / np.diff(curve.s)
        assert np.all(np.diff(slopes) <= 1e-9)


class TestLessConcentrated:
    def curve(self, values):
        return concentration(decreasing_rearrangement(interval_field(values)))

    def test_reflexive(self):
        c = self.curve([1.0, 2.0, 0.5, 0.25])
        v = less_concentrated(c, c, tol=0.0)
        assert v.holds and v.gap == 0.0

    def test_spread_vs_peaked(self):
        flat = self.curve([1.0] * 10)
        peaked = self.curve([2.0] * 5 + [0.0] * 5)
        # equal mass, square integrals 1 vs 2
        assert flat.total == pytest.approx(peaked.total, abs=1e-14)
        assert interval_field([1.0] * 10).norm(2) ** 2 == pytest.approx(1.0)
        assert interval_field([2.0] * 5 + [0.0] * 5).norm(2) ** 2 == pytest.approx(2.0)
        assert less_concentrated(flat, peaked).holds
        back = less_concentrated(peaked, flat)
        assert not back.holds
        assert back.gap == pytest.approx(0.5, abs=1e-14)
        assert back.s_at_gap == pytest.approx(0.5, abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(a=finite_values, b=finite_values, c=finite_values)
    def test_transitive(self, a, b, c):
        n = min(len(a), len(b), len(c))
        ca, cb, cc = (self.curve(v[:n]) for v in (a, b, c))
        tol = 1e-12 * max(ca.total, cb.total, cc.total, 1.0)
        if less_concentrated(ca, cb, tol).holds and less_concentrated(cb, cc, tol).holds:
            assert less_concentrated(ca, cc, 2 * tol).holds


class TestNormPreservation:
    @settings(max_examples=40, deadline=None)
    @given(values=finite_values)
    def test_lp_conservation(self, values):
        f = interval_field(values)
        prof = decreasing_rearrangement(f)
        for p in (1, 2):
            direct = f.norm(p)
            via_profile = float(np.dot(prof.values**p, prof.widths)) ** (1.0 / p)
            assert abs(direct - via_profile) <= 1e-12 * max(direct, 1.0)
        assert f.norm("inf") == (prof.values[0] if prof.values.size else 0.0)

    @settings(max_examples=40, deadline=None)
    @given(values=finite_values, other=finite_values)
    def test_hardy_littlewood(self, values, other):
        n = min(len(values), len(other))
        f, g = interval_field(values[:n]), interval_field(other[:n])
        lhs = float(np.dot(np.abs(f.values * g.values), f.grid.measures))
        pf, pg = decreasing_rearrangement(f), decreasing_rearrangement(g)
        rhs = float(np.dot(pf.values * pg.values, pf.widths))
        assert lhs <= rhs + 1e-12 * max(rhs, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(values=finite_values)
    def test_equidistribution_exact(self, values):
        f = interval_field(values)
        prof = decreasing_rearrangement(f)
        for k in np.unique(np.abs(f.values)):
            mu_field = distribution_function(f, float(k))
            mu_profile = float(np.sum(prof.widths[prof.values > k]))
            assert mu_field == mu_profile


def test_add_curves_exact():
    f = interval_field([2.0] * 4)
    g = interval_field([1.0] * 8)
    cf = concentration(decreasing_rearrangement(f))
    cg = concentration(decreasing_rearrangement(g))
    total = add_curves(cf, cg)
    s = np.linspace(0, 1, 11)
    np.testing.assert_allclose(total.eval(s), cf.eval(s) + cg.eval(s), atol=1e-15)


def test_union_breakpoints_is_scale_free():
    # the twin threshold is relative: a domain of measure 1e-13 keeps every point
    rng = np.random.default_rng(3)
    a, b = np.sort(rng.random(40)), np.sort(rng.random(30))
    a[0] = b[0] = 0.0
    kept = rearrange.union_breakpoints(a, b)
    assert kept.size == 70 - 1
    assert rearrange.union_breakpoints(a * 1e-13, b * 1e-13).size == kept.size


# ------------------------------------------------------------ sort oracle
def _lexsort_desc(field, signed=False):
    """The permutation route: values sorted descending with ties broken by
    cell index, each cell's measure carried along."""
    v = field.values if signed else np.abs(field.values)
    order = np.lexsort((np.arange(v.size), -v))
    return v[order], field.grid.measures[order]


def _oracle_sort():
    return mock.patch.object(rearrange, "_sorted_desc", _lexsort_desc)


# few values, so ties, 0.0 beside -0.0, constant and all-zero fields occur
TIE_VALUES = (-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0)


@st.composite
def tie_fields(draw, kind):
    if kind == "interval":
        grid = build_interval(draw(st.integers(2, 40)), draw(st.sampled_from((1.0, 2.5))))
    elif kind == "rectangle":
        nx, ny = draw(st.integers(2, 7)), draw(st.integers(2, 7))
        lx, ly = draw(st.sampled_from((1.0, 0.7))), draw(st.sampled_from((1.0, 3.0)))
        grid = build_rectangle(nx, ny, lx, ly)
    else:
        grid = build_radial_ball(draw(st.integers(2, 24)), draw(st.integers(1, 3)), 0.5)
    pool = draw(st.lists(st.sampled_from(TIE_VALUES), min_size=1, max_size=3))
    n = grid.n_cells
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return ScalarField(grid, np.array(values))


def _same_bytes(*pairs):
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()


def _check_against_oracle(f):
    with _oracle_sort():
        want_prof = decreasing_rearrangement(f)
        want_curve = concentration(want_prof)
        want_median = median(f)
    prof = decreasing_rearrangement(f)
    curve = concentration(prof)
    _same_bytes(
        (prof.values, want_prof.values),
        (prof.breaks, want_prof.breaks),
        (prof.widths, want_prof.widths),
        (curve.s, want_curve.s),
        (curve.F, want_curve.F),
    )
    # the box sort may put -0.0 first where the oracle has 0.0
    assert median(f) == want_median


class TestSortOracle:
    """The value sort of boxes and the ball's stable permutation against
    the lexsort permutation route."""

    @settings(max_examples=80, deadline=None)
    @given(f=st.one_of(tie_fields("interval"), tie_fields("rectangle")))
    def test_box_matches_permutation_route(self, f):
        _check_against_oracle(f)
        ball = build_radial_ball(9, f.grid.dimension, f.grid.total_measure / 2.0)
        with _oracle_sort():
            want_split = add_curves(
                *(concentration(decreasing_rearrangement(p)) for p in median_split(f))
            )
            want_schwarz = schwarz_rearrangement(f, ball)
        split = _split_curve(f)
        schwarz = schwarz_rearrangement(f, ball)
        _same_bytes(
            (split.s, want_split.s),
            (split.F, want_split.F),
            (schwarz.values, want_schwarz.values),
        )

    @settings(max_examples=40, deadline=None)
    @given(f=tie_fields("radial_ball"))
    def test_ball_matches_permutation_route(self, f):
        _check_against_oracle(f)


def _median_by_definition(f):
    """The smallest value k of f with measure{f > k} <= |Omega|/2, with the
    1e-12 |Omega| slack median() allows for round-off, by enumeration."""
    total = f.grid.total_measure
    half = total / 2.0 + 1e-12 * total
    return min(k for k in f.values if np.sum(f.grid.measures[f.values > k]) <= half)


@settings(max_examples=120, deadline=None)
@given(f=st.one_of(tie_fields("interval"), tie_fields("rectangle"), tie_fields("radial_ball")))
def test_median_matches_definition(f):
    assert median(f) == _median_by_definition(f)
