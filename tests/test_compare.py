import json
import math

import numpy as np
import pytest

from fracsym import (
    DominanceViolated,
    IncompatibleData,
    NonFiniteData,
    ScalarField,
    build_interval,
    build_operator,
    build_radial_ball,
    build_rectangle,
    concentration,
    decreasing_rearrangement,
    dominated_compare,
    elliptic_compare,
    gamma_constant,
    lp_check,
    oscillation_check,
    solve_elliptic,
    symmetrized_data,
)
from fracsym.compare import default_tolerance
from fracsym.sources import eigenmode_source, project_zero_mean, random_band_source

SQUARE_Q = 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="module")
def square_pair():
    grid = build_rectangle(24, 24, 1.0, 1.0, "neumann")
    omega = build_operator(grid)
    ball = build_radial_ball(24, 2, 0.5)
    bspec = build_operator(ball, gamma_constant(2, SQUARE_Q))
    return grid, omega, bspec


class TestGammaConstant:
    def test_unit_product(self):
        assert gamma_constant(2, 1.0 / (2 * math.sqrt(math.pi))) == pytest.approx(1.0, rel=1e-14)

    def test_one_dimensional(self):
        assert gamma_constant(1, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_inverse_square_scaling(self):
        assert gamma_constant(2, 2.0) == pytest.approx(gamma_constant(2, 1.0) / 4.0, rel=1e-14)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            gamma_constant(2, 0.0)


class TestSymmetrizedData:
    def test_zero_source(self):
        g = build_interval(20, 1.0)
        ball = build_radial_ball(16, 1, 0.5)
        out = symmetrized_data(ScalarField(g, np.zeros(20)), ball)
        assert out.norm("inf") == 0.0

    def test_plus_minus_one_fills_ball(self):
        # +1 on half, -1 on half: each part exactly fills B, so g = 2
        g = build_interval(20, 1.0)
        f = ScalarField(g, np.where(np.arange(20) < 10, 1.0, -1.0))
        ball = build_radial_ball(16, 1, 0.5)
        out = symmetrized_data(f, ball, "zero_mean")
        np.testing.assert_allclose(out.values, 2.0)

    def test_nonnegative_small_support_is_plain_rearrangement(self):
        from fracsym import schwarz_rearrangement

        g = build_interval(20, 1.0)
        f = ScalarField(g, np.where(np.arange(20) < 6, 2.0, 0.0))
        ball = build_radial_ball(16, 1, 0.5)
        np.testing.assert_allclose(
            symmetrized_data(f, ball, "zero_mean").values,
            schwarz_rearrangement(f, ball).values,
        )

    def test_with_c_mode_uses_median_shift(self):
        g = build_interval(20, 1.0)
        f = ScalarField(g, np.full(20, 3.0))
        ball = build_radial_ball(16, 1, 0.5)
        # constant data: f - median vanishes, so the radial datum is zero
        assert symmetrized_data(f, ball, "with_c").norm("inf") == 0.0
        assert symmetrized_data(f, ball, "zero_mean").norm("inf") == 3.0

    def test_rejects_wrong_ball_measure(self):
        g = build_interval(20, 1.0)
        ball = build_radial_ball(16, 1, 0.4)
        with pytest.raises(ValueError):
            symmetrized_data(ScalarField(g, np.ones(20)), ball)

    def test_rejects_ball_as_omega(self):
        # the U curve assumes the equal cells of a box
        omega = build_radial_ball(16, 1, 1.0)
        ball = build_radial_ball(8, 1, 0.5)
        with pytest.raises(ValueError, match="Omega"):
            symmetrized_data(ScalarField(omega, np.ones(16)), ball)

    def test_radially_nonincreasing(self):
        g = build_interval(30, 1.0)
        rng = np.random.default_rng(0)
        f = ScalarField(g, rng.standard_normal(30))
        out = symmetrized_data(f, build_radial_ball(16, 1, 0.5), "zero_mean")
        assert np.all(np.diff(out.values) <= 1e-15)


class TestEllipticCompare:
    def test_zero_source_trivial(self, square_pair):
        grid, omega, bspec = square_pair
        zero = ScalarField(grid, np.zeros(grid.n_cells))
        rep = elliptic_compare(omega, bspec, 0.5, 0.0, zero, [0.0, 0.5], tol=0.0, q=SQUARE_Q)
        assert rep.holds and rep.worst_gap == 0.0

    def test_eigenmode_holds(self, square_pair):
        grid, omega, bspec = square_pair
        f = eigenmode_source(grid, 1)
        rep = elliptic_compare(omega, bspec, 0.5, 0.0, f, [0.0, 0.1, 1.0], q=SQUARE_Q)
        assert rep.holds
        assert rep.worst_gap <= rep.tolerance

    def test_constant_with_c_trivial(self, square_pair):
        grid, omega, bspec = square_pair
        one = ScalarField(grid, np.ones(grid.n_cells))
        rep = elliptic_compare(omega, bspec, 0.5, 1.0, one, [0.0, 0.5], q=SQUARE_Q)
        # u = 1, median split kills it; the ball datum vanishes too
        assert rep.holds and rep.worst_gap == pytest.approx(0.0, abs=1e-12)

    def test_incompatible_source_propagates(self, square_pair):
        grid, omega, bspec = square_pair
        one = ScalarField(grid, np.ones(grid.n_cells))
        with pytest.raises(IncompatibleData):
            elliptic_compare(omega, bspec, 0.5, 0.0, one, [0.0], q=SQUARE_Q)

    def test_non_finite_source_rejected(self, square_pair):
        grid, omega, bspec = square_pair
        f = eigenmode_source(grid, 1) * math.nan
        with pytest.raises(NonFiniteData, match="source f"):
            elliptic_compare(omega, bspec, 0.5, 0.0, f, [0.0], q=SQUARE_Q)

    def test_overflowing_tolerance_rejected(self, square_pair):
        # finite source whose norm overflows the derived tolerance
        grid, omega, bspec = square_pair
        huge = ScalarField(grid, np.full(grid.n_cells, 1e300))
        with pytest.raises(NonFiniteData, match="tolerance"):
            elliptic_compare(
                omega, bspec, 0.5, 1.0, huge, [0.0], tol_constant=1e300, q=SQUARE_Q
            )

    def test_huge_source_gets_a_verdict(self, square_pair):
        grid, omega, bspec = square_pair
        huge = ScalarField(grid, np.full(grid.n_cells, 1e300))
        rep = elliptic_compare(omega, bspec, 0.5, 1.0, huge, [0.0], q=SQUARE_Q)
        assert rep.verdict == "holds"
        assert rep.tolerance == pytest.approx(10.0 / 24.0 * 1e300, rel=1e-14)

    def test_gap_shrinks_under_refinement(self):
        gaps = []
        for n in (12, 24):
            grid = build_rectangle(n, n, 1.0, 1.0, "neumann")
            omega = build_operator(grid)
            bspec = build_operator(build_radial_ball(n, 2, 0.5), gamma_constant(2, SQUARE_Q))
            f = project_zero_mean(random_band_source(grid, 3, n_modes=6))
            rep = elliptic_compare(omega, bspec, 0.5, 0.0, f, [0.0, 0.1], q=SQUARE_Q)
            gaps.append(rep.worst_gap)
        assert gaps[1] <= gaps[0]

    @pytest.mark.parametrize("sigma, c", [(0.3, 0.0), (0.8, 0.0), (0.8, 0.5)])
    def test_equality_gap_is_second_order(self, sigma, c):
        # cos(pi x) on (0, 1) against the half ball with gamma = 1/4: U = V in
        # the continuum, so max|chi| is pure discretization error, O(h^2)
        worst = []
        for n in (32, 128):
            grid = build_interval(n, 1.0, "neumann")
            bspec = build_operator(build_radial_ball(n, 1, 0.5), gamma_constant(1, 1.0))
            f = eigenmode_source(grid, 1)
            rep = elliptic_compare(build_operator(grid), bspec, sigma, c, f, [0.0, 0.1, 1.0])
            worst.append(max(float(np.max(np.abs(sl.chi))) for sl in rep.slices))
        assert worst[0] >= 12.0 * worst[1]

    def test_slices_concave_and_anchored(self, square_pair):
        grid, omega, bspec = square_pair
        f = project_zero_mean(random_band_source(grid, 5))
        rep = elliptic_compare(omega, bspec, 0.4, 0.0, f, [0.0, 0.2], q=SQUARE_Q)
        for sl in rep.slices:
            assert sl.U[0] == 0.0 and sl.V[0] == 0.0
            assert np.all(np.diff(sl.U) >= -1e-13)
            # slope diagnostics only over non-degenerate segments
            ds = np.diff(sl.s)
            wide = ds > 1e-6
            slopes = np.diff(sl.U)[wide] / ds[wide]
            assert np.all(np.diff(slopes) <= 1e-8)

    def test_split_mode_reports(self, square_pair):
        grid, omega, bspec = square_pair
        f = eigenmode_source(grid, 1)
        rep = elliptic_compare(
            omega, bspec, 0.5, 0.0, f, [0.0, 0.1], q=SQUARE_Q, split_mode=True
        )
        # eigenmode data give a y-constant zero median, so split mode engages
        assert len(rep.split_reports) == 2
        labels = {r.params["part"] for r in rep.split_reports}
        assert labels == {"positive", "negative"}
        assert all(r.holds for r in rep.split_reports)

    def test_report_json_schema_and_determinism(self, square_pair):
        grid, omega, bspec = square_pair
        f = project_zero_mean(random_band_source(grid, 9))
        blobs = []
        for _ in range(2):
            rep = elliptic_compare(omega, bspec, 0.5, 0.0, f, [0.0, 0.1], q=SQUARE_Q)
            blobs.append(json.dumps(rep.to_json_dict(), sort_keys=True))
        assert blobs[0] == blobs[1]
        data = json.loads(blobs[0])
        assert set(data) == {"params", "per_y", "worst_gap", "tolerance", "verdict", "split"}
        assert {"y", "s", "U", "V", "chi"} <= set(data["per_y"][0])


class TestScalingCoherence:
    def test_doubling_gamma_scales_solution(self):
        ball = build_radial_ball(32, 2, 0.5)
        b1 = build_operator(ball, 1.0)
        ball2 = build_radial_ball(32, 2, 0.5)
        b2 = build_operator(ball2, 2.0)
        g = ScalarField(ball, np.exp(-ball.centroids[:, 0] ** 2))
        g2 = ScalarField(ball2, g.values.copy())
        sigma = 0.6
        v1 = solve_elliptic(b1, sigma, 0.0, g)
        v2 = solve_elliptic(b2, sigma, 0.0, g2)
        np.testing.assert_allclose(v2.values, 2.0**-sigma * v1.values, rtol=1e-10)


class TestDominatedCompare:
    def test_reflexive_datum_matches_elliptic(self, square_pair):
        grid, omega, bspec = square_pair
        f = eigenmode_source(grid, 1)
        g = symmetrized_data(f, bspec.grid, "zero_mean")
        rep_dom = dominated_compare(omega, bspec, 0.5, 0.0, f, g, [0.0, 0.1], q=SQUARE_Q)
        rep_ell = elliptic_compare(omega, bspec, 0.5, 0.0, f, [0.0, 0.1], q=SQUARE_Q)
        assert rep_dom.worst_gap == pytest.approx(rep_ell.worst_gap, abs=1e-14)

    def test_mass_shifted_datum_holds(self, square_pair):
        # shift all dominated mass onto the inner half of B at a level high
        # enough to dominate both the initial slope and the total integral
        grid, omega, bspec = square_pair
        f = eigenmode_source(grid, 2)
        parts = symmetrized_data(f, bspec.grid, "zero_mean")
        parts_curve = concentration(decreasing_rearrangement(parts))
        ball = bspec.grid
        half_measure = ball.total_measure / 2.0
        inner = inner_ball_indicator(ball, half_measure)
        level = max(2.0 * f.norm("inf"), 2.0 * parts_curve.total / half_measure)
        g = ScalarField(ball, level * inner)
        rep = dominated_compare(omega, bspec, 0.5, 0.0, f, g, [0.0, 0.1], q=SQUARE_Q)
        assert rep.holds

    def test_underpowered_datum_rejected(self, square_pair):
        grid, omega, bspec = square_pair
        f = eigenmode_source(grid, 1)
        g = ScalarField(bspec.grid, np.full(bspec.grid.n_cells, 1e-8))
        with pytest.raises(DominanceViolated):
            dominated_compare(omega, bspec, 0.5, 0.0, f, g, [0.0], q=SQUARE_Q)

    @pytest.mark.parametrize("bad", ["f", "g", "extra", "g2"])
    def test_non_finite_field_rejected(self, square_pair, bad):
        grid, omega, bspec = square_pair
        data = {"f": eigenmode_source(grid, 1), "extra": eigenmode_source(grid, 2)}
        data["g"] = symmetrized_data(data["f"], bspec.grid)
        data["g2"] = symmetrized_data(data["extra"], bspec.grid)
        data[bad] = data[bad] * math.inf
        with pytest.raises(NonFiniteData, match=bad):
            dominated_compare(
                omega,
                bspec,
                0.5,
                0.0,
                data["f"],
                data["g"],
                [0.0],
                extra=data["extra"],
                g2=data["g2"],
            )

    def test_extra_term_needs_companion(self, square_pair):
        grid, omega, bspec = square_pair
        f = eigenmode_source(grid, 1)
        g = symmetrized_data(f, bspec.grid, "zero_mean")
        with pytest.raises(ValueError):
            dominated_compare(
                omega, bspec, 0.5, 1.0, f, g, [0.0], extra=eigenmode_source(grid, 2)
            )


def inner_ball_indicator(ball, measure):
    """Indicator of the concentric ball holding `measure`, on shell midpoints."""
    from fracsym import unit_ball_measure

    omega = unit_ball_measure(ball.dimension)
    s_mid = omega * ball.centroids[:, 0] ** ball.dimension
    return (s_mid < measure).astype(float)


@pytest.fixture(scope="module")
def solved_pair(square_pair):
    grid, omega, bspec = square_pair
    f = project_zero_mean(random_band_source(grid, 21))
    u = solve_elliptic(omega, 0.5, 0.0, f)
    v = solve_elliptic(bspec, 0.5, 0.0, symmetrized_data(f, bspec.grid, "zero_mean"))
    tol = default_tolerance(grid, f, 10.0)
    return u, v, tol


class TestConsequences:

    def test_oscillation(self, solved_pair):
        u, v, tol = solved_pair
        ok, slack = oscillation_check(u, v, tol=tol)
        assert ok and slack >= -tol

    def test_oscillation_trivial_zero(self, square_pair):
        grid, omega, bspec = square_pair
        zero = ScalarField(grid, np.zeros(grid.n_cells))
        zero_b = ScalarField(bspec.grid, np.zeros(bspec.grid.n_cells))
        ok, slack = oscillation_check(zero, zero_b)
        assert ok and slack == 0.0

    def test_lp_monotonicity(self, solved_pair):
        u, v, tol = solved_pair
        results = lp_check(u, v, [1, 2, 4, "inf"], tol=tol)
        assert set(results) == {1, 2, 4, "inf"}
        assert all(results.values())

    def test_l1_follows_from_endpoint(self, solved_pair):
        # p = 1 is the s = |Omega|/2 endpoint of the concentration estimate
        u, v, tol = solved_pair
        from fracsym import median

        shifted = u - median(u)
        assert shifted.norm(1) <= v.norm(1) + tol


class TestMonotoneDependence:
    def test_more_concentrated_datum_never_decreases_v(self):
        # monotone dependence: shift the datum's mass toward the
        # origin (same integral) and the V-curve may only go up
        import math

        ball = build_radial_ball(48, 2, 0.5)
        bspec = build_operator(ball, gamma_constant(2, SQUARE_Q))
        from fracsym import extend, unit_ball_measure

        omega = unit_ball_measure(2)
        s_mid = omega * ball.centroids[:, 0] ** 2
        g1 = ScalarField(ball, np.maximum(1.0 - 2.0 * s_mid, 0.0))
        inner = s_mid < 0.2
        inner_measure = float(np.sum(ball.measures[inner]))
        level = g1.integral() / inner_measure
        g2 = ScalarField(ball, level * inner.astype(float))
        c1 = concentration(decreasing_rearrangement(g1))
        c2 = concentration(decreasing_rearrangement(g2))
        from fracsym import less_concentrated

        assert less_concentrated(c1, c2, tol=1e-12).holds
        for sigma in (0.3, 0.7):
            v1 = solve_elliptic(bspec, sigma, 0.0, g1)
            v2 = solve_elliptic(bspec, sigma, 0.0, g2)
            w1 = extend(bspec, sigma, v1, [0.0, 0.1, 1.0])
            w2 = extend(bspec, sigma, v2, [0.0, 0.1, 1.0])
            for l1, l2 in zip(w1.layers, w2.layers):
                cc1 = concentration(decreasing_rearrangement(l1))
                cc2 = concentration(decreasing_rearrangement(l2))
                s = np.union1d(cc1.s, cc2.s)
                assert np.max(cc1.eval(s) - cc2.eval(s)) <= 1e-12
