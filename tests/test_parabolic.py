import math
import warnings
from unittest import mock

import numpy as np
import pytest

from fracsym import (
    NonFiniteData,
    ScalarField,
    SpectralOperator,
    build_interval,
    build_operator,
    build_radial_ball,
    build_rectangle,
    dominated_compare,
    gamma_constant,
    implicit_step,
    median,
    mild_solve,
    parabolic_compare,
    schwarz_rearrangement,
    symmetrized_parabolic_problem,
)
from fracsym.sources import eigenmode_source, random_band_source

SQUARE_Q = 1.0 / math.sqrt(2.0)
GRIDS = {
    "interval": lambda: build_interval(40, 1.0, "neumann"),
    "rectangle": lambda: build_rectangle(12, 9, 1.0, 0.7, "neumann"),
    "ball": lambda: build_radial_ball(30, 2, 0.35),
}


@pytest.fixture(scope="module")
def spec():
    return build_operator(build_interval(64, 1.0, "neumann"))


def mode_field(spec, k):
    coeffs = np.zeros(spec.n_modes)
    coeffs[k] = 1.0
    return spec.synthesize(coeffs)


class TestImplicitStep:
    def test_eigenmode_resolvent(self, spec):
        phi = mode_field(spec, 2)
        lam = spec.eigenvalues[2]
        h, sigma = 0.1, 0.5
        out = implicit_step(spec, sigma, h, phi)
        assert (out - phi * (1.0 / (1.0 + h * lam**sigma))).norm(2) < 1e-13

    def test_constant_unchanged(self, spec):
        const = ScalarField(spec.grid, np.full(spec.grid.n_cells, 4.0))
        out = implicit_step(spec, 0.5, 0.2, const)
        assert (out - const).norm("inf") < 1e-12

    def test_pure_forcing(self, spec):
        zero = ScalarField(spec.grid, np.zeros(spec.grid.n_cells))
        phi = mode_field(spec, 3)
        h, sigma = 0.25, 0.5
        lam = spec.eigenvalues[3]
        out = implicit_step(spec, sigma, h, zero, phi)
        assert (out - phi * (h / (1.0 + h * lam**sigma))).norm(2) < 1e-13

    def test_rejects_nonpositive_step(self, spec):
        phi = mode_field(spec, 1)
        with pytest.raises(ValueError):
            implicit_step(spec, 0.5, 0.0, phi)


class TestMildSolve:
    def test_eigenmode_matches_exact_exponential(self, spec):
        phi = mode_field(spec, 1)
        lam = spec.eigenvalues[1]
        sigma, T = 0.5, 1.0
        errs = []
        for n in (8, 16, 32):
            traj = mild_solve(spec, sigma, phi, None, T, n)
            exact = math.exp(-(lam**sigma) * T)
            errs.append((traj.state(n) - exact * phi).norm(2))
            # exact resolvent power oracle
            assert (traj.state(n) - (1.0 + T / n * lam**sigma) ** -n * phi).norm(2) < 1e-12
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 0.9

    def test_constant_trajectory(self, spec):
        const = ScalarField(spec.grid, np.full(spec.grid.n_cells, 2.0))
        traj = mild_solve(spec, 0.5, const, None, 1.0, 5)
        for state in traj.states:
            assert (state - const).norm("inf") < 1e-12

    def test_steady_state_limit(self, spec):
        phi = mode_field(spec, 2)
        lam = spec.eigenvalues[2]
        sigma = 0.5
        zero = ScalarField(spec.grid, np.zeros(spec.grid.n_cells))
        traj = mild_solve(spec, sigma, zero, phi, 60.0, 240)
        target = phi * lam**-sigma
        assert (traj.state(240) - target).norm(2) < 1e-3 * target.norm(2)

    def test_step_residual_invariant(self, spec):
        rng = np.random.default_rng(1)
        u0 = ScalarField(spec.grid, rng.standard_normal(spec.grid.n_cells))
        forcing = mode_field(spec, 4)
        traj = mild_solve(spec, 0.5, u0, forcing, 1.0, 8)
        for k in range(1, 9):
            assert traj.step_residual(k) <= 1e-8

    def test_l2_contraction_without_forcing(self, spec):
        rng = np.random.default_rng(2)
        u0 = ScalarField(spec.grid, rng.standard_normal(spec.grid.n_cells))
        traj = mild_solve(spec, 0.5, u0, None, 1.0, 10)
        norms = [s.norm(2) for s in traj.states]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_mean_conservation_zero_mean_forcing(self, spec):
        rng = np.random.default_rng(3)
        u0 = ScalarField(spec.grid, rng.standard_normal(spec.grid.n_cells))
        forcing = mode_field(spec, 2)  # zero mean
        traj = mild_solve(spec, 0.5, u0, forcing, 1.0, 8)
        means = [s.mean() for s in traj.states]
        assert max(abs(m - means[0]) for m in means) < 1e-10

    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    @pytest.mark.parametrize("domain", sorted(GRIDS))
    def test_matches_iterated_implicit_step(self, domain, forced):
        # oracle: the state-space step, one forward and one inverse transform each
        grid = GRIDS[domain]()
        op = build_operator(grid, 0.3)
        rng = np.random.default_rng(5)
        u0 = ScalarField(grid, rng.standard_normal(grid.n_cells))
        f = ScalarField(grid, rng.standard_normal(grid.n_cells)) if forced else None
        sigma, T, n = 0.6, 0.8, 12
        traj = mild_solve(op, sigma, u0, f, T, n)
        state = u0
        for k in range(1, n + 1):
            state = implicit_step(op, sigma, T / n, state, f)
            assert (traj.state(k) - state).norm(2) <= 1e-12 * state.norm(2)

    def test_rejects_bad_arguments(self, spec):
        phi = mode_field(spec, 1)
        with pytest.raises(ValueError):
            mild_solve(spec, 0.5, phi, None, 1.0, 0)
        with pytest.raises(ValueError):
            mild_solve(spec, 0.5, phi, None, 0.0, 4)


class TestSymmetrizedProblem:
    def test_zero_data(self, spec):
        ball = build_radial_ball(32, 1, 0.5)
        zero = ScalarField(spec.grid, np.zeros(spec.grid.n_cells))
        v0, g = symmetrized_parabolic_problem(zero, zero, ball)
        assert v0.norm("inf") == 0.0 and g.norm("inf") == 0.0
        assert symmetrized_parabolic_problem(zero, None, ball)[1] is None

    def test_initial_value_composition(self, spec):
        # oracle: compose the already-tested operations by hand
        from fracsym import median_split

        ball = build_radial_ball(32, 1, 0.5)
        u0 = mode_field(spec, 1)
        v0, _ = symmetrized_parabolic_problem(u0, None, ball)
        u1, u2 = median_split(u0)
        expected = schwarz_rearrangement(u1, ball) + schwarz_rearrangement(u2, ball)
        np.testing.assert_allclose(v0.values, expected.values)


class TestParabolicCompare:
    def test_constant_initial_all_zero_gaps(self, spec):
        ball = build_radial_ball(64, 1, 0.5)
        bspec = build_operator(ball, gamma_constant(1, 1.0))
        const = ScalarField(spec.grid, np.full(spec.grid.n_cells, 3.0))
        reports = parabolic_compare(spec, bspec, 0.5, const, None, 1.0, 4)
        # spectral synthesis leaves fp dust on the constant state
        assert all(r.holds and r.worst_gap <= 1e-12 for r in reports)

    @pytest.mark.parametrize("bad", ["u0", "forcing"])
    def test_non_finite_data_rejected(self, spec, bad):
        bspec = build_operator(build_radial_ball(64, 1, 0.5), gamma_constant(1, 1.0))
        data = {"u0": mode_field(spec, 1), "forcing": mode_field(spec, 2)}
        data[bad] = data[bad] * math.nan
        with pytest.raises(NonFiniteData, match=bad):
            parabolic_compare(spec, bspec, 0.5, data["u0"], data["forcing"], 1.0, 2)

    @pytest.mark.parametrize("bad", ["u0", "forcing"])
    def test_fixed_data_checked_before_transform(self, spec, bad):
        bspec = build_operator(build_radial_ball(64, 1, 0.5), gamma_constant(1, 1.0))
        data = {"u0": mode_field(spec, 1), "forcing": mode_field(spec, 2)}
        data[bad] = ScalarField(spec.grid, np.full(spec.grid.n_cells, math.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteData, match=bad):
                parabolic_compare(spec, bspec, 0.5, data["u0"], data["forcing"], 1.0, 2)

    def test_overflowing_gap_rejected(self, spec):
        # finite data whose steps overflow: h * f_k = 5e607
        bspec = build_operator(build_radial_ball(64, 1, 0.5), gamma_constant(1, 1.0))
        huge = ScalarField(spec.grid, np.full(spec.grid.n_cells, 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteData, match="not finite"):
                parabolic_compare(spec, bspec, 0.5, mode_field(spec, 1), huge, 1e308, 2)

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, 1.0, 1.5, 3.0])
    def test_rejects_sigma_outside_open_interval(self, spec, sigma):
        bspec = build_operator(build_radial_ball(64, 1, 0.5), gamma_constant(1, 1.0))
        with pytest.raises(ValueError, match="sigma"):
            parabolic_compare(spec, bspec, sigma, mode_field(spec, 1), None, 1.0, 2)

    def test_rejects_callable_forcing(self, spec):
        bspec = build_operator(build_radial_ball(64, 1, 0.5), gamma_constant(1, 1.0))
        phi = mode_field(spec, 2)
        with pytest.raises(TypeError, match="forcing"):
            parabolic_compare(spec, bspec, 0.5, mode_field(spec, 1), lambda t: phi, 1.0, 2)

    def test_transform_count_does_not_grow_with_steps(self, spec):
        # one forward transform of u0 and of the forcing on each side
        bspec = build_operator(build_radial_ball(64, 1, 0.5), gamma_constant(1, 1.0))
        real = SpectralOperator.coefficients
        for forcing, expected in ((None, 2), (mode_field(spec, 2), 4)):
            for n in (1, 4, 16):
                with mock.patch.object(
                    SpectralOperator, "coefficients", autospec=True, side_effect=real
                ) as counted:
                    parabolic_compare(spec, bspec, 0.5, mode_field(spec, 1), forcing, 1.0, n)
                assert counted.call_count == expected, (forcing is None, n)

    def test_rejects_wrong_ball_measure(self, spec):
        bspec = build_operator(build_radial_ball(64, 1, 0.4), gamma_constant(1, 1.0))
        with pytest.raises(ValueError, match="ball measure"):
            parabolic_compare(spec, bspec, 0.5, mode_field(spec, 1), None, 1.0, 2)

    def test_eigenmode_square(self):
        grid = build_rectangle(16, 16, 1.0, 1.0, "neumann")
        omega = build_operator(grid)
        gamma = gamma_constant(2, SQUARE_Q)
        bspec = build_operator(build_radial_ball(16, 2, 0.5), gamma)
        u0 = eigenmode_source(grid, 1)
        reports = parabolic_compare(omega, bspec, 0.5, u0, None, 1.0, 8)
        assert len(reports) == 8
        assert all(r.holds for r in reports)
        # and a random initial value on the interval
        line = build_interval(32, 1.0, "neumann")
        bspec = build_operator(build_radial_ball(32, 1, 0.5), gamma_constant(1, 1.0))
        u0 = ScalarField(line, np.random.default_rng(0).standard_normal(32))
        reports = parabolic_compare(build_operator(line), bspec, 0.5, u0, None, 0.5, 4)
        assert all(r.holds for r in reports)

    def test_single_step_matches_elliptic_resolvent_form(self):
        # one implicit step is the elliptic problem with c = 1/h and source
        # f + u0/h; the two code paths must agree to 1e-10
        grid = build_rectangle(16, 16, 1.0, 1.0, "neumann")
        omega = build_operator(grid)
        gamma = gamma_constant(2, SQUARE_Q)
        bspec = build_operator(build_radial_ball(16, 2, 0.5), gamma)
        u0_raw = random_band_source(grid, 17)
        u0 = u0_raw - median(u0_raw)  # zero median: plain parts match split parts
        f = eigenmode_source(grid, 2)
        T = 0.25
        reports = parabolic_compare(omega, bspec, 0.5, u0, f, T, 1)
        sl = reports[0].slices[0]

        h = T
        g1 = schwarz_rearrangement(f.positive_part(), bspec.grid) + schwarz_rearrangement(
            f.negative_part(), bspec.grid
        )
        v0, _ = symmetrized_parabolic_problem(u0, None, bspec.grid)
        rep = dominated_compare(
            omega,
            bspec,
            0.5,
            1.0 / h,
            f,
            g1,
            [0.0],
            extra=u0 * (1.0 / h),
            g2=v0 * (1.0 / h),
        )
        sl2 = rep.slices[0]
        assert np.max(np.abs(sl.U - np.interp(sl.s, sl2.s, sl2.U))) < 1e-10
        assert np.max(np.abs(sl.V - np.interp(sl.s, sl2.s, sl2.V))) < 1e-10
