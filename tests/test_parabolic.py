import math
import warnings

import numpy as np
import pytest

from fracsym import (
    NonFiniteData,
    ScalarField,
    build_interval,
    build_operator,
    build_radial_ball,
    build_rectangle,
    dominated_compare,
    effective_gamma,
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

    def test_time_dependent_forcing_sampling(self, spec):
        phi = mode_field(spec, 1)
        forcing = lambda t: phi * math.cos(t)
        mid = mild_solve(spec, 0.5, phi, forcing, 1.0, 4, sampling="midpoint")
        avg = mild_solve(spec, 0.5, phi, forcing, 1.0, 4, sampling="average")
        # both consistent samplings land near each other
        assert (mid.state(4) - avg.state(4)).norm(2) < 1e-3

    def test_rejects_bad_arguments(self, spec):
        phi = mode_field(spec, 1)
        with pytest.raises(ValueError):
            mild_solve(spec, 0.5, phi, None, 1.0, 0)
        with pytest.raises(ValueError):
            mild_solve(spec, 0.5, phi, None, 0.0, 4)


class TestEffectiveGamma:
    def test_sigma_reading_passthrough(self):
        assert effective_gamma(0.3, 0.5, "sigma") == 0.3

    def test_half_reading_lands_on_sqrt(self):
        gamma, sigma = 0.3, 0.4
        eff = effective_gamma(gamma, sigma, "half")
        # after the sigma power the multiplier is gamma^(1/2)
        assert eff**sigma == pytest.approx(math.sqrt(gamma), rel=1e-13)

    def test_rejects_unknown_exponent(self):
        with pytest.raises(ValueError):
            effective_gamma(1.0, 0.5, "third")


class TestSymmetrizedProblem:
    def test_zero_data(self, spec):
        ball = build_radial_ball(32, 1, 0.5)
        zero = ScalarField(spec.grid, np.zeros(spec.grid.n_cells))
        v0, gs = symmetrized_parabolic_problem(zero, [zero, zero], ball)
        assert v0.norm("inf") == 0.0
        assert all(g.norm("inf") == 0.0 for g in gs)

    def test_initial_value_composition(self, spec):
        # oracle: compose the already-tested operations by hand
        from fracsym import median_split

        ball = build_radial_ball(32, 1, 0.5)
        u0 = mode_field(spec, 1)
        v0, _ = symmetrized_parabolic_problem(u0, [], ball)
        u1, u2 = median_split(u0)
        expected = schwarz_rearrangement(u1, ball, allow_truncation=True) + schwarz_rearrangement(
            u2, ball, allow_truncation=True
        )
        np.testing.assert_allclose(v0.values, expected.values)

    def test_time_constant_forcing_repeats(self, spec):
        ball = build_radial_ball(32, 1, 0.5)
        f = mode_field(spec, 2)
        _, gs = symmetrized_parabolic_problem(mode_field(spec, 1), [f, f, f], ball)
        for g in gs[1:]:
            np.testing.assert_allclose(g.values, gs[0].values)


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
        g1 = schwarz_rearrangement(
            f.positive_part(), bspec.grid, allow_truncation=True
        ) + schwarz_rearrangement(f.negative_part(), bspec.grid, allow_truncation=True)
        v0, _ = symmetrized_parabolic_problem(u0, [], bspec.grid)
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

    def test_extension_level_slices(self, spec):
        ball = build_radial_ball(64, 1, 0.5)
        bspec = build_operator(ball, gamma_constant(1, 1.0))
        u0 = mode_field(spec, 1)
        reports = parabolic_compare(
            spec, bspec, 0.5, u0, None, 0.5, 2, y_samples=[0.0, 0.2]
        )
        assert all(len(r.slices) == 2 for r in reports)
        assert all(r.holds for r in reports)

    def test_gamma_exponent_switch_changes_ball_solution(self):
        grid = build_rectangle(12, 12, 1.0, 1.0, "neumann")
        omega = build_operator(grid)
        gamma = gamma_constant(2, SQUARE_Q)
        sigma = 0.3
        u0 = eigenmode_source(grid, 1)
        outs = []
        for exponent in ("sigma", "half"):
            eff = effective_gamma(gamma, sigma, exponent)
            bspec = build_operator(build_radial_ball(12, 2, 0.5), eff)
            reports = parabolic_compare(omega, bspec, sigma, u0, None, 0.5, 2)
            outs.append(reports[-1].slices[0].V[-1])
        assert outs[0] != pytest.approx(outs[1], rel=1e-6)


def test_trajectory_csv_export(spec, tmp_path):
    from fracsym.parabolic import trajectory_to_csv

    phi = mode_field(spec, 1)
    traj = mild_solve(spec, 0.5, phi, None, 0.5, 2)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,t,cell,value"
    assert len(lines) == 1 + 3 * spec.grid.n_cells
