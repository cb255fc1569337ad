import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fracsym import (
    ScalarField,
    build_interval,
    build_operator,
    dtn_residual,
    extend,
    kappa,
    rho,
    rho_prime,
)


@pytest.fixture(scope="module")
def spec():
    return build_operator(build_interval(64, 1.0, "neumann"))


def subordination(sigma, t, expo):
    """(t/2)^s / Gamma(s) * int exp(-t cosh v - expo v) dv by adaptive quadrature.

    This is the subordination integral
    t^(2s) / (4^s Gamma(s)) * int_0^inf exp(-t^2/(4u) - u) u^(-1-expo) du
    after u = (t/2) e^v, an independent second method for the profile:
    expo = s gives rho(t) and expo = 1 - s gives -rho'(t).  The log scale
    spreads the sharp small-u spike, and exp(-t) is factored out so the
    integrand exp(-t (cosh v - 1) - expo v) is O(1) for any t > 0.
    """

    def integrand(v):
        if abs(v) >= 700.0:  # cosh overflows; the integrand has long underflowed
            return 0.0
        arg = t * (math.cosh(v) - 1.0) + expo * v
        return math.exp(-arg) if arg < 745.0 else 0.0

    val, _ = quad(integrand, -np.inf, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    return (0.5 * t) ** sigma / math.gamma(sigma) * math.exp(-t) * val


def mode_field(spec, k):
    coeffs = np.zeros(spec.n_modes)
    coeffs[k] = 1.0
    return spec.synthesize(coeffs)


class TestConstants:
    def test_kappa_half(self):
        assert kappa(0.5) == pytest.approx(1.0, abs=1e-14)

    def test_kappa_quarter_oracle(self):
        oracle = math.sqrt(2.0) * math.gamma(0.75) / math.gamma(0.25)
        assert kappa(0.25) == pytest.approx(oracle, rel=1e-12)
        assert kappa(0.25) == pytest.approx(0.477989, abs=1e-6)

    @pytest.mark.parametrize("sigma", [0.1, 0.3, 0.5, 0.8, 0.9])
    def test_kappa_reflection_identity(self, sigma):
        # kappa_s * kappa_{1-s} = 2^{1-2s} * 2^{2s-1} = 1
        assert kappa(sigma) * kappa(1.0 - sigma) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 1.0, -0.2, 1.5])
    def test_kappa_domain(self, sigma):
        with pytest.raises(ValueError):
            kappa(sigma)


class TestRho:
    def test_value_at_zero(self):
        for sigma in (0.25, 0.5, 0.75):
            assert rho(sigma, 0.0) == 1.0

    def test_half_is_exponential(self):
        t = np.linspace(0.0, 5.0, 101)
        assert np.max(np.abs(rho(0.5, t) - np.exp(-t))) < 1e-8

    @pytest.mark.parametrize("sigma", [0.25, 0.6, 0.75])
    def test_bessel_oracle(self, sigma):
        from scipy.special import kv

        for t in (0.01, 0.3, 1.0, 4.0, 20.0):
            oracle = 2 ** (1 - sigma) / math.gamma(sigma) * t**sigma * kv(sigma, t)
            assert rho(sigma, t) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("sigma", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_ode_residual(self, sigma, t):
        d = 1e-4
        rpp = (rho(sigma, t + d) - 2 * rho(sigma, t) + rho(sigma, t - d)) / d**2
        rp = (rho(sigma, t + d) - rho(sigma, t - d)) / (2 * d)
        resid = rpp + (1 - 2 * sigma) / t * rp - rho(sigma, t)
        assert abs(resid) < 1e-4

    def test_strictly_decreasing_to_zero(self):
        t = np.linspace(0.02, 30.0, 200)
        for sigma in (0.25, 0.5, 0.75):
            vals = rho(sigma, t)
            assert np.all(np.diff(vals) < 0)
            assert vals[-1] < 1e-11

    def test_derivative_matches_finite_difference(self):
        for sigma in (0.3, 0.7):
            for t in (0.5, 2.0):
                d = 1e-5
                fd = (rho(sigma, t + d) - rho(sigma, t - d)) / (2 * d)
                assert rho_prime(sigma, t) == pytest.approx(fd, rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        sigma=st.floats(0.05, 0.95),
        t=st.floats(-8.0, math.log10(700.0)).map(lambda e: min(10.0**e, 700.0)),
    )
    def test_subordination_oracle(self, sigma, t):
        assert rho(sigma, t) == pytest.approx(subordination(sigma, t, sigma), rel=1e-10)
        assert rho_prime(sigma, t) == pytest.approx(
            -subordination(sigma, t, 1.0 - sigma), rel=1e-10
        )

    def test_scalar_and_array_types(self):
        for fn in (rho, rho_prime):
            assert type(fn(0.3, 1.5)) is float
            assert type(fn(0.3, np.float64(1.5))) is float
            out = fn(0.3, [0.5, 1.5])
            assert isinstance(out, np.ndarray) and out.shape == (2,)

    def test_exact_limits_at_zero(self):
        for sigma, slope in ((0.25, -math.inf), (0.5, -1.0), (0.75, 0.0)):
            assert rho_prime(sigma, 0.0) == slope
            assert rho_prime(sigma, np.zeros(2)).tolist() == [slope, slope]

    def test_underflow_is_exact_zero_without_warning(self):
        # exp(-t) is 0.0 from t = 746 on, and scipy's kve turns NaN near t = 2^30
        t = np.array([0.0, 746.0, 800.0, 1e5, 2.0**30, 1e300])
        for sigma in (0.25, 0.5, 0.75):
            assert rho(sigma, 800.0) == 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r, rp = rho(sigma, t), rho_prime(sigma, t)
            assert r.tolist() == [1.0] + [0.0] * 5 and not np.signbit(r).any()
            assert rp[1:].tolist() == [0.0] * 5 and np.signbit(rp[1:]).all()
            assert math.isnan(rho(sigma, math.nan)) and math.isnan(rho_prime(sigma, math.nan))

    @pytest.mark.parametrize("t", [-1e-3, [1.0, -2.0]])
    def test_negative_t_rejected(self, t):
        for fn in (rho, rho_prime):
            with pytest.raises(ValueError, match="nonnegative"):
                fn(0.5, t)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_sigma_domain(self, sigma):
        for fn in (rho, rho_prime):
            with pytest.raises(ValueError, match="sigma"):
                fn(sigma, 1.0)

    def test_flux_constant_recovered(self):
        # -t^(1-2s) rho'(t) -> kappa(s) as t -> 0
        for sigma in (0.25, 0.5):
            t = 1e-6
            assert -(t ** (1 - 2 * sigma)) * rho_prime(sigma, t) == pytest.approx(
                kappa(sigma), rel=1e-4
            )


class TestExtend:
    def test_single_mode(self, spec):
        phi = mode_field(spec, 2)
        lam = spec.eigenvalues[2]
        w = extend(spec, 0.5, phi, [0.0, 0.4])
        expected = rho(0.5, math.sqrt(lam) * 0.4)
        assert (w.layers[1] - expected * phi).norm(2) < 1e-12

    def test_constant_propagates(self, spec):
        const = ScalarField(spec.grid, np.full(spec.grid.n_cells, 5.0))
        w = extend(spec, 0.3, const, [0.0, 1.0, 10.0])
        for layer in w.layers:
            assert (layer - const).norm("inf") < 1e-10

    def test_trace(self, spec):
        rng = np.random.default_rng(8)
        u = ScalarField(spec.grid, rng.standard_normal(spec.grid.n_cells))
        w = extend(spec, 0.5, u, [0.0, 0.1])
        assert (w.layers[0] - u).norm("inf") < 1e-10

    def test_zero_mean_persists(self, spec):
        rng = np.random.default_rng(9)
        u = ScalarField(spec.grid, rng.standard_normal(spec.grid.n_cells))
        u = u - u.mean()
        w = extend(spec, 0.5, u, [0.0, 0.2, 1.0])
        for layer in w.layers:
            assert abs(layer.mean()) < 1e-10

    def test_energy_decay_bound(self, spec):
        rng = np.random.default_rng(10)
        u = ScalarField(spec.grid, rng.standard_normal(spec.grid.n_cells))
        u = u - u.mean()
        lam1 = spec.eigenvalues[1]
        ys = [0.0, 0.05, 0.2, 0.5, 1.0]
        w = extend(spec, 0.5, u, ys)
        norms = [layer.norm(2) for layer in w.layers]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        for y, nrm in zip(w.y_samples, norms):
            assert nrm <= u.norm(2) * rho(0.5, math.sqrt(lam1) * y) + 1e-12

    def test_coefficient_decay_in_y(self, spec):
        phi = mode_field(spec, 4)
        w = extend(spec, 0.4, phi, [0.0, 0.1, 0.3, 1.0])
        mags = [abs(spec.coefficients(layer)[4]) for layer in w.layers]
        assert all(b <= a + 1e-13 for a, b in zip(mags, mags[1:]))


class TestDtN:
    @pytest.mark.parametrize("sigma", [0.25, 0.5])
    def test_mode_flux_within_one_percent(self, spec, sigma):
        for k in range(1, 6):
            lam = spec.eigenvalues[k]
            y = 1e-3 / math.sqrt(lam)
            flux = (
                -(y ** (1 - 2 * sigma))
                / kappa(sigma)
                * math.sqrt(lam)
                * rho_prime(sigma, math.sqrt(lam) * y)
            )
            assert abs(flux - lam**sigma) <= 1e-2 * lam**sigma

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 0.75])
    def test_residual_decreases(self, spec, sigma):
        rng = np.random.default_rng(11)
        u = ScalarField(spec.grid, rng.standard_normal(spec.grid.n_cells))
        u = u - u.mean()
        res = [dtn_residual(spec, sigma, u, y)[1] for y in (1e-1, 1e-2, 1e-3)]
        assert res[0] > res[1] > res[2]

    def test_constant_has_zero_residual(self, spec):
        const = ScalarField(spec.grid, np.full(spec.grid.n_cells, 2.0))
        _, nrm = dtn_residual(spec, 0.5, const, 1e-2)
        assert nrm < 1e-12

    def test_rejects_nonpositive_height(self, spec):
        phi = mode_field(spec, 1)
        with pytest.raises(ValueError):
            dtn_residual(spec, 0.5, phi, 0.0)


class TestNonzeroMean:
    def test_mean_rides_through_every_layer(self, spec):
        rng = np.random.default_rng(12)
        u = ScalarField(spec.grid, rng.standard_normal(spec.grid.n_cells) + 2.5)
        w = extend(spec, 0.5, u, [0.0, 0.2, 1.0])
        for layer in w.layers:
            assert layer.mean() == pytest.approx(u.mean(), abs=1e-10)
