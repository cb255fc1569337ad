"""Harmonic extension machinery for the spectral fractional Laplacian.

The degenerate cylinder problem is never discretized directly: the
extension is assembled mode by mode as rho(sqrt(lambda_k) y) times the
boundary coefficients, where rho solves

    rho'' + ((1 - 2*sigma)/t) rho' = rho,   rho(0) = 1,
    -lim_{t->0} t^(1-2*sigma) rho'(t) = kappa(sigma).

rho is evaluated by adaptive quadrature of the subordination integral

    rho(t) = t^(2s) / (4^s Gamma(s)) * int_0^inf exp(-t^2/(4u) - u) u^(-1-s) du

rather than by ODE shooting: the flux condition at t = 0 is singular and
quadrature sidesteps it (the ODE is only used as a residual test).  The
derivative reuses the same kernel at the mirrored exponent,
rho'(t) = -t / (2 Gamma(s)) * I_{1-s}(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .grid import ScalarField, write_csv
from .spectral import SpectralOperator, apply_fractional

__all__ = [
    "kappa",
    "nu",
    "beta",
    "rho",
    "rho_prime",
    "z_of_y",
    "y_of_z",
    "ExtensionField",
    "extend",
    "dtn_residual",
    "extension_to_csv",
]

# exp(-745) underflows to 0.0; beyond that the profile is an exact double 0
_UNDERFLOW_T = 745.0


def _check_open_sigma(sigma: float):
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")


def kappa(sigma: float) -> float:
    """2^(1-2s) Gamma(1-s) / Gamma(s); equals 1 at s = 1/2."""
    _check_open_sigma(sigma)
    return 2.0 ** (1.0 - 2.0 * sigma) * math.gamma(1.0 - sigma) / math.gamma(sigma)


def nu(sigma: float) -> float:
    """Degeneracy exponent (2s - 1)/s of the z-form cylinder equation."""
    _check_open_sigma(sigma)
    return (2.0 * sigma - 1.0) / sigma


def beta(sigma: float) -> float:
    """Flux normalization (2s)^(2s-1) * kappa(s) of the z-form problem."""
    _check_open_sigma(sigma)
    return (2.0 * sigma) ** (2.0 * sigma - 1.0) * kappa(sigma)


def _subordination_integrand(v: float, expo: float, t: float) -> float:
    # cosh overflows past ~710; there t*(cosh(v)-1) has long underflowed the result
    if abs(v) >= 700.0:
        return 0.0
    arg = t * (math.cosh(v) - 1.0) + expo * v
    if arg > _UNDERFLOW_T:
        return 0.0
    return math.exp(-arg)


@lru_cache(maxsize=1 << 18)
def _subordination_integral(expo: float, t: float) -> float:
    """exp(t) * (t/2)^expo * int_0^inf exp(-t^2/(4u) - u) u^(-1-expo) du.

    The substitution u = (t/2) exp(v) spreads the sharp small-u spike of the
    kernel over a log scale and factors out the exp(-t) tail, leaving the
    smooth integrand exp(-t(cosh v - 1) - expo*v) that quad resolves to full
    relative accuracy for any t > 0.
    """
    val, _ = quad(
        _subordination_integrand,
        -np.inf,
        np.inf,
        args=(expo, t),
        epsabs=0.0,
        epsrel=1e-12,
        limit=400,
    )
    return val


@lru_cache(maxsize=1 << 18)
def _rho_scalar(sigma: float, t: float) -> float:
    if t == 0.0:
        return 1.0
    if t >= _UNDERFLOW_T:
        return 0.0
    scale = (0.5 * t) ** sigma / math.gamma(sigma)
    return scale * math.exp(-t) * _subordination_integral(sigma, t)


@lru_cache(maxsize=1 << 18)
def _rho_prime_scalar(sigma: float, t: float) -> float:
    if t == 0.0:
        if sigma > 0.5:
            return 0.0
        if sigma == 0.5:
            return -1.0
        return -math.inf
    if t >= _UNDERFLOW_T:
        return 0.0
    # rho'(t) = -t/(2 Gamma(s)) * I_{1-s}(t): same kernel, mirrored exponent
    scale = -((0.5 * t) ** sigma) / math.gamma(sigma)
    return scale * math.exp(-t) * _subordination_integral(1.0 - sigma, t)


def rho(sigma: float, t):
    """Extension profile rho(t); accepts a scalar or an array of t >= 0."""
    _check_open_sigma(sigma)
    if np.ndim(t) == 0:
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        return _rho_scalar(sigma, float(t))
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be nonnegative")
    return np.array([_rho_scalar(sigma, float(x)) for x in t_arr])


def rho_prime(sigma: float, t):
    """d rho / dt; negative on (0, inf)."""
    _check_open_sigma(sigma)
    if np.ndim(t) == 0:
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        return _rho_prime_scalar(sigma, float(t))
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be nonnegative")
    return np.array([_rho_prime_scalar(sigma, float(x)) for x in t_arr])


def z_of_y(sigma: float, y):
    """Change of variables z = (y / 2s)^(2s) flattening the y-weight."""
    _check_open_sigma(sigma)
    out = (np.asarray(y, dtype=float) / (2.0 * sigma)) ** (2.0 * sigma)
    return out if out.ndim else float(out)


def y_of_z(sigma: float, z):
    """Inverse map y = 2s * z^(1/2s)."""
    _check_open_sigma(sigma)
    out = 2.0 * sigma * np.asarray(z, dtype=float) ** (1.0 / (2.0 * sigma))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ExtensionField:
    """Mode-wise extension of a boundary field over a list of y samples.

    layers[j] is w(. , y_samples[j]); layer 0 (y = 0) reproduces the
    boundary datum.  mean_offset carries the Neumann mean that rides along
    unchanged in every layer.
    """

    spec: SpectralOperator
    sigma: float
    y_samples: np.ndarray
    layers: tuple
    mean_offset: float

    def __post_init__(self):
        self.y_samples.setflags(write=False)

    def layer(self, j: int) -> ScalarField:
        return self.layers[j]


def _with_zero(y_samples) -> np.ndarray:
    ys = np.unique(np.asarray(y_samples, dtype=float))
    if ys.size == 0 or ys[0] != 0.0:
        ys = np.concatenate([[0.0], ys])
    if np.any(ys < 0):
        raise ValueError("y samples must be nonnegative")
    return ys


def extend(
    spec: SpectralOperator, sigma: float, u: ScalarField, y_samples
) -> ExtensionField:
    """Series extension with coefficients rho(sqrt(lambda_k) y) <u, phi_k>.

    The Neumann kernel mode has lambda_0 = 0, so rho(0) = 1 carries the
    mean of u through every layer; for zero-mean data each layer keeps a
    zero mean.
    """
    _check_open_sigma(sigma)
    ys = _with_zero(y_samples)
    coeffs = spec.coefficients(u)
    sq = np.sqrt(spec.eigenvalues)
    layers = []
    for y in ys:
        if y == 0.0:
            layers.append(spec.synthesize(coeffs))
        else:
            layers.append(spec.synthesize(coeffs * rho(sigma, sq * y)))
    return ExtensionField(
        spec=spec,
        sigma=sigma,
        y_samples=ys,
        layers=tuple(layers),
        mean_offset=u.mean() if spec.bc == "neumann" else 0.0,
    )


def dtn_residual(spec: SpectralOperator, sigma: float, u: ScalarField, y_small: float):
    """Residual of the Dirichlet-to-Neumann limit at a positive height.

    Returns (r, ||r||_2) with
    r(y) = -(1/kappa) y^(1-2s) dw/dy(., y) - (fractional Laplacian of u),
    where dw/dy is the exact series derivative sqrt(lambda) rho'(sqrt(lambda) y).
    The norm tends to zero as y decreases.
    """
    _check_open_sigma(sigma)
    if y_small <= 0:
        raise ValueError(f"y_small must be positive, got {y_small}")
    coeffs = spec.coefficients(u)
    lam = spec.eigenvalues
    sq = np.sqrt(lam)
    dcoef = np.zeros_like(coeffs)
    pos = lam > 0
    dcoef[pos] = coeffs[pos] * sq[pos] * rho_prime(sigma, sq[pos] * y_small)
    wy = spec.synthesize(dcoef)
    frac = apply_fractional(spec, sigma, u)
    r = (-(y_small ** (1.0 - 2.0 * sigma)) / kappa(sigma)) * wy - frac
    return r, r.norm(2)


def extension_to_csv(ext: ExtensionField, path):
    """Rows (y, cell, value) for visualization."""
    rows = (
        (y, i, v)
        for y, layer in zip(ext.y_samples, ext.layers)
        for i, v in enumerate(layer.values)
    )
    write_csv(path, ("y", "cell", "value"), rows)
