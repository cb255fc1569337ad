"""Harmonic extension machinery for the spectral fractional Laplacian.

The degenerate cylinder problem is never discretized directly: the
extension is assembled mode by mode as rho(sqrt(lambda_k) y) times the
boundary coefficients, where rho solves

    rho'' + ((1 - 2*sigma)/t) rho' = rho,   rho(0) = 1,
    -lim_{t->0} t^(1-2*sigma) rho'(t) = kappa(sigma).

Its solution is the Bessel closed form (Stinga-Torrea 2010,
Caffarelli-Silvestre 2007)

    rho(t)  =  2^(1-s)/Gamma(s) * t^s * K_s(t),
    rho'(t) = -2^(1-s)/Gamma(s) * t^s * K_{1-s}(t),

evaluated vectorized through the exponentially scaled kve, with the t = 0
limits as exact special cases.  The ODE is only used as a residual test.
extend gives the layers at the requested heights; dtn_residual measures
how far the weighted y-flux is from the fractional Laplacian at a height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kve

from .grid import ScalarField
from .spectral import SpectralOperator, apply_fractional

__all__ = [
    "kappa",
    "rho",
    "rho_prime",
    "ExtensionField",
    "extend",
    "dtn_residual",
]


def _check_open_sigma(sigma: float):
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")


def kappa(sigma: float) -> float:
    """2^(1-2s) Gamma(1-s) / Gamma(s); equals 1 at s = 1/2."""
    _check_open_sigma(sigma)
    return 2.0 ** (1.0 - 2.0 * sigma) * math.gamma(1.0 - sigma) / math.gamma(sigma)


def _bessel_profile(sigma: float, t, order: float, sign: float, at_zero: float):
    """sign * 2^(1-s)/Gamma(s) * t^s * K_order(t) for t > 0, at_zero at t = 0.

    K_order(t) is computed as kve(order, t) * exp(-t), kve being the
    exponentially scaled K.  exp(-t) is 0.0 from t = 746 on, so t^s and kve
    are evaluated at min(t, 746): kve itself turns NaN near t = 2^30, and
    the product is then an exact (signed) 0.0 for every large t.  t = 0
    never reaches kve, where t^s * K(t) would be 0 * inf; a NaN does, and
    stays NaN.
    """
    _check_open_sigma(sigma)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError(f"t must be nonnegative, got {t_arr.min()}")
    out = np.full(t_arr.shape, at_zero)
    pos = t_arr != 0.0
    tp = t_arr[pos]
    scale = sign * 2.0 ** (1.0 - sigma) / math.gamma(sigma)
    tc = np.minimum(tp, 746.0)
    out[pos] = scale * tc**sigma * kve(order, tc) * np.exp(-tp)
    return out if out.ndim else float(out)


def rho(sigma: float, t):
    """Extension profile rho(t) = 2^(1-s)/Gamma(s) t^s K_s(t); accepts a
    scalar or an array of t >= 0."""
    return _bessel_profile(sigma, t, sigma, 1.0, 1.0)


def rho_prime(sigma: float, t):
    """d rho / dt = -2^(1-s)/Gamma(s) t^s K_{1-s}(t); negative on (0, inf).

    Near 0, rho'(t) ~ -kappa(s) t^(2s-1), so rho'(0) is 0, -1 or -inf for
    s above, at or below 1/2.
    """
    at_zero = 0.0 if sigma > 0.5 else -1.0 if sigma == 0.5 else -math.inf
    return _bessel_profile(sigma, t, 1.0 - sigma, -1.0, at_zero)


@dataclass(frozen=True)
class ExtensionField:
    """Mode-wise extension of a boundary field over a list of y samples.

    layers[j] is w(. , y_samples[j]); layer 0 (y = 0) reproduces the
    boundary datum.
    """

    y_samples: np.ndarray
    layers: tuple

    def __post_init__(self):
        self.y_samples.setflags(write=False)


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
    return ExtensionField(y_samples=ys, layers=tuple(layers))


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
