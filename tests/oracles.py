"""Reference functions that only the tests call.

The quadrature of the per-user capacity, the Gompertz-Makeham density and
the Nakagami component density are independent of the code under test.
upper_incomplete_gamma and tricomi_u1 are real-argument views of the
special-function engine, so its properties can be checked against
scipy.special and quadrature over the domains they promise.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from esrc.specfun import LN2, NumericalError, _log_scaled_gamma


def per_user_capacity_quadrature(beta):
    """Independent oracle: int_0^inf log2(1 + beta*u) e^{-u} du by quadrature."""
    if not (beta > 0.0 and np.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    value, abserr = quad(
        lambda u: np.log1p(beta * u) * np.exp(-u),
        0.0,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    if abserr > 1e-9 * max(1.0, abs(value)):
        raise NumericalError(
            f"quadrature error estimate {abserr:.2e} too large for beta={beta!r}"
        )
    return value / LN2


def upper_incomplete_gamma(s, x):
    """Upper incomplete gamma Gamma(s, x) = int_x^inf t^{s-1} e^{-t} dt.

    Supports any real order s > -20 (negative and zero included) and
    x > 0.  Relative accuracy is at the 1e-12 level over x in
    [1e-6, 700] for moderate orders.
    """
    s = float(s)
    x = float(x)
    if not x > 0.0 or math.isinf(x):
        raise ValueError(f"upper_incomplete_gamma requires finite x > 0, got {x!r}")
    if not s > -20.0:
        raise ValueError(f"order s must exceed -20, got {s!r}")
    return math.exp(_log_scaled_gamma(s, x).real + s * math.log(x) - x)


def tricomi_u1(b, z):
    """Tricomi U(1, b, z) = e^z z^{1-b} Gamma(b - 1, z) for real b, z > 0."""
    b = float(b)
    z = float(z)
    if not z > 0.0 or math.isinf(z):
        raise ValueError(f"tricomi_u1 requires finite z > 0, got {z!r}")
    return math.exp(_log_scaled_gamma(b - 1.0, z).real)


def gm_pdf(x, lam, kappa):
    """Gompertz-Makeham style density lam*kappa*e^{lam x}*exp(kappa - kappa e^{lam x}).

    This is the law of log(1 + X)/lam' for exponential X; with
    lam = ln 2 and kappa the inverse SINR scale it is the single-user
    capacity density.  Accepts scalars or arrays for x >= 0.
    """
    if not (lam > 0.0 and kappa > 0.0):
        raise ValueError(f"gm_pdf requires lam > 0 and kappa > 0, got {lam!r}, {kappa!r}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("gm_pdf is supported on x >= 0")
    t = lam * arr
    # log density; exp(t) can overflow for absurd x, where the density is 0
    with np.errstate(over="ignore"):
        growth = np.exp(t)
    log_pdf = np.where(
        np.isfinite(growth),
        math.log(lam) + math.log(kappa) + t + kappa - kappa * growth,
        -np.inf,
    )
    out = np.exp(log_pdf)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def nakagami_component_pdf(x, params):
    """Density of one quadrature: |x|^(m-1) exp(-m x^2 / omega), normalized."""
    m, omega = params.m, params.omega
    x = np.asarray(x, dtype=float)
    log_norm = 0.5 * m * np.log(m / omega) - gammaln(0.5 * m)
    with np.errstate(divide="ignore"):
        log_pdf = log_norm + (m - 1.0) * np.log(np.abs(x)) - m * x * x / omega
    return np.exp(log_pdf)
