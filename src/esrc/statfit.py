"""Maximum-likelihood gamma fitting with chi-squared and Kolmogorov gates.

The gamma shape equation ln(alpha) - psi(alpha) = ln(mean) - mean(ln x)
is solved by Newton iteration from the standard closed-form initializer;
the scale follows as mean/alpha.  Both goodness-of-fit tests use the
plain (not Lilliefors-corrected) thresholds: with parameters estimated
from the same data the plain Kolmogorov threshold under-rejects
slightly, which is accepted and documented rather than corrected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtri, gammainc, polygamma, psi

N_BINS = 20
# significance level of both goodness-of-fit gates
GOF_LEVEL = 0.05
# samples the chi-squared gate needs (10 expected per bin), so every full gamma fit too
_MIN_FIT_SAMPLES = 200
_MAX_NEWTON = 200
_RESIDUAL_TOL = 1e-10


class FitConvergenceError(ArithmeticError):
    """Shape solver failed; carries the last residual when one exists."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class GammaFit:
    alpha: float
    beta: float
    chi2_pass: bool
    ks_pass: bool
    chi2_stat: float
    ks_stat: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if not (0.0 <= self.ks_stat <= 1.0):
            raise ValueError(f"ks_stat must lie in [0, 1], got {self.ks_stat!r}")


@dataclass(frozen=True)
class ChiSquareResult:
    stat: float
    dof: int
    passed: bool


@dataclass(frozen=True)
class KsResult:
    stat: float
    passed: bool


def _validate_samples(samples, min_count, who):
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{who} expects a 1-d sample array, got shape {x.shape}")
    if x.size < min_count:
        raise ValueError(f"{who} needs at least {min_count} samples, got {x.size}")
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise ValueError(f"{who} requires strictly positive finite samples")
    return x


def fit_exponential(samples):
    """ML scale under fixed shape 1: the sample mean."""
    x = _validate_samples(samples, 1, "fit_exponential")
    return float(np.mean(x))


def _solve_shape(s):
    """Newton iteration for ln(alpha) - psi(alpha) = s, s > 0."""
    alpha = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    residual = np.inf
    for _ in range(_MAX_NEWTON):
        residual = np.log(alpha) - psi(alpha) - s
        if abs(residual) < _RESIDUAL_TOL:
            return float(alpha)
        step = residual / (1.0 / alpha - polygamma(1, alpha))
        # the equation is monotone in alpha; never step out of the domain
        alpha = max(alpha - step, 0.1 * alpha)
    raise FitConvergenceError(
        f"shape solver did not converge in {_MAX_NEWTON} iterations "
        f"(residual {residual:.3e})",
        residual=float(residual),
    )


def fit_gamma_ml(samples):
    """Gamma ML fit of positive samples, with both GoF gates at GOF_LEVEL.

    The chi-squared gate needs at least 200 samples for its 20
    equiprobable bins, so the fit rejects fewer; degenerate
    (zero-variance) input has no ML solution and raises
    FitConvergenceError.
    """
    x = _validate_samples(samples, _MIN_FIT_SAMPLES, "fit_gamma_ml")
    mean = float(np.mean(x))
    s = np.log(mean) - float(np.mean(np.log(x)))
    # Jensen gives s >= 0 with equality only for constant samples; anything
    # at rounding scale means the shape estimate diverges
    if s < 1e-12:
        raise FitConvergenceError(
            f"degenerate sample (log-moment gap {s:.3e}); shape diverges"
        )
    alpha = _solve_shape(s)
    beta = mean / alpha

    def fitted_cdf(t):
        return gammainc(alpha, np.asarray(t, dtype=float) / beta)

    chi2 = chi_square_gof(x, fitted_cdf, fitted_param_count=2)
    ks = ks_gof(x, fitted_cdf)
    return GammaFit(
        alpha=alpha,
        beta=beta,
        chi2_pass=chi2.passed,
        ks_pass=ks.passed,
        chi2_stat=chi2.stat,
        ks_stat=ks.stat,
    )


def chi2_threshold(dof):
    """Chi-squared critical value at GOF_LEVEL for dof degrees of freedom."""
    # scipy.stats' chi2.ppf(1 - GOF_LEVEL) inverts the rounded upper tail
    # 1 - (1 - GOF_LEVEL); chdtri on that same tail matches it bit for bit,
    # where chdtri(dof, GOF_LEVEL) differs in the last place for most dofs
    return float(chdtri(dof, 1.0 - (1.0 - GOF_LEVEL)))


def chi_square_gof(samples, cdf, fitted_param_count):
    """Pearson test at GOF_LEVEL on N_BINS equiprobable bins under the fitted cdf."""
    x = _validate_samples(samples, _MIN_FIT_SAMPLES, "chi_square_gof")
    if int(fitted_param_count) != fitted_param_count or fitted_param_count < 0:
        raise ValueError(f"fitted_param_count must be a non-negative integer")
    dof = N_BINS - 1 - int(fitted_param_count)
    if dof < 1:
        raise ValueError(f"fitted_param_count {fitted_param_count} leaves no freedom")
    expected = x.size / N_BINS
    u = np.clip(np.asarray(cdf(x), dtype=float), 0.0, 1.0)
    observed, _ = np.histogram(u, bins=N_BINS, range=(0.0, 1.0))
    stat = float(np.sum((observed - expected) ** 2 / expected))
    return ChiSquareResult(stat=stat, dof=dof, passed=stat < chi2_threshold(dof))


def ks_threshold(n):
    """Asymptotic Kolmogorov critical value c(GOF_LEVEL)/sqrt(n)."""
    return float(np.sqrt(-0.5 * np.log(0.5 * GOF_LEVEL)) / np.sqrt(n))


def ks_gof(samples, cdf):
    """Kolmogorov sup-distance test at GOF_LEVEL against a fully specified cdf."""
    x = _validate_samples(samples, 50, "ks_gof")
    n = x.size
    f = np.asarray(cdf(np.sort(x)), dtype=float)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    stat = float(max(np.max(grid_hi - f), np.max(f - grid_lo)))
    return KsResult(stat=stat, passed=stat < ks_threshold(n))
