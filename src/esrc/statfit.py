"""Maximum-likelihood gamma fitting with chi-squared and Kolmogorov gates.

The gamma shape equation ln(alpha) - psi(alpha) = ln(mean) - mean(ln x)
is solved by Newton iteration from the standard closed-form initializer;
the scale follows as mean/alpha.  Both goodness-of-fit tests take the
hypothesised CDF at each sample, so the fit evaluates its CDF once for
both.  They take those values as given: _gamma_cdf keeps them in [0, 1],
and fit_gamma_ml holds their count at MIN_FIT_SAMPLES or more.  They use
the plain (not Lilliefors-corrected) thresholds: with parameters
estimated from the same data the plain Kolmogorov threshold
under-rejects slightly, which is accepted and documented rather than
corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from esrc.specfun import NumericalError, _gamma_cdf

N_BINS = 20
# significance level of both goodness-of-fit gates
GOF_LEVEL = 0.05
# scipy.stats.chi2.ppf(1 - GOF_LEVEL, 17), copied to the last digit: the
# chi-squared gate has N_BINS - 1 dof less the gamma fit's two parameters
_CHI2_THRESHOLD = 27.58711163827534
# samples the chi-squared gate needs (10 expected per bin), so every full gamma fit too
MIN_FIT_SAMPLES = 200
_MAX_NEWTON = 200
_RESIDUAL_TOL = 1e-10


class FitConvergenceError(ArithmeticError):
    """The gamma ML shape estimate diverges or its solver does not converge."""


@dataclass(frozen=True)
class GammaFit:
    alpha: float
    beta: float
    chi2_pass: bool
    ks_pass: bool
    chi2_stat: float
    ks_stat: float


def _validate_samples(samples, min_count, who):
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{who} expects a 1-d sample array, got shape {x.shape}")
    if x.size < min_count:
        raise ValueError(f"{who} needs at least {min_count} samples, got {x.size}")
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise ValueError(f"{who} requires strictly positive finite samples")
    return x


def _sample_mean(x):
    # an overflow here is reported as the NumericalError below
    with np.errstate(over="ignore"):
        mean = float(np.mean(x))
    if not math.isfinite(mean):
        raise NumericalError("sample mean overflows float64")
    return mean


def fit_exponential(samples):
    """ML scale under fixed shape 1: the sample mean."""
    return _sample_mean(_validate_samples(samples, 1, "fit_exponential"))


# B_2k / 2k and B_2k, k = 1..7: the asymptotic series of digamma and trigamma
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
# recurrence target: the seven-term series are below 1e-16 relative from here
_SERIES_MIN = 10.0


def _polygammas(x):
    """psi(x) and psi'(x), x > 0: one recurrence up to _SERIES_MIN, then the asymptotic series.

    psi is within about 2e-15 max(1, |psi(x)|), the absolute accuracy that
    the shape equation needs; near psi's root it is not relative.
    """
    shift = shift1 = 0.0
    while x < _SERIES_MIN:
        shift += 1.0 / x
        shift1 += 1.0 / (x * x)
        x += 1.0
    # psi takes 1/(x x) and psi' (1/x)^2: they round differently, and the
    # fitted shapes, pinned by the goldens, keep the bits of each
    inv = 1.0 / x
    inv2 = inv * inv
    sq = 1.0 / (x * x)
    tail = tail1 = 0.0
    for c, c1 in zip(reversed(_DIGAMMA_SERIES), reversed(_TRIGAMMA_SERIES)):
        tail = tail * sq + c
        tail1 = tail1 * inv2 + c1
    psi = math.log(x) - 0.5 / x - tail * sq - shift
    return psi, shift1 + inv + 0.5 * inv2 + tail1 * inv2 * inv


def _solve_shape(s):
    """Newton iteration for ln(alpha) - psi(alpha) = s, s > 0."""
    alpha = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    residual = math.inf
    for _ in range(_MAX_NEWTON):
        psi, psi1 = _polygammas(alpha)
        residual = math.log(alpha) - psi - s
        if abs(residual) < _RESIDUAL_TOL:
            return alpha
        step = residual / (1.0 / alpha - psi1)
        # the equation is monotone in alpha; never step out of the domain
        alpha = max(alpha - step, 0.1 * alpha)
    raise FitConvergenceError(
        f"shape solver did not converge in {_MAX_NEWTON} iterations "
        f"(residual {residual:.3e})"
    )


def fit_gamma_ml(samples):
    """Gamma ML fit of positive samples, with both GoF gates at GOF_LEVEL.

    It rejects fewer than MIN_FIT_SAMPLES samples; degenerate
    (zero-variance) input has no ML solution and raises
    FitConvergenceError.
    """
    x = _validate_samples(samples, MIN_FIT_SAMPLES, "fit_gamma_ml")
    mean = _sample_mean(x)
    s = math.log(mean) - float(np.mean(np.log(x)))
    # Jensen gives s >= 0 with equality only for constant samples; anything
    # at rounding scale means the shape estimate diverges
    if s < 1e-12:
        raise FitConvergenceError(
            f"degenerate sample (log-moment gap {s:.3e}); shape diverges"
        )
    alpha = _solve_shape(s)
    beta = mean / alpha
    u = _gamma_cdf(alpha, x / beta)
    chi2 = chi_square_gof(u)
    ks = ks_gof(u)
    return GammaFit(
        alpha=alpha,
        beta=beta,
        chi2_pass=chi2 < _CHI2_THRESHOLD,
        ks_pass=ks < ks_threshold(u.size),
        chi2_stat=chi2,
        ks_stat=ks,
    )


def chi_square_gof(cdf_values):
    """Pearson statistic on N_BINS equiprobable bins, as a float.

    cdf_values holds the two-parameter fitted CDF at each sample.  The
    gate passes a statistic below _CHI2_THRESHOLD.
    """
    expected = np.size(cdf_values) / N_BINS
    observed, _ = np.histogram(cdf_values, bins=N_BINS, range=(0.0, 1.0))
    return float(np.sum((observed - expected) ** 2 / expected))


def ks_threshold(n):
    """Asymptotic Kolmogorov critical value c(GOF_LEVEL)/sqrt(n)."""
    return float(np.sqrt(-0.5 * np.log(0.5 * GOF_LEVEL)) / np.sqrt(n))


def ks_gof(cdf_values):
    """Kolmogorov sup distance to a fully specified cdf, as a float.

    cdf_values holds that cdf at each sample.  The gate passes a distance
    below ks_threshold(n) for n samples.
    """
    f = np.sort(cdf_values)
    n = f.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - f), np.max(f - grid_lo)))
