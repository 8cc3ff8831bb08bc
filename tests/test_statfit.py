"""Tests for gamma/exponential ML fitting and the goodness-of-fit gates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from esrc.specfun import NumericalError
from esrc.statfit import (
    GOF_LEVEL,
    N_BINS,
    FitConvergenceError,
    GammaFit,
    _CHI2_THRESHOLD,
    _digamma,
    _trigamma,
    chi_square_gof,
    fit_exponential,
    fit_gamma_ml,
    ks_gof,
    ks_threshold,
)


def expon_cdf(scale):
    return lambda t: 1.0 - np.exp(-np.asarray(t, dtype=float) / scale)


class TestFitExponential:
    def test_mean_of_two(self):
        assert fit_exponential([2.0, 4.0]) == pytest.approx(3.0, abs=1e-15)

    def test_single_sample(self):
        assert fit_exponential([0.7]) == pytest.approx(0.7, abs=1e-15)

    def test_large_sample_recovery(self):
        rng = np.random.default_rng(41)
        x = rng.exponential(scale=0.7, size=1_000_000)
        # stderr = mean/sqrt(n) = 7e-4
        assert fit_exponential(x) == pytest.approx(0.7, abs=0.003)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_exponential([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_exponential([1.0, 0.0])


@pytest.mark.parametrize("fit", [fit_exponential, fit_gamma_ml])
def test_overflowing_sample_mean_raises(fit):
    # every sample is finite, but their sum overflows float64
    x = np.random.default_rng(48).uniform(1e307, 1e308, size=300)
    with pytest.raises(NumericalError, match="sample mean overflows float64"):
        fit(x)


class TestFitGammaMl:
    def test_recovers_gamma_3_2(self):
        rng = np.random.default_rng(42)
        x = rng.gamma(shape=3.0, scale=2.0, size=1_000_000)
        fit = fit_gamma_ml(x)
        assert fit.alpha == pytest.approx(3.0, abs=0.02)
        assert fit.beta == pytest.approx(2.0, abs=0.02)
        assert fit.chi2_pass and fit.ks_pass

    def test_exponential_has_unit_shape(self):
        rng = np.random.default_rng(43)
        x = rng.exponential(scale=5.0, size=1_000_000)
        fit = fit_gamma_ml(x)
        assert fit.alpha == pytest.approx(1.0, abs=0.01)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(44)
        x = rng.gamma(shape=1.7, scale=0.9, size=10_000)
        f1 = fit_gamma_ml(x)
        f2 = fit_gamma_ml(1000.0 * x)
        assert f2.alpha == pytest.approx(f1.alpha, rel=1e-9)
        assert f2.beta == pytest.approx(1000.0 * f1.beta, rel=1e-9)

    def test_matches_exponential_mean(self):
        rng = np.random.default_rng(45)
        x = rng.gamma(shape=1.2, scale=2.0, size=5_000)
        fit = fit_gamma_ml(x)
        assert fit.alpha * fit.beta == pytest.approx(fit_exponential(x), rel=1e-12)

    def test_degenerate_sample_raises(self):
        with pytest.raises(FitConvergenceError, match="degenerate"):
            fit_gamma_ml(np.full(1000, 3.0))

    def test_rejects_small_or_invalid(self):
        with pytest.raises(ValueError):
            fit_gamma_ml(np.ones(50) * np.arange(1, 51))
        # the chi-squared gate's floor is the fit's floor
        with pytest.raises(ValueError, match="fit_gamma_ml needs at least 200 samples, got 150"):
            fit_gamma_ml(np.arange(1.0, 151.0))
        rng = np.random.default_rng(46)
        bad = rng.gamma(2.0, size=1000)
        bad[17] = -1.0
        with pytest.raises(ValueError):
            fit_gamma_ml(bad)

    def test_log_likelihood_is_maximal(self):
        # nudging the fitted parameters can only lower the likelihood
        rng = np.random.default_rng(47)
        x = rng.gamma(shape=2.2, scale=1.3, size=20_000)
        fit = fit_gamma_ml(x)

        def loglik(a, b):
            return np.sum(stats.gamma.logpdf(x, a, scale=b))

        best = loglik(fit.alpha, fit.beta)
        for da, db in ((1.01, 1.0), (0.99, 1.0), (1.0, 1.01), (1.0, 0.99)):
            assert loglik(fit.alpha * da, fit.beta * db) < best


class TestGammaFitValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            GammaFit(alpha=-1.0, beta=1.0,
                     chi2_pass=True, ks_pass=True, chi2_stat=1.0, ks_stat=0.1)
        with pytest.raises(ValueError):
            GammaFit(alpha=1.0, beta=1.0,
                     chi2_pass=True, ks_pass=True, chi2_stat=1.0, ks_stat=1.5)


class TestChiSquareGof:
    def test_calibration_under_null(self):
        # gamma data under its own two-parameter ML fit, the gate's only use:
        # ~95% pass rate at level 0.05
        rng = np.random.default_rng(48)
        passes = 0
        reps = 200
        for _ in range(reps):
            x = rng.gamma(shape=2.0, scale=1.0, size=10_000)
            passes += fit_gamma_ml(x).chi2_pass
        # binomial 3 sigma around 0.95: [181, 199] of 200
        assert 181 <= passes <= 199

    def test_gross_misfit_fails(self):
        rng = np.random.default_rng(49)
        x = rng.exponential(scale=1.0, size=100_000)
        hi = float(np.max(x))
        stat = chi_square_gof(x / hi)
        assert stat >= _CHI2_THRESHOLD
        assert stat > 1800.0

    def test_perfect_bins_give_zero_stat(self):
        medians = -np.log(1.0 - (np.arange(20) + 0.5) / 20.0)
        x = np.repeat(medians, 10)
        stat = chi_square_gof(expon_cdf(1.0)(x))
        assert stat == 0.0
        assert stat < _CHI2_THRESHOLD

    def test_rejects_small_sample(self):
        with pytest.raises(ValueError):
            chi_square_gof(expon_cdf(1.0)(np.linspace(0.1, 1.0, 199)))

    def test_threshold_equals_scipy_stats_exactly(self):
        # a threshold one ulp off could flip a gate whose statistic sits on
        # it; N_BINS - 1 less the gamma fit's two parameters leaves 17 dof
        assert _CHI2_THRESHOLD == stats.chi2.ppf(1.0 - GOF_LEVEL, N_BINS - 3)

    def test_rejects_values_outside_the_unit_interval(self):
        u = np.linspace(0.0, 1.0, 400)
        for bad in (-1e-12, 1.0 + 1e-12, np.nan):
            v = u.copy()
            v[7] = bad
            with pytest.raises(ValueError, match="cdf values in"):
                chi_square_gof(v)
            with pytest.raises(ValueError, match="cdf values in"):
                ks_gof(v)


class TestKsGof:
    def test_quantile_construction(self):
        n = 1000
        x = -np.log(1.0 - (np.arange(1, n + 1) - 0.5) / n)
        stat = ks_gof(expon_cdf(1.0)(x))
        assert stat == pytest.approx(0.5 / n, rel=1e-9)
        assert stat < ks_threshold(n)

    def test_threshold_constant(self):
        # c(0.05) = sqrt(-ln(0.025)/2) = 1.358...
        assert ks_threshold(1) == pytest.approx(1.358, abs=1e-3)
        assert ks_threshold(100_000) == pytest.approx(1.358 / np.sqrt(100_000), rel=1e-3)

    def test_calibration_under_null(self):
        rng = np.random.default_rng(50)
        passes = 0
        reps = 200
        for _ in range(reps):
            x = rng.exponential(scale=1.0, size=100_000)
            passes += ks_gof(expon_cdf(1.0)(x)) < ks_threshold(x.size)
        assert 181 <= passes <= 199

    def test_wrong_scale_fails(self):
        rng = np.random.default_rng(51)
        x = rng.exponential(scale=1.0, size=100_000)
        stat = ks_gof(expon_cdf(2.0)(x))
        assert stat >= ks_threshold(x.size)
        # sup distance between the two cdfs is 1/4 at t = 2 ln 2
        assert stat == pytest.approx(0.25, abs=0.02)

    def test_rejects_small_sample(self):
        with pytest.raises(ValueError):
            ks_gof(expon_cdf(1.0)(np.linspace(0.1, 1.0, 49)))


ORACLE_SETTINGS = settings(
    derandomize=True, max_examples=300, deadline=None, report_multiple_bugs=False
)


@ORACLE_SETTINGS
@given(x=st.floats(min_value=1e-3, max_value=1e6))
def test_digamma_matches_scipy(x):
    ref = special.psi(x)
    assert abs(_digamma(x) - ref) <= 1e-14 * abs(ref)


@ORACLE_SETTINGS
@given(x=st.floats(min_value=1e-3, max_value=1e6))
def test_trigamma_matches_scipy(x):
    ref = special.polygamma(1, x)
    assert abs(_trigamma(x) - ref) <= 1e-14 * abs(ref)
