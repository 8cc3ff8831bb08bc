"""Tests for the complex Nakagami-m sampler and one-sided correlation composition."""

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from esrc.channel import (
    FadingParams,
    SemiCorrelationMode,
    compose_channel,
    sample_channel_matrix,
    sample_nakagami_component,
)
from esrc.correlation import CorrelationSpec, build_banded_correlation, matrix_sqrt
from esrc.zf import chunk_trials, trial_rng
from oracles import nakagami_component_pdf


def component_cdf(x, params):
    """CDF of one quadrature: h = sign * sqrt(g), g ~ Gamma(m/2, omega/m)."""
    x = np.asarray(x, dtype=float)
    g_cdf = stats.gamma.cdf(x * x, 0.5 * params.m, scale=params.omega / params.m)
    return 0.5 * (1.0 + np.sign(x) * g_cdf)


def reference_component(params, rng, size):
    """The component draw written with numpy's allocating calls and uniform(-1, 1)."""
    v = rng.spawn(1)[0].uniform(-1.0, 1.0, size=size)
    g = rng.standard_gamma(0.5 * params.m + 1.0, size=size)
    boost = np.abs(v)
    np.power(boost, 2.0 / params.m, out=boost)
    boost *= params.omega / params.m
    g *= boost
    np.sqrt(g, out=g)
    return np.copysign(g, v, out=g)


class TestFadingParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FadingParams(m=0.0, omega=1.0)
        with pytest.raises(ValueError):
            FadingParams(m=-0.5, omega=1.0)
        with pytest.raises(ValueError):
            FadingParams(m=1.0, omega=0.0)
        with pytest.raises(ValueError):
            FadingParams(m=np.inf, omega=1.0)


class TestSemiCorrelationMode:
    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            SemiCorrelationMode(side="both")

    def test_correlated_count(self):
        assert SemiCorrelationMode("transmit").correlated_count(n_r=8, n_t=4) == 4
        assert SemiCorrelationMode("receive").correlated_count(n_r=8, n_t=4) == 8


class TestSampleNakagamiComponent:
    def test_streams_built_alike_draw_alike(self):
        params = FadingParams(m=0.7, omega=1.2)

        def rng():
            seq = np.random.SeedSequence(5, spawn_key=(1, 2, 3))
            return np.random.Generator(np.random.SFC64(seq))

        a = sample_nakagami_component(params, rng(), size=1000)
        assert np.array_equal(a, sample_nakagami_component(params, rng(), size=1000))
        # magnitudes come from rng itself and signs from its first child
        a_half = 0.5 * params.m
        g = rng().standard_gamma(a_half + 1.0, size=1000)
        v = rng().spawn(1)[0].uniform(-1.0, 1.0, size=1000)
        scale = params.omega / params.m
        expected = np.copysign(np.sqrt(g * np.abs(v) ** (1.0 / a_half) * scale), v)
        np.testing.assert_allclose(a, expected, rtol=1e-13)
        assert np.array_equal(np.sign(a), np.sign(v))
        # the sign stream is not the magnitude stream
        magnitude_uniforms = rng().uniform(-1.0, 1.0, size=1000)
        assert 400 < np.sum(np.sign(magnitude_uniforms) == np.sign(v)) < 600

    def test_second_moment_is_half_omega(self):
        rng = np.random.default_rng(11)
        for m in (0.7, 1.0, 2.5):
            for omega in (0.8, 1.0, 1.2):
                h = sample_nakagami_component(
                    FadingParams(m=m, omega=omega), rng, size=1_000_000
                )
                assert np.mean(h * h) == pytest.approx(0.5 * omega, rel=0.01), (m, omega)

    def test_mean_is_zero(self):
        rng = np.random.default_rng(12)
        h = sample_nakagami_component(FadingParams(m=0.7, omega=1.0), rng, size=1_000_000)
        # stderr of the mean is sqrt(0.5/1e6) ~ 7e-4
        assert abs(np.mean(h)) < 4e-3

    def test_m_one_is_gaussian(self):
        # at m=1 one quadrature is zero-mean Gaussian with variance omega/2
        rng = np.random.default_rng(13)
        h = sample_nakagami_component(FadingParams(m=1.0, omega=2.0), rng, size=100_000)
        result = stats.kstest(h, "norm", args=(0.0, 1.0))
        assert result.pvalue > 0.01

    def test_histogram_matches_density_m_07(self):
        # chi-squared on 20 equiprobable bins against the exact density law
        params = FadingParams(m=0.7, omega=1.0)
        rng = np.random.default_rng(14)
        h = sample_nakagami_component(params, rng, size=100_000)
        u = component_cdf(h, params)
        observed, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
        expected = h.size / 20.0
        chi2 = np.sum((observed - expected) ** 2 / expected)
        assert chi2 < stats.chi2.ppf(0.99, 19)

    def test_density_normalization(self):
        params = FadingParams(m=0.7, omega=1.0)
        total, _ = quad(lambda x: nakagami_component_pdf(x, params), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-9)
        # symmetric density
        assert nakagami_component_pdf(0.3, params) == pytest.approx(
            nakagami_component_pdf(-0.3, params), rel=1e-12
        )

    def test_deterministic_given_stream(self):
        params = FadingParams(m=2.5, omega=1.2)
        a = sample_nakagami_component(params, np.random.default_rng(5), size=64)
        b = sample_nakagami_component(params, np.random.default_rng(5), size=64)
        assert np.array_equal(a, b)


class TestSampleChannelMatrix:
    def test_trials_has_no_default(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError, match="trials"):
            sample_channel_matrix(4, 4, FadingParams(m=1.0, omega=1.0), rng)

    def test_shape_and_dtype(self):
        rng = np.random.default_rng(1)
        h = sample_channel_matrix(3, 2, FadingParams(m=1.0, omega=1.0), rng, trials=5)
        assert h.shape == (5, 3, 2)
        assert np.iscomplexobj(h)
        assert np.all(np.isfinite(h))

    def test_rayleigh_envelope_power(self):
        # m=1: |h|^2 is exponential with mean omega
        rng = np.random.default_rng(21)
        h = sample_channel_matrix(1000, 1000, FadingParams(m=1.0, omega=1.0), rng, trials=1)
        p = np.abs(h.ravel()) ** 2
        assert np.mean(p) == pytest.approx(1.0, rel=0.01)
        result = stats.kstest(p[:100_000], "expon", args=(0.0, 1.0))
        assert result.pvalue > 0.01

    def test_mean_entry_power_eight_by_eight(self):
        rng = np.random.default_rng(22)
        h = sample_channel_matrix(8, 8, FadingParams(m=0.7, omega=1.2), rng, trials=10_000)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.2, rel=0.01)

    def test_quadrature_symmetry(self):
        rng = np.random.default_rng(23)
        h = sample_channel_matrix(400, 250, FadingParams(m=0.7, omega=1.0), rng, trials=1)
        result = stats.ks_2samp(h.real.ravel(), h.imag.ravel())
        assert result.pvalue > 0.01

    def test_deterministic(self):
        params = FadingParams(m=2.5, omega=0.8)
        a = sample_channel_matrix(8, 8, params, np.random.default_rng(9), trials=3)
        b = sample_channel_matrix(8, 8, params, np.random.default_rng(9), trials=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("m", [0.7, 2.5])
    def test_chunk_draws_match_the_reference_component(self, m):
        # at 64x32 a chunk is 8 trials, so 2500 trials end in a chunk of 4:
        # a full chunk, the short last chunk and a redraw
        params = FadingParams(m=m, omega=1.2)
        assert chunk_trials(64, 32) == 8 and 312 * 8 + 4 == 2500
        for key, count in [((0,), 8), ((312,), 4), ((312, 2, 1), 1)]:
            h = sample_channel_matrix(64, 32, params, trial_rng(7, *key), trials=count)
            reference = reference_component(params, trial_rng(7, *key), (count, 64, 32, 2))
            assert np.array_equal(h, reference.view(np.complex128)[..., 0]), key


class TestComposeChannel:
    def test_identity_root_is_noop(self):
        rng = np.random.default_rng(2)
        h = sample_channel_matrix(4, 3, FadingParams(m=1.0, omega=1.0), rng, trials=1)
        for side in ("transmit", "receive"):
            sz = 3 if side == "transmit" else 4
            out = compose_channel(h, np.eye(sz), SemiCorrelationMode(side))
            assert np.array_equal(out, h)

    def test_receive_side_left_multiplies(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        out = compose_channel(np.eye(2), s, SemiCorrelationMode("receive"))
        assert np.array_equal(out, s)

    def test_transmit_side_right_multiplies(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = compose_channel(h, s, SemiCorrelationMode("transmit"))
        assert np.array_equal(out, h @ s)

    def test_stack_composes_like_each_matrix(self):
        params = FadingParams(m=0.7, omega=1.0)
        stack = sample_channel_matrix(6, 4, params, np.random.default_rng(3), trials=5)
        for side, n in (("transmit", 4), ("receive", 6)):
            root = matrix_sqrt(build_banded_correlation(CorrelationSpec(n=n, rho=0.4, l_band=2)))
            out = compose_channel(stack, root, SemiCorrelationMode(side))
            assert out.shape == stack.shape
            for h, composed in zip(stack, out):
                expected = root.astype(complex) @ h if side == "receive" else h @ root
                np.testing.assert_allclose(composed, expected, rtol=1e-13, atol=1e-15)

    def test_receive_covariance_approaches_sigma(self):
        # E[H H^H] = n_t * omega * Sigma_R for receive-side correlation
        spec = CorrelationSpec(n=4, rho=0.5, l_band=3)
        sigma = build_banded_correlation(spec)
        root = matrix_sqrt(sigma)
        params = FadingParams(m=1.0, omega=1.0)
        mode = SemiCorrelationMode("receive")
        rng = np.random.default_rng(31)
        n_mat = 100_000
        h = compose_channel(sample_channel_matrix(4, 4, params, rng, trials=n_mat), root, mode)
        acc = np.sum(h @ h.conj().swapaxes(-1, -2), axis=0)
        estimate = acc / (n_mat * 4 * params.omega)
        err = np.linalg.norm(estimate - sigma, ord="fro")
        assert err <= 0.02 * np.linalg.norm(sigma, ord="fro")

    def test_power_conserved_under_correlation(self):
        # unit-diagonal correlation keeps E[trace(H H^H)] = n_r * n_t * omega
        spec = CorrelationSpec(n=4, rho=0.5, l_band=3)
        root = matrix_sqrt(build_banded_correlation(spec))
        params = FadingParams(m=0.7, omega=1.0)
        rng = np.random.default_rng(32)
        n_mat = 20_000
        for side in ("transmit", "receive"):
            mode = SemiCorrelationMode(side)
            h = compose_channel(sample_channel_matrix(4, 4, params, rng, trials=n_mat), root, mode)
            total = np.sum(np.abs(h) ** 2)
            assert total / n_mat == pytest.approx(16.0, rel=0.01), side
