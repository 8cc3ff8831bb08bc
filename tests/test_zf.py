"""Tests for zero-forcing SINR, sum rate, and the Monte Carlo estimator."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import esrc.zf
from esrc.channel import FadingParams, SemiCorrelationMode
from esrc.config import SystemConfig
from esrc.correlation import CorrelationSpec
from esrc.zf import (
    EsrcResult,
    MonteCarloAbort,
    SingularChannelError,
    SinrSampleSet,
    monte_carlo_esrc,
    sum_rate,
    trial_rng,
    zf_sinr,
)


def make_config(**overrides):
    base = dict(
        n_t=8,
        n_r=8,
        snr_db=10.0,
        fading=FadingParams(m=1.0, omega=1.0),
        correlation=CorrelationSpec(n=8, rho=0.0, l_band=7),
        mode=SemiCorrelationMode(side="transmit"),
        trials=1000,
        seed=42,
    )
    base.update(overrides)
    return SystemConfig(**base)


class TestZfSinr:
    def test_scalar_channel(self):
        assert zf_sinr(np.array([[1.0]]), 5.0) == pytest.approx([5.0])

    def test_unitary_channel_gives_flat_sinr(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        assert zf_sinr(q, 7.0) == pytest.approx(np.full(5, 7.0), rel=1e-12)

    def test_diagonal_channel(self):
        h = np.diag([1.0, 2.0, 0.5]).astype(complex)
        assert zf_sinr(h, 4.0) == pytest.approx([4.0, 16.0, 1.0], rel=1e-12)

    def test_tall_channel(self):
        # 3x2 with orthogonal columns of squared norm 2 and 3
        h = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, -1.0]])
        h[:, 1] -= h[:, 0] * (h[:, 0] @ h[:, 1]) / 2.0
        sinr = zf_sinr(h, 1.0)
        norms = np.sum(np.abs(h) ** 2, axis=0)
        assert sinr == pytest.approx(norms, rel=1e-12)

    def test_rejects_wide_channel(self):
        with pytest.raises(ValueError, match="n_r >= n_t"):
            zf_sinr(np.ones((2, 3)), 1.0)

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError, match="snr"):
            zf_sinr(np.eye(2), 0.0)

    def test_snr_scale_linearity(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        base = zf_sinr(h, 3.0)
        assert np.array_equal(zf_sinr(h, 6.0), 2.0 * base)

    def test_rank_deficient_raises(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularChannelError):
            zf_sinr(h, 1.0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        n_t=st.integers(min_value=1, max_value=6),
        extra_rx=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        snr=st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_matches_direct_inverse(self, n_t, extra_rx, seed, snr):
        rng = np.random.default_rng(seed)
        shape = (n_t + extra_rx, n_t)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        gram = h.conj().T @ h
        assume(np.linalg.cond(gram) <= 1e4)
        oracle = snr / np.diagonal(np.linalg.inv(gram)).real
        assert zf_sinr(h, snr) == pytest.approx(oracle, rel=1e-9)

    def test_condition_number_threshold(self):
        # cond(H*H) = 1e14 trips the gate, 1e10 does not
        with pytest.raises(SingularChannelError) as excinfo:
            zf_sinr(np.diag([1.0, 1e-7]), 1.0)
        assert excinfo.value.cond == pytest.approx(1e14, rel=1e-3)
        sinr = zf_sinr(np.diag([1.0, 1e-5]), 1.0)
        assert sinr == pytest.approx([1.0, 1e-10], rel=1e-9)


class TestSumRate:
    def test_single_stream(self):
        assert sum_rate([1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_two_streams(self):
        assert sum_rate([3.0, 3.0]) == pytest.approx(4.0, abs=1e-14)

    def test_mixed_streams(self):
        expected = np.log2(1.5) + 1.0 + 3.0
        assert sum_rate([0.5, 1.0, 7.0]) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(4.584962500721156, abs=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sum_rate([1.0, 0.0])


class TestSampleSetAndResult:
    def test_sample_set_positivity_check(self):
        bad = np.ones((2, 4))
        bad[1, 2] = 0.0
        with pytest.raises(ValueError, match="positive"):
            SinrSampleSet(samples=bad)

    def test_result_validation(self):
        with pytest.raises(ValueError):
            EsrcResult(esrc_mc=-1.0, std_err=0.1)


class TestTrialRng:
    def test_streams_differ_across_trials(self):
        a = trial_rng(7, 0).standard_normal(8)
        b = trial_rng(7, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_streams_reproducible(self):
        a = trial_rng(7, 123).standard_normal(8)
        b = trial_rng(7, 123).standard_normal(8)
        assert np.array_equal(a, b)


class TestMonteCarloEsrc:
    def test_scalar_rayleigh_matches_quadrature(self):
        # 1x1, m=1: capacity is int log2(1+10x) e^{-x} dx
        cfg = make_config(
            n_t=1,
            n_r=1,
            correlation=CorrelationSpec(n=1, rho=0.0, l_band=0),
            trials=100_000,
            seed=7,
        )
        target, _ = quad(lambda x: np.log2(1.0 + 10.0 * x) * np.exp(-x), 0.0, np.inf)
        assert target == pytest.approx(2.9065148084148045, abs=1e-9)
        result, samples = monte_carlo_esrc(cfg)
        assert abs(result.esrc_mc - target) < 3.0 * result.std_err
        assert samples.samples.shape == (1, 100_000)

    def test_deterministic_rerun(self):
        cfg = make_config(trials=2000)
        r1, s1 = monte_carlo_esrc(cfg)
        r2, s2 = monte_carlo_esrc(cfg)
        assert r1.esrc_mc == r2.esrc_mc
        assert r1.std_err == r2.std_err
        assert np.array_equal(s1.samples, s2.samples)

    def test_trial_prefix_stable(self):
        # trial t depends only on (seed, t), so shorter runs are prefixes
        _, s_long = monte_carlo_esrc(make_config(trials=300))
        _, s_short = monte_carlo_esrc(make_config(trials=100))
        assert np.array_equal(s_long.samples[:, :100], s_short.samples)

    def test_correlation_lowers_capacity(self):
        flat = make_config(trials=20_000, seed=11)
        corr = make_config(
            correlation=CorrelationSpec(n=8, rho=0.5, l_band=7), trials=20_000, seed=11
        )
        r_flat, _ = monte_carlo_esrc(flat)
        r_corr, _ = monte_carlo_esrc(corr)
        margin = 3.0 * np.hypot(r_flat.std_err, r_corr.std_err)
        assert r_flat.esrc_mc > r_corr.esrc_mc + margin

    def test_users_exchangeable_when_uncorrelated(self):
        cfg = make_config(trials=20_000, seed=13)
        _, sset = monte_carlo_esrc(cfg)
        means = sset.samples.mean(axis=1)
        errs = sset.samples.std(axis=1, ddof=1) / np.sqrt(sset.samples.shape[1])
        for i in range(8):
            for j in range(i + 1, 8):
                bound = 4.0 * np.hypot(errs[i], errs[j])
                assert abs(means[i] - means[j]) < bound, (i, j)

    def test_all_samples_positive_finite(self):
        cfg = make_config(trials=2000, fading=FadingParams(m=0.7, omega=1.0))
        _, sset = monte_carlo_esrc(cfg)
        assert np.all(sset.samples > 0.0)
        assert np.all(np.isfinite(sset.samples))

    def test_abort_when_too_many_singular(self, monkeypatch):
        calls = {"n": 0}
        real = esrc.zf.zf_sinr

        def flaky(h, snr):
            calls["n"] += 1
            if calls["n"] % 2 == 1:
                raise SingularChannelError("forced", cond=np.inf)
            return real(h, snr)

        monkeypatch.setattr(esrc.zf, "zf_sinr", flaky)
        cfg = make_config(trials=2000)
        with pytest.raises(MonteCarloAbort) as excinfo:
            monte_carlo_esrc(cfg)
        assert excinfo.value.singular_trials > 2
        assert excinfo.value.trials == 2000

    def test_abort_when_trial_stays_singular(self, monkeypatch):
        def always_singular(h, snr):
            raise SingularChannelError("forced", cond=np.inf)

        monkeypatch.setattr(esrc.zf, "zf_sinr", always_singular)
        cfg = make_config(trials=10)
        with pytest.raises(MonteCarloAbort, match="stayed singular"):
            monte_carlo_esrc(cfg)
