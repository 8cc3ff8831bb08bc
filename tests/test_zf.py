"""Tests for zero-forcing SINR, sum rate, and the Monte Carlo estimator."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

import esrc.zf
from esrc.analytic import BetaVector, esrc_closed_form
from esrc.channel import (
    FadingParams,
    SemiCorrelationMode,
    compose_channel,
    sample_channel_matrix,
)
from esrc.config import SystemConfig
from esrc.correlation import CorrelationSpec, build_banded_correlation, matrix_sqrt
from esrc.specfun import NumericalError
from esrc.zf import (
    EsrcResult,
    MonteCarloAbort,
    SingularChannelError,
    SinrSampleSet,
    chunk_trials,
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
        # chunks depend only on (seed, chunk) and their size on the
        # dimensions, so shorter runs are prefixes
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
        # the kernel redraws the trials whose zf_sinr rows come back NaN;
        # here every other trial it sees, redraws included, is singular
        calls = {"n": 0}
        real = esrc.zf.zf_sinr

        def flaky(h, snr):
            sinr = real(h, snr)
            for row in sinr:
                calls["n"] += 1
                if calls["n"] % 2 == 1:
                    row[:] = np.nan
            return sinr

        monkeypatch.setattr(esrc.zf, "zf_sinr", flaky)
        cfg = make_config(trials=2000)
        with pytest.raises(MonteCarloAbort) as excinfo:
            monte_carlo_esrc(cfg)
        assert excinfo.value.singular_trials > 2
        assert excinfo.value.trials == 2000

    def test_abort_when_trial_stays_singular(self, monkeypatch):
        def always_singular(h, snr):
            return np.full((len(h), h.shape[-1]), np.nan)

        monkeypatch.setattr(esrc.zf, "zf_sinr", always_singular)
        cfg = make_config(trials=10)
        with pytest.raises(MonteCarloAbort, match="stayed singular"):
            monte_carlo_esrc(cfg)

    def test_one_singular_trial_is_redrawn_from_its_own_stream(self, monkeypatch):
        cfg = make_config(trials=1000, correlation=CorrelationSpec(n=8, rho=0.3, l_band=7))
        step = chunk_trials(8, 8)
        _, clean = monte_carlo_esrc(cfg)
        real = esrc.zf.zf_sinr
        chunk, trial = 1, 100
        seen = {"chunks": 0}

        def one_singular(h, snr):
            sinr = real(h, snr)
            if len(h) > 1:
                seen["chunks"] += 1
                if seen["chunks"] == chunk + 1:
                    sinr[trial] = np.nan
            return sinr

        monkeypatch.setattr(esrc.zf, "zf_sinr", one_singular)
        _, sset = monte_carlo_esrc(cfg)
        column = chunk * step + trial
        others = np.arange(cfg.trials) != column
        assert np.array_equal(sset.samples[:, others], clean.samples[:, others])
        # the replacement is attempt 1 of (seed, chunk, trial)
        root = matrix_sqrt(build_banded_correlation(cfg.correlation))
        rng = trial_rng(cfg.seed, chunk, trial, 1)
        h_w = sample_channel_matrix(8, 8, cfg.fading, rng, trials=1)
        expected = real(compose_channel(h_w, root, cfg.mode), cfg.snr_linear)[0]
        assert np.array_equal(sset.samples[:, column], expected)
        assert not np.array_equal(sset.samples[:, column], clean.samples[:, column])
        # the redraw is counted: a second one in the same run crosses the
        # 0.1% abort fraction of 1000 trials
        seen["chunks"] = 0
        trial = [100, 101]
        with pytest.raises(MonteCarloAbort, match="2 of 1000 trials"):
            monte_carlo_esrc(cfg)

    def test_chunk_whose_cholesky_raises_runs_one_trial_at_a_time(self, monkeypatch):
        # 1000 trials allow one singular trial below the abort fraction
        cfg = make_config(trials=1000)
        _, clean = monte_carlo_esrc(cfg)
        real = esrc.zf.compose_channel
        bad = 17
        grams = []

        def zero_column(h_w, sqrt_sigma, mode):
            h = real(h_w, sqrt_sigma, mode)
            if len(h) > 1 and not grams:
                h[bad, :, 3] = 0.0
                grams.append(h.conj().swapaxes(-1, -2) @ h)
            return h

        monkeypatch.setattr(esrc.zf, "compose_channel", zero_column)
        _, sset = monte_carlo_esrc(cfg)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(grams[0])
        others = np.arange(cfg.trials) != bad
        assert np.array_equal(sset.samples[:, others], clean.samples[:, others])
        # the zeroed trial is replaced by attempt 1 of (seed, 0, bad)
        root = matrix_sqrt(build_banded_correlation(cfg.correlation))
        h_w = sample_channel_matrix(8, 8, cfg.fading, trial_rng(cfg.seed, 0, bad, 1), trials=1)
        expected = esrc.zf.zf_sinr(real(h_w, root, cfg.mode), cfg.snr_linear)[0]
        assert np.array_equal(sset.samples[:, bad], expected)


class TestChunkedKernel:
    def test_chunk_size_depends_on_dimensions_only(self):
        assert esrc.zf.CHUNK_ENTRIES == 2**14
        assert chunk_trials(64, 32) == 8
        assert chunk_trials(8, 8) == 256
        assert chunk_trials(200, 100) == 1

    def test_redraw_streams_differ_from_the_chunk_stream(self):
        draws = [
            trial_rng(7, 2, trial, attempt).standard_normal(4)
            for trial, attempt in ((0, 0), (0, 1), (1, 1), (0, 2))
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j]), (i, j)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        n_t=st.integers(min_value=1, max_value=6),
        extra_rx=st.integers(min_value=0, max_value=3),
        count=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_stack_matches_one_channel_at_a_time(self, n_t, extra_rx, count, seed):
        rng = np.random.default_rng(seed)
        shape = (count, n_t + extra_rx, n_t)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stack = zf_sinr(h, 2.5)
        assert stack.shape == (count, n_t)
        for i in range(count):
            try:
                single = zf_sinr(h[i], 2.5)
            except SingularChannelError:
                assert np.all(np.isnan(stack[i]))
            else:
                assert stack[i] == pytest.approx(single, rel=1e-9)

    @pytest.mark.parametrize("n_r, n_t", [(64, 32), (40, 33), (24, 17)])
    def test_many_users_match_direct_inverse(self, n_r, n_t):
        # the squared column norms of the inverted Cholesky factor at many users
        rng = np.random.default_rng(n_t)
        h = rng.standard_normal((3, n_r, n_t)) + 1j * rng.standard_normal((3, n_r, n_t))
        gram = h.conj().swapaxes(-1, -2) @ h
        oracle = 2.0 / np.diagonal(np.linalg.inv(gram), axis1=-2, axis2=-1).real
        assert zf_sinr(h, 2.0) == pytest.approx(oracle, rel=1e-9)
        assert zf_sinr(h[1], 2.0) == pytest.approx(oracle[1], rel=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_gram_raises_numerical_error(self):
        h = np.full((2, 4, 4), 1e155 + 0j)
        with pytest.raises(NumericalError, match="overflow"):
            zf_sinr(h, 1.0)
        with pytest.raises(NumericalError, match="overflow"):
            zf_sinr(h[0], 1.0)
        # a finite Gram matrix whose SINR overflows
        with pytest.raises(NumericalError, match="overflow"):
            zf_sinr(np.eye(4)[None] * 1e150, 1e10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fading_power_near_the_float_limit_is_reported_as_overflow(self):
        for omega in (1e307, 1e308):
            cfg = make_config(trials=20, fading=FadingParams(m=1.0, omega=omega))
            with pytest.raises(NumericalError, match="overflow"):
                monte_carlo_esrc(cfg)

    def test_stack_with_a_singular_trial_keeps_the_other_rows(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((6, 5, 4)) + 1j * rng.standard_normal((6, 5, 4))
        batched = zf_sinr(h, 3.0)
        h[2, :, 1] = 0.0
        sinr = zf_sinr(h, 3.0)
        assert np.all(np.isnan(sinr[2]))
        keep = [0, 1, 3, 4, 5]
        assert np.array_equal(sinr[keep], batched[keep])

    def test_ill_conditioned_trial_in_a_stack_is_rejected(self):
        # Cholesky succeeds on cond 1e14, so the trace bound must catch it
        h = np.stack([np.diag([1.0, 1e-7]), np.diag([1.0, 1e-5]), np.eye(2)]).astype(complex)
        sinr = zf_sinr(h, 1.0)
        assert np.all(np.isnan(sinr[0]))
        assert sinr[1] == pytest.approx([1.0, 1e-10], rel=1e-9)
        assert np.array_equal(sinr[2], [1.0, 1.0])

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(
        side=st.sampled_from(["transmit", "receive"]),
        dims=st.sampled_from([(8, 8), (12, 5), (64, 32)]),
        m=st.floats(min_value=0.3, max_value=3.0),
    )
    def test_prefix_and_rerun_across_chunk_boundaries(self, side, dims, m):
        n_r, n_t = dims
        c = chunk_trials(n_r, n_t)
        n = n_t if side == "transmit" else n_r

        def run(trials):
            cfg = make_config(
                n_t=n_t,
                n_r=n_r,
                fading=FadingParams(m=m, omega=1.0),
                correlation=CorrelationSpec(n=n, rho=0.4, l_band=n - 1),
                mode=SemiCorrelationMode(side),
                trials=trials,
                seed=99,
            )
            return monte_carlo_esrc(cfg)[1].samples

        longest = run(2 * c + 3)
        for trials in (1, c - 1, c, c + 1):
            if trials >= 1:
                assert np.array_equal(run(trials), longest[:, :trials]), trials
        assert np.array_equal(run(2 * c + 3), longest)

    @pytest.mark.parametrize("m", [0.3, 0.7, 1.0, 2.5])
    def test_quadrature_powers_follow_the_gamma_law(self, m):
        omega = 1.3
        h = sample_channel_matrix(8, 8, FadingParams(m=m, omega=omega), trial_rng(11, 0), trials=300)
        law = stats.gamma(0.5 * m, scale=omega / m)
        for part in (h.real, h.imag):
            assert stats.kstest(part.ravel() ** 2, law.cdf).pvalue > 1e-3, m


class TestExactLawOracle:
    """At m = 1 with transmit correlation R and n_r = n_t, SINR_k is exactly
    beta_k X with X ~ Exp(1) and beta_k = snr / [R^-1]_kk (the Wishart
    quadratic-form law: Muirhead 1982, Thm 3.2.12; Gore, Heath & Paulraj,
    IEEE Commun. Lett. 6(11), 2002).  So esrc_closed_form on those betas is
    the exact ESRC, with no fitting in between."""

    TRIALS = 5000
    SEED = 3

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=8),
        rho=st.floats(min_value=0.0, max_value=0.5),
        band=st.integers(min_value=0, max_value=7),
    )
    def test_transmit_m1_matches_the_exact_law(self, n, rho, band):
        spec = CorrelationSpec(n=n, rho=rho, l_band=min(band, n - 1))
        r = build_banded_correlation(spec)
        assume(np.linalg.eigvalsh(r)[0] > 1e-3)
        cfg = make_config(n_t=n, n_r=n, correlation=spec, trials=self.TRIALS, seed=self.SEED)
        result, sset = monte_carlo_esrc(cfg)
        betas = cfg.snr_linear / np.diagonal(np.linalg.inv(r))
        exact = esrc_closed_form(BetaVector(betas))
        assert abs(result.esrc_mc - exact) < 4.0 * result.std_err, (result, exact)
        for k in range(n):
            p = stats.kstest(sset.samples[k] / betas[k], "expon").pvalue
            assert p > 0.01 / n, (k, p)
