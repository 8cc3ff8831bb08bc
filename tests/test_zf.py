"""Tests for zero-forcing SINR, sum rate, and the Monte Carlo estimator."""

import logging
import os
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    MonteCarloAbort,
    chunk_trials,
    monte_carlo_esrc,
    sum_rate,
    trial_rng,
    zf_sinr,
)
from oracles import zf_sinr_second_moment


def make_config(**overrides):
    base = dict(
        n_t=8,
        n_r=8,
        side="transmit",
        snr_db=10.0,
        rho=0.0,
        l_band=7,
        m=1.0,
        omega=1.0,
        trials=1000,
        seed=42,
    )
    base.update(overrides)
    return SystemConfig(**base)


def each_path(monkeypatch):
    """Run the kernel's chunks in the caller alone, then split with a forked child."""
    for workers in (1, 2):
        monkeypatch.setattr(esrc.zf, "_cpu_count", lambda w=workers: w)
        yield workers


def track_streams(monkeypatch):
    """Record the spawn key (chunk, trial, attempt) of the stream the kernel drew last.

    Fakes keyed on it act on the same trials in a forked range as in one
    process; fakes that count calls would not, since a child counts its own.
    """
    real = esrc.zf.trial_rng
    current = {}

    def keyed(seed, chunk, trial=0, attempt=0):
        current["key"] = (chunk, trial, attempt)
        return real(seed, chunk, trial, attempt)

    monkeypatch.setattr(esrc.zf, "trial_rng", keyed)
    return current


def mark_singular(monkeypatch, rows):
    """zf_sinr returns NaN in the rows rows(key) of each draw from stream key."""
    current = track_streams(monkeypatch)
    real = esrc.zf.zf_sinr

    def marked(h, snr):
        sinr = real(h, snr)
        sinr[rows(current["key"])] = np.nan
        return sinr

    monkeypatch.setattr(esrc.zf, "zf_sinr", marked)


class TestZfSinr:
    """zf_sinr on stacks of one channel; TestChunkedKernel covers longer stacks."""

    def test_scalar_channel(self):
        assert zf_sinr(np.array([[[1.0]]]), 5.0)[0] == pytest.approx([5.0])

    def test_unitary_channel_gives_flat_sinr(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        assert zf_sinr(q[None], 7.0) == pytest.approx(np.full((1, 5), 7.0), rel=1e-12)

    def test_diagonal_channel(self):
        h = np.diag([1.0, 2.0, 0.5]).astype(complex)
        assert zf_sinr(h[None], 4.0)[0] == pytest.approx([4.0, 16.0, 1.0], rel=1e-12)

    def test_tall_channel(self):
        # 3x2 with orthogonal columns of squared norm 2 and 3
        h = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, -1.0]])
        h[:, 1] -= h[:, 0] * (h[:, 0] @ h[:, 1]) / 2.0
        (sinr,) = zf_sinr(h[None], 1.0)
        norms = np.sum(np.abs(h) ** 2, axis=0)
        assert sinr == pytest.approx(norms, rel=1e-12)

    def test_snr_scale_linearity(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(1, 6, 4)) + 1j * rng.normal(size=(1, 6, 4))
        base = zf_sinr(h, 3.0)
        assert np.array_equal(zf_sinr(h, 6.0), 2.0 * base)

    def test_rank_deficient_row_is_nan(self):
        h = np.array([[[1.0, 1.0], [1.0, 1.0]]])
        assert np.all(np.isnan(zf_sinr(h, 1.0)))

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
        assert zf_sinr(h[None], snr)[0] == pytest.approx(oracle, rel=1e-9)

    def test_condition_number_threshold(self):
        # cond(H*H) = 1e14 trips the gate and leaves a NaN row, 1e10 does not
        assert np.all(np.isnan(zf_sinr(np.diag([1.0, 1e-7])[None], 1.0)))
        (sinr,) = zf_sinr(np.diag([1.0, 1e-5])[None], 1.0)
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
            l_band=0,
            trials=100_000,
            seed=7,
        )
        target, _ = quad(lambda x: np.log2(1.0 + 10.0 * x) * np.exp(-x), 0.0, np.inf)
        assert target == pytest.approx(2.9065148084148045, abs=1e-9)
        esrc_mc, std_err, samples, _ = monte_carlo_esrc(cfg)
        assert abs(esrc_mc - target) < 3.0 * std_err
        assert samples.shape == (1, 100_000)

    def test_deterministic_rerun(self):
        cfg = make_config(trials=2000)
        mc1, err1, s1, _ = monte_carlo_esrc(cfg)
        mc2, err2, s2, _ = monte_carlo_esrc(cfg)
        assert mc1 == mc2
        assert err1 == err2
        assert np.array_equal(s1, s2)

    def test_trial_prefix_stable(self):
        # chunks depend only on (seed, chunk) and their size on the
        # dimensions, so shorter runs are prefixes
        *_, s_long, _ = monte_carlo_esrc(make_config(trials=300))
        *_, s_short, _ = monte_carlo_esrc(make_config(trials=100))
        assert np.array_equal(s_long[:, :100], s_short)

    def test_correlation_lowers_capacity(self):
        flat = make_config(trials=20_000, seed=11)
        corr = make_config(rho=0.5, trials=20_000, seed=11)
        mc_flat, err_flat, *_ = monte_carlo_esrc(flat)
        mc_corr, err_corr, *_ = monte_carlo_esrc(corr)
        margin = 3.0 * np.hypot(err_flat, err_corr)
        assert mc_flat > mc_corr + margin

    def test_users_exchangeable_when_uncorrelated(self):
        cfg = make_config(trials=20_000, seed=13)
        *_, samples, _ = monte_carlo_esrc(cfg)
        means = samples.mean(axis=1)
        errs = samples.std(axis=1, ddof=1) / np.sqrt(samples.shape[1])
        for i in range(8):
            for j in range(i + 1, 8):
                bound = 4.0 * np.hypot(errs[i], errs[j])
                assert abs(means[i] - means[j]) < bound, (i, j)

    def test_all_samples_positive_finite(self):
        cfg = make_config(trials=2000, m=0.7)
        *_, samples, _ = monte_carlo_esrc(cfg)
        assert np.all(samples > 0.0)
        assert np.all(np.isfinite(samples))

    def test_abort_when_too_many_singular(self, monkeypatch):
        # the kernel redraws the trials whose zf_sinr rows come back NaN;
        # here every other trial of each chunk is singular, and so is every
        # odd attempt to redraw one
        def rows(key):
            _, _, attempt = key
            if attempt == 0:
                return slice(0, None, 2)
            return [0] if attempt % 2 else []

        mark_singular(monkeypatch, rows)
        cfg = make_config(trials=2000)
        for workers in each_path(monkeypatch):
            with pytest.raises(MonteCarloAbort, match="3 of 2000 trials"):
                monte_carlo_esrc(cfg)

    def test_abort_when_trial_stays_singular(self, monkeypatch):
        def always_singular(h, snr):
            return np.full((len(h), h.shape[-1]), np.nan)

        monkeypatch.setattr(esrc.zf, "zf_sinr", always_singular)
        cfg = make_config(trials=10)
        with pytest.raises(MonteCarloAbort, match="stayed singular"):
            monte_carlo_esrc(cfg)

    def test_one_singular_trial_is_redrawn_from_its_own_stream(self, monkeypatch):
        cfg = make_config(trials=1000, rho=0.3)
        step = chunk_trials(8, 8)
        *_, clean, _ = monte_carlo_esrc(cfg)
        real = esrc.zf.zf_sinr
        root = matrix_sqrt(build_banded_correlation(cfg.correlation))
        trial = 100
        marks = {}
        mark_singular(monkeypatch, lambda key: marks.get(key, []))
        # 1000 trials are chunks 0-3; forked, chunk 1 is in the caller's
        # range and chunk 3 in the child's
        for workers in each_path(monkeypatch):
            for chunk in (1, 3):
                marks.clear()
                marks[(chunk, 0, 0)] = [trial]
                *_, samples, redraws = monte_carlo_esrc(cfg)
                assert redraws == 1, (workers, chunk)
                column = chunk * step + trial
                others = np.arange(cfg.trials) != column
                assert np.array_equal(samples[:, others], clean[:, others])
                # the replacement is attempt 1 of (seed, chunk, trial)
                rng = trial_rng(cfg.seed, chunk, trial, 1)
                h_w = sample_channel_matrix(8, 8, cfg.fading, rng, trials=1)
                expected = real(compose_channel(h_w, root, cfg.mode), cfg.snr_linear)[0]
                assert np.array_equal(samples[:, column], expected), (workers, chunk)
                assert not np.array_equal(samples[:, column], clean[:, column])
                # the redraw is counted: a second one in the same run crosses
                # the 0.1% abort fraction of 1000 trials
                marks[(chunk, 0, 0)] = [trial, trial + 1]
                with pytest.raises(MonteCarloAbort, match="2 of 1000 trials"):
                    monte_carlo_esrc(cfg)

    def test_chunk_whose_cholesky_raises_runs_one_trial_at_a_time(self, monkeypatch):
        # 1000 trials allow one singular trial below the abort fraction
        cfg = make_config(trials=1000)
        *_, clean, _ = monte_carlo_esrc(cfg)
        current = track_streams(monkeypatch)
        real = esrc.zf.compose_channel
        bad = 17
        grams = []

        def zero_column(h_w, sqrt_sigma, mode):
            h = real(h_w, sqrt_sigma, mode)
            if current["key"] == (0, 0, 0):
                h[bad, :, 3] = 0.0
                grams.append(h.conj().swapaxes(-1, -2) @ h)
            return h

        monkeypatch.setattr(esrc.zf, "compose_channel", zero_column)
        root = matrix_sqrt(build_banded_correlation(cfg.correlation))
        h_w = sample_channel_matrix(8, 8, cfg.fading, trial_rng(cfg.seed, 0, bad, 1), trials=1)
        expected = esrc.zf.zf_sinr(real(h_w, root, cfg.mode), cfg.snr_linear)[0]
        others = np.arange(cfg.trials) != bad
        # chunk 0 is in the caller's range on both paths
        for workers in each_path(monkeypatch):
            grams.clear()
            *_, samples, redraws = monte_carlo_esrc(cfg)
            assert redraws == 1, workers
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(grams[0])
            assert np.array_equal(samples[:, others], clean[:, others]), workers
            # the zeroed trial is replaced by attempt 1 of (seed, 0, bad)
            assert np.array_equal(samples[:, bad], expected), workers


class TestForkedRanges:
    """The chunks split into one range per CPU, the first run by the caller and
    each other by a forked child, give the bytes and errors of one process."""

    def run_with(self, monkeypatch, workers, cfg):
        monkeypatch.setattr(esrc.zf, "_cpu_count", lambda: workers)
        return monte_carlo_esrc(cfg)

    # 1, 2, 3, 4 and 4 chunks of 256 trials at 8x8; 313 chunks of 8 at 64x32
    @pytest.mark.parametrize(
        "n_r, n_t, side, trials",
        [
            (8, 8, "transmit", 256),
            (8, 8, "transmit", 512),
            (8, 8, "transmit", 768),
            (8, 8, "transmit", 1000),
            (8, 8, "transmit", 1001),
            (64, 32, "receive", 2500),
        ],
    )
    def test_ranges_give_the_bytes_of_one_process(self, monkeypatch, n_r, n_t, side, trials):
        n = n_t if side == "transmit" else n_r
        cfg = make_config(
            n_t=n_t,
            n_r=n_r,
            side=side,
            rho=0.3,
            l_band=n - 1,
            m=0.7,
            trials=trials,
            seed=7,
        )
        mc, err, samples, redraws = self.run_with(monkeypatch, 1, cfg)
        for workers in (2, 3):
            split_mc, split_err, split, split_redraws = self.run_with(monkeypatch, workers, cfg)
            # the mean and standard error are those of the same per-trial
            # rates, and the redraw count is the same
            assert (split_mc, split_err, split_redraws) == (mc, err, redraws), workers
            assert np.array_equal(split, samples), workers

    def test_redraws_in_the_caller_and_a_child_add_up(self, monkeypatch):
        # 2000 trials are chunks 0-7 and allow two redraws; chunk 0 is in the
        # caller's range and chunk 7 in a child's for 2 and 3 workers
        cfg = make_config(trials=2000)
        mark_singular(monkeypatch, lambda key: {(0, 0, 0): [3], (7, 0, 0): [11]}.get(key, []))
        mc, err, samples, redraws = self.run_with(monkeypatch, 1, cfg)
        assert redraws == 2
        for workers in (2, 3):
            split_mc, split_err, split, split_redraws = self.run_with(monkeypatch, workers, cfg)
            assert split_redraws == 2, workers
            assert (split_mc, split_err) == (mc, err), workers
            assert np.array_equal(split, samples), workers

    def test_a_worker_killed_by_a_signal_is_rerun_in_the_caller(self, monkeypatch, caplog):
        cfg = make_config(trials=1000)
        *result, samples, _ = self.run_with(monkeypatch, 1, cfg)
        current = track_streams(monkeypatch)
        real = esrc.zf.zf_sinr
        caller = os.getpid()

        def dying(h, snr):
            # only the child dies: the caller reruns chunk 3, and a kill
            # there would end the test run itself
            if current["key"] == (3, 0, 0) and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(h, snr)

        monkeypatch.setattr(esrc.zf, "zf_sinr", dying)
        with caplog.at_level(logging.WARNING, logger="esrc.zf"):
            *rerun_result, rerun, _ = self.run_with(monkeypatch, 2, cfg)
        assert rerun_result == result
        assert np.array_equal(rerun, samples)
        assert f"killed by signal {signal.SIGKILL:d}" in caplog.text
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_range_whose_child_succeeds_is_not_rerun(self, monkeypatch):
        # a child records into its own copy, so this sees the caller's draws
        drawn = []
        real = esrc.zf.trial_rng

        def recording(seed, chunk, trial=0, attempt=0):
            drawn.append((chunk, trial, attempt))
            return real(seed, chunk, trial, attempt)

        monkeypatch.setattr(esrc.zf, "trial_rng", recording)
        self.run_with(monkeypatch, 2, make_config(trials=1000))
        assert drawn == [(0, 0, 0), (1, 0, 0)]

    def test_a_process_with_other_threads_does_not_fork(self):
        started, release = threading.Event(), threading.Event()

        def wait():
            started.set()
            release.wait(10.0)

        thread = threading.Thread(target=wait)
        thread.start()
        try:
            assert started.wait(10.0)
            assert esrc.zf._cpu_count() == 1
        finally:
            release.set()
            thread.join(10.0)
        assert not thread.is_alive()

    def outcome(self, monkeypatch, workers, cfg):
        monkeypatch.setattr(esrc.zf, "_cpu_count", lambda: workers)
        with pytest.raises((MonteCarloAbort, NumericalError)) as excinfo:
            monte_carlo_esrc(cfg)
        return type(excinfo.value), str(excinfo.value)

    # with 1000 trials, 2 workers run chunks 0-1 in the caller and 2-3 in
    # one child; 3 workers run chunk 0 in the caller, 1 in one child and
    # 2-3 in another, so in the last case only the sum of the two
    # children's counts crosses the limit
    @pytest.mark.parametrize(
        "marks, stuck, expected",
        [
            ({0: [5]}, (0, 5), "trial 5 stayed singular"),
            ({3: [5]}, (3, 5), "trial 773 stayed singular"),
            ({1: [9], 3: [5]}, (3, 5), "trial 773 stayed singular"),
            ({3: [5, 6]}, None, "2 of 1000 trials"),
            ({1: [9], 2: [5]}, None, "2 of 1000 trials"),
            ({1: [5], 2: [7]}, None, "2 of 1000 trials"),
        ],
    )
    def test_aborts_match_one_process(self, monkeypatch, marks, stuck, expected):
        # the marked trials of each chunk stream are singular, and so is
        # every redraw of the stuck (chunk, trial)
        def rows(key):
            chunk, trial, attempt = key
            if attempt:
                return [0] if (chunk, trial) == stuck else []
            return marks.get(chunk, [])

        mark_singular(monkeypatch, rows)
        cfg = make_config(trials=1000)
        serial = self.outcome(monkeypatch, 1, cfg)
        assert serial[0] is MonteCarloAbort and expected in serial[1]
        for workers in (2, 3):
            assert self.outcome(monkeypatch, workers, cfg) == serial, workers

    @pytest.mark.parametrize("chunk", [0, 3])
    def test_numerical_errors_match_one_process(self, monkeypatch, chunk):
        # the SINR of one chunk underflows; forked, chunk 3 fails in the child
        # and again where the caller reruns its range
        current = track_streams(monkeypatch)
        real = esrc.zf.zf_sinr

        def underflow(h, snr):
            return real(h, 5e-324 if current["key"] == (chunk, 0, 0) else snr)

        monkeypatch.setattr(esrc.zf, "zf_sinr", underflow)
        cfg = make_config(trials=1000)
        serial = self.outcome(monkeypatch, 1, cfg)
        assert serial == (NumericalError, "SINR underflows float64")
        assert self.outcome(monkeypatch, 2, cfg) == serial

    # 2500 trials at 64x32 are chunks 0-155 for the caller and 156-312 for
    # the child, which is still running when the caller's first chunk fails
    @pytest.mark.parametrize(
        "failure, chunk", [(None, None), (NumericalError, 156), (KeyboardInterrupt, 0)]
    )
    def test_no_child_outlives_the_call(self, monkeypatch, failure, chunk):
        current = track_streams(monkeypatch)
        real = esrc.zf.zf_sinr

        def failing(h, snr):
            if current["key"] == (chunk, 0, 0):
                raise failure("injected")
            return real(h, snr)

        monkeypatch.setattr(esrc.zf, "zf_sinr", failing)
        cfg = make_config(
            n_t=32,
            n_r=64,
            side="receive",
            rho=0.3,
            l_band=63,
            trials=2500,
        )
        if failure is None:
            self.run_with(monkeypatch, 2, cfg)
        else:
            with pytest.raises(failure, match="injected"):
                self.run_with(monkeypatch, 2, cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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
        gram = h.conj().swapaxes(-1, -2) @ h
        for i in range(count):
            # the trace-bound gate gives the exact per-trial check's rows
            exact = 2.5 / esrc.zf._checked_inverse_diagonal(gram[i : i + 1])
            assert stack[i] == pytest.approx(exact, rel=1e-9, nan_ok=True)
            assert zf_sinr(h[i : i + 1], 2.5)[0] == pytest.approx(exact, rel=1e-9, nan_ok=True)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        # orders 1 to 64 with up to four times the trials of a chunk at that order
        dims=st.integers(min_value=1, max_value=64).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, min(300, 2**16 // n**2)))
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(dims=(1, 300), seed=1)
    @example(dims=(7, 300), seed=7)
    @example(dims=(9, 300), seed=9)
    @example(dims=(33, 60), seed=33)
    @example(dims=(64, 16), seed=64)
    @example(dims=(64, 1), seed=65)
    def test_triangular_inverse_matches_the_general_inverse(self, dims, seed):
        n, count = dims
        rng = np.random.default_rng(seed)
        # twice as many rows as columns keeps the Gram matrices well conditioned
        shape = (count, 2 * n + 4, n)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        gram = h.conj().swapaxes(-1, -2) @ h
        oracle = np.diagonal(np.linalg.inv(gram), axis1=-2, axis2=-1).real
        assert esrc.zf._inverse_diagonal(gram) == pytest.approx(oracle, rel=1e-12)
        l_inv = esrc.zf._lower_inverse(np.linalg.cholesky(gram))
        assert not np.triu(l_inv, 1).any()

    @pytest.mark.parametrize("n_r, n_t", [(64, 32), (40, 33), (24, 17)])
    def test_many_users_match_direct_inverse(self, n_r, n_t):
        # the squared column norms of the inverted Cholesky factor at many users
        rng = np.random.default_rng(n_t)
        h = rng.standard_normal((3, n_r, n_t)) + 1j * rng.standard_normal((3, n_r, n_t))
        gram = h.conj().swapaxes(-1, -2) @ h
        oracle = 2.0 / np.diagonal(np.linalg.inv(gram), axis1=-2, axis2=-1).real
        assert zf_sinr(h, 2.0) == pytest.approx(oracle, rel=1e-9)
        assert zf_sinr(h[1:2], 2.0) == pytest.approx(oracle[1:2], rel=1e-9)

    def test_overflowing_gram_raises_numerical_error(self):
        h = np.full((2, 4, 4), 1e155 + 0j)
        with pytest.raises(NumericalError, match="overflow"):
            zf_sinr(h, 1.0)
        with pytest.raises(NumericalError, match="overflow"):
            zf_sinr(h[:1], 1.0)
        # a finite Gram matrix whose SINR overflows
        with pytest.raises(NumericalError, match="overflow"):
            zf_sinr(np.eye(4)[None] * 1e150, 1e10)

    def test_underflowing_sinr_raises_numerical_error(self):
        # diag(G^-1) is 4, and the smallest subnormal over 4 rounds to 0
        with pytest.raises(NumericalError, match="underflow"):
            zf_sinr(0.5 * np.eye(4)[None], 5e-324)

    def test_fading_power_near_the_float_limit_is_reported_as_overflow(self):
        for omega in (1e307, 1e308):
            cfg = make_config(trials=20, omega=omega)
            with pytest.raises(NumericalError, match="overflow"):
                monte_carlo_esrc(cfg)

    def test_stack_with_a_singular_trial_keeps_the_other_rows(self, monkeypatch):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((6, 5, 4)) + 1j * rng.standard_normal((6, 5, 4))
        real = esrc.zf._checked_inverse_diagonal
        checked = []

        def counted(gram):
            checked.append(gram.copy())
            return real(gram)

        monkeypatch.setattr(esrc.zf, "_checked_inverse_diagonal", counted)
        batched = zf_sinr(h, 3.0)
        assert not checked
        h[2, :, 1] = 0.0
        gram = h.conj().swapaxes(-1, -2) @ h
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        sinr = zf_sinr(h, 3.0)
        # the batched Cholesky raises, so every trial takes the exact check
        assert np.array_equal(np.concatenate(checked), gram)
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

    def test_chunks_fault_in_no_fresh_pages(self, tmp_path):
        # glibc maps each allocation above its mmap threshold afresh, so a
        # chunk array above it faults in page by page on every one of this
        # point's 313 chunks: some 100,000 minor faults, against a few hundred
        # on the heap.  The threshold rises to the largest mapped block freed
        # so far, so without monte_carlo_esrc's warm-up it depends on what the
        # process freed before, which differs with where its stderr goes.
        pytest.importorskip("resource")
        if not os.path.isdir("/proc/self"):
            pytest.skip("minor fault counts are read on Linux")
        code = textwrap.dedent(
            """
            import resource
            import esrc.zf
            from esrc.config import SystemConfig

            esrc.zf._cpu_count = lambda: 1
            cfg = SystemConfig(
                n_t=32,
                n_r=64,
                side="receive",
                snr_db=10.0,
                rho=0.3,
                l_band=63,
                m=0.7,
                omega=1.0,
                trials=2500,
                seed=7,
            )
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            esrc.zf.monte_carlo_esrc(cfg)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(esrc.zf.__file__).resolve().parents[1]))
        with open(tmp_path / "stderr.txt", "w") as file:
            for stderr in (subprocess.PIPE, file):
                done = subprocess.run(
                    [sys.executable, "-c", code],
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=stderr,
                    text=True,
                    check=True,
                )
                assert int(done.stdout) < 8000, stderr

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
                side=side,
                rho=0.4,
                l_band=n - 1,
                m=m,
                trials=trials,
                seed=99,
            )
            return monte_carlo_esrc(cfg)[2]

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
        cfg = make_config(
            n_t=n, n_r=n, rho=rho, l_band=min(band, n - 1), trials=self.TRIALS, seed=self.SEED
        )
        r = build_banded_correlation(cfg.correlation)
        assume(np.linalg.eigvalsh(r)[0] > 1e-3)
        esrc_mc, std_err, samples, _ = monte_carlo_esrc(cfg)
        betas = cfg.snr_linear / np.diagonal(np.linalg.inv(r))
        exact = esrc_closed_form(BetaVector(betas))
        assert abs(esrc_mc - exact) < 4.0 * std_err, (esrc_mc, std_err, exact)
        for k in range(n):
            p = stats.kstest(samples[k] / betas[k], "expon").pvalue
            assert p > 0.01 / n, (k, p)


class TestNakagamiChainOracle:
    """At rho = 0 and any m, the second moment of sampler, composition and ZF
    together against oracles.zf_sinr_second_moment, averaged over the
    channels drawn: the sample mean of SINR_0^2 less its conditional moment
    is zero.  A sampler that kept the power but ignored m would miss the
    (1 - 1/m) term."""

    CHUNKS = 12
    CHUNK = 5000
    SEED = 9

    @pytest.mark.parametrize("n_r, n_t, side", [(8, 8, "transmit"), (16, 8, "receive")])
    @pytest.mark.parametrize("m", [0.7, 2.5])
    def test_second_moment_matches_the_identity(self, n_r, n_t, side, m):
        params = FadingParams(m=m, omega=1.2)
        mode = SemiCorrelationMode(side)
        n = mode.correlated_count(n_r, n_t)
        root = matrix_sqrt(build_banded_correlation(CorrelationSpec(n=n, rho=0.0, l_band=n - 1)))
        snr = 10.0
        gaps = []
        for chunk in range(self.CHUNKS):
            rng = trial_rng(self.SEED, chunk)
            h = compose_channel(
                sample_channel_matrix(n_r, n_t, params, rng, trials=self.CHUNK), root, mode
            )
            sinr = zf_sinr(h, snr)[:, 0]
            gaps.append(sinr**2 - zf_sinr_second_moment(h, 0, snr, params))
        gaps = np.concatenate(gaps)
        z = gaps.mean() / (gaps.std(ddof=1) / np.sqrt(gaps.size))
        assert abs(z) <= 4.0, z
