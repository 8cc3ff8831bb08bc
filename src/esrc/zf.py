"""Zero-forcing post-processing SINR and the Monte Carlo sum-rate estimator.

For a channel H with n_r >= n_t, the ZF receiver's post-processing SINR
for stream k is snr / [(H*H)^{-1}]_{kk}; the per-trial sum rate is
sum_k log2(1 + sinr_k).  The ergodic sum-rate capacity is the mean of
that quantity over independent channel draws.

Every trial owns a counter-based random stream keyed by (seed, trial
index), so results are a pure function of the configuration and seed,
independent of execution order, and individual trials can be reproduced
in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from esrc.channel import compose_channel, sample_channel_matrix
from esrc.correlation import build_banded_correlation, matrix_sqrt
from esrc.specfun import LN2

COND_LIMIT = 1e12
SINGULAR_TRIAL_FRACTION = 1e-3
_MAX_RESAMPLES = 64


class SingularChannelError(ArithmeticError):
    """A channel draw whose Gram matrix is numerically singular."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class MonteCarloAbort(RuntimeError):
    """Too many singular draws for the estimate to be trusted."""

    def __init__(self, message, singular_trials, trials):
        super().__init__(message)
        self.singular_trials = singular_trials
        self.trials = trials


@dataclass(frozen=True)
class SinrSampleSet:
    """Per-user SINR arrays, one row per user, one column per trial."""

    samples: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.samples) & (self.samples > 0.0)):
            raise ValueError("every SINR sample must be positive and finite")


@dataclass(frozen=True)
class EsrcResult:
    """Monte Carlo mean sum rate and its standard error."""

    esrc_mc: float
    std_err: float

    def __post_init__(self):
        if not (self.esrc_mc >= 0.0 and np.isfinite(self.esrc_mc)):
            raise ValueError(f"esrc_mc must be finite and >= 0, got {self.esrc_mc!r}")
        if not (self.std_err >= 0.0 and np.isfinite(self.std_err)):
            raise ValueError(f"std_err must be finite and >= 0, got {self.std_err!r}")


def zf_sinr(h, snr):
    """Per-stream SINR snr / [(H*H)^{-1}]_{kk} for k = 1..n_t."""
    h = np.asarray(h, dtype=np.complex128)
    n_r, n_t = h.shape
    if n_r < n_t:
        raise ValueError(f"zero-forcing needs n_r >= n_t, got {n_r}x{n_t}")
    if not snr > 0.0:
        raise ValueError(f"snr must be positive, got {snr!r}")
    gram = h.conj().T @ h
    # gram is Hermitian PSD, so its 2-norm condition number is the
    # eigenvalue ratio; eigvalsh is cheaper than a singular value pass
    eigs = np.linalg.eigvalsh(gram)
    lo, hi = eigs[0], eigs[-1]
    if not (lo > 0.0 and hi < lo * COND_LIMIT):
        cond = hi / lo if lo > 0.0 else np.inf
        raise SingularChannelError(
            f"Gram matrix condition number {cond:.3e} exceeds {COND_LIMIT:.0e}",
            cond=cond,
        )
    factor, info = lapack.zpotrf(gram, lower=0)
    if info == 0:
        inv, info = lapack.zpotri(factor, lower=0)
    if info != 0:
        raise SingularChannelError(
            f"Cholesky inversion failed (lapack info {info}) despite condition "
            f"number {hi / lo:.3e}",
            cond=hi / lo,
        )
    return snr / np.diagonal(inv).real


def sum_rate(sinr):
    """Sum over streams of log2(1 + sinr_k), in bits/s/Hz."""
    sinr = np.asarray(sinr, dtype=float)
    if not np.all(sinr > 0.0):
        raise ValueError("all SINR entries must be positive")
    return float(np.sum(np.log1p(sinr)) / LN2)


def trial_rng(seed, trial):
    """Independent per-trial stream from a counter-based generator key."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def monte_carlo_esrc(config):
    """Estimate the ergodic sum-rate capacity by independent channel draws.

    Returns (EsrcResult, SinrSampleSet).
    Singular draws are resampled from the same per-trial stream; if more
    than SINGULAR_TRIAL_FRACTION of trials hit one, the run aborts
    rather than deliver a silently biased estimate.
    """
    trials = config.trials
    seed = config.seed
    sigma = build_banded_correlation(config.correlation)
    sqrt_sigma = matrix_sqrt(sigma, spec=config.correlation)
    snr = config.snr_linear

    samples = np.empty((config.n_users, trials))
    rates = np.empty(trials)
    singular_trials = 0
    for t in range(trials):
        rng = trial_rng(seed, t)
        hit = False
        for _ in range(_MAX_RESAMPLES):
            h_w = sample_channel_matrix(config.n_r, config.n_t, config.fading, rng)
            h = compose_channel(h_w, sqrt_sigma, config.mode)
            try:
                sinr = zf_sinr(h, snr)
                break
            except SingularChannelError:
                hit = True
        else:
            raise MonteCarloAbort(
                f"trial {t} stayed singular after {_MAX_RESAMPLES} resamples",
                singular_trials=singular_trials,
                trials=trials,
            )
        if hit:
            singular_trials += 1
            if singular_trials > SINGULAR_TRIAL_FRACTION * trials:
                raise MonteCarloAbort(
                    f"{singular_trials} of {trials} trials hit singular channels, "
                    f"above the {SINGULAR_TRIAL_FRACTION:.1%} abort threshold",
                    singular_trials=singular_trials,
                    trials=trials,
                )
        samples[:, t] = sinr
        rates[t] = sum_rate(sinr)

    esrc_mc = float(np.mean(rates))
    if trials > 1:
        std_err = float(np.std(rates, ddof=1) / np.sqrt(trials))
    else:
        std_err = 0.0
    result = EsrcResult(esrc_mc=esrc_mc, std_err=std_err)
    return result, SinrSampleSet(samples=samples)
