"""Zero-forcing post-processing SINR and the Monte Carlo sum-rate estimator.

For a channel H with n_r >= n_t, the ZF receiver's post-processing SINR
for stream k is snr / [(H*H)^{-1}]_{kk}; the per-trial sum rate is
sum_k log2(1 + sinr_k).  The ergodic sum-rate capacity is the mean of
that quantity over independent channel draws.

Trials run in chunks of chunk_trials(n_r, n_t), a number that depends on
the dimensions only.  Chunk j draws, composes and inverts its trials in
one batch from a counter-based stream keyed on (seed, j), and a trial the
conditioning check rejects is redrawn from its own (seed, j, trial,
attempt) stream.  Results are therefore a pure function of the
configuration and seed, shorter runs are trial prefixes of longer ones,
and every trial can be reproduced from its chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from esrc.channel import compose_channel, sample_channel_matrix
from esrc.correlation import build_banded_correlation, matrix_sqrt
from esrc.specfun import LN2, NumericalError

COND_LIMIT = 1e12
SINGULAR_TRIAL_FRACTION = 1e-3
_MAX_RESAMPLES = 64
# channel entries per chunk; a chunk holds max(1, CHUNK_ENTRIES // (n_r n_t))
# trials: 256 at 8x8, 8 at 64x32
CHUNK_ENTRIES = 2**14


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


def chunk_trials(n_r, n_t):
    """Trials per chunk, a function of the dimensions only."""
    return max(1, CHUNK_ENTRIES // (n_r * n_t))


def _inverse_diagonal(gram):
    """diag(G^{-1}) of a stack of Hermitian positive definite matrices.

    With G = L L*, this is the squared column norms of L^{-1}.  Raises
    numpy.linalg.LinAlgError when a Cholesky factorisation fails.
    """
    l_inv = np.linalg.inv(np.linalg.cholesky(gram))
    return np.sum(l_inv.real**2 + l_inv.imag**2, axis=-2)


def _checked_inverse_diagonal(gram):
    """diag(G^{-1}) of a stack of one Gram matrix, after the exact eigvalsh check."""
    # gram is Hermitian PSD, so its 2-norm condition number is the
    # eigenvalue ratio; eigvalsh is cheaper than a singular value pass
    eigs = np.linalg.eigvalsh(gram)
    lo, hi = eigs.min(), eigs.max()
    if not (lo > 0.0 and hi < lo * COND_LIMIT):
        cond = hi / lo if lo > 0.0 else np.inf
        raise SingularChannelError(
            f"Gram matrix condition number {cond:.3e} exceeds {COND_LIMIT:.0e}",
            cond=cond,
        )
    try:
        return _inverse_diagonal(gram)
    except np.linalg.LinAlgError:
        raise SingularChannelError(
            f"Cholesky inversion failed despite condition number {hi / lo:.3e}",
            cond=hi / lo,
        ) from None


def zf_sinr(h, snr):
    """Per-stream SINR snr / [(H*H)^{-1}]_{kk} of one channel or a stack of them.

    One n_r x n_t channel whose Gram matrix has a condition number of
    COND_LIMIT or more raises SingularChannelError, and a Gram matrix or
    SINR that overflows raises NumericalError.  For a stack of shape
    (c, n_r, n_t) the result is (c, n_t), and such a trial's row is NaN so
    that the caller can redraw it alone.  A stack is gated by the bound
    cond(G) <= tr(G) tr(G^{-1}), whose factors the batched Cholesky
    inverse already gives; only the trials it does not clear, or every
    trial of a stack whose batched Cholesky raises, take the exact
    per-trial eigvalsh check.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim not in (2, 3):
        raise ValueError(f"expected a channel or a stack of channels, got shape {h.shape}")
    n_r, n_t = h.shape[-2:]
    if n_r < n_t:
        raise ValueError(f"zero-forcing needs n_r >= n_t, got {n_r}x{n_t}")
    if not snr > 0.0:
        raise ValueError(f"snr must be positive, got {snr!r}")
    gram = h.conj().swapaxes(-1, -2) @ h
    if not np.all(np.isfinite(gram)):
        raise NumericalError("Gram matrix H*H overflows float64")
    if h.ndim == 2:
        inv_diag = _checked_inverse_diagonal(gram[None])[0]
    else:
        try:
            inv_diag = _inverse_diagonal(gram)
            bound = np.trace(gram, axis1=-2, axis2=-1).real * inv_diag.sum(axis=-1)
            exact = np.flatnonzero(~(bound < COND_LIMIT))
        except np.linalg.LinAlgError:
            inv_diag = np.empty(gram.shape[:-1])
            exact = range(len(gram))
        for i in exact:
            try:
                inv_diag[i] = _checked_inverse_diagonal(gram[i : i + 1])[0]
            except SingularChannelError:
                inv_diag[i] = np.nan
    sinr = snr / inv_diag
    if np.any(np.isinf(sinr)):
        raise NumericalError("SINR overflows float64")
    return sinr


def sum_rate(sinr):
    """Sum over streams of log2(1 + sinr_k), in bits/s/Hz; one per row of a stack."""
    sinr = np.asarray(sinr, dtype=float)
    if not np.all(sinr > 0.0):
        raise ValueError("all SINR entries must be positive")
    return np.sum(np.log1p(sinr), axis=-1) / LN2


def trial_rng(seed, chunk, trial=0, attempt=0):
    """Counter-based stream of one chunk, or of one redraw of a trial in it.

    The Philox key is (seed, chunk) and the counter starts at
    (0, trial, 0, attempt): the chunk's own draws use attempt 0 and the
    redraws of its trial `trial` use attempts 1, 2, ...  Draws advance the
    first counter word; the channel sampler's uniform substream, 2^128
    draws ahead, has a one in the third, so no two streams overlap.
    """
    key = np.array([seed, chunk], dtype=np.uint64)
    counter = np.array([0, trial, 0, attempt], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def monte_carlo_esrc(config):
    """Estimate the ergodic sum-rate capacity by independent channel draws.

    Returns (EsrcResult, SinrSampleSet).
    A trial the conditioning check rejects is redrawn from its own
    (seed, chunk, trial, attempt) stream, up to _MAX_RESAMPLES times; if
    more than SINGULAR_TRIAL_FRACTION of trials need a redraw, the run
    aborts rather than deliver a silently biased estimate.
    """
    trials = config.trials
    sigma = build_banded_correlation(config.correlation)
    sqrt_sigma = matrix_sqrt(sigma, spec=config.correlation)
    snr = config.snr_linear

    def draw(rng, count):
        h_w = sample_channel_matrix(config.n_r, config.n_t, config.fading, rng, trials=count)
        return zf_sinr(compose_channel(h_w, sqrt_sigma, config.mode), snr)

    step = chunk_trials(config.n_r, config.n_t)
    samples = np.empty((config.n_users, trials))
    rates = np.empty(trials)
    singular_trials = 0
    for chunk, start in enumerate(range(0, trials, step)):
        stop = min(start + step, trials)
        sinr = draw(trial_rng(config.seed, chunk), stop - start)
        for i in np.flatnonzero(np.isnan(sinr).any(axis=1)):
            for attempt in range(1, _MAX_RESAMPLES + 1):
                (redrawn,) = draw(trial_rng(config.seed, chunk, i, attempt), 1)
                if not np.isnan(redrawn).any():
                    break
            else:
                raise MonteCarloAbort(
                    f"trial {start + i} stayed singular after {_MAX_RESAMPLES} resamples",
                    singular_trials=singular_trials,
                    trials=trials,
                )
            sinr[i] = redrawn
            singular_trials += 1
            if singular_trials > SINGULAR_TRIAL_FRACTION * trials:
                raise MonteCarloAbort(
                    f"{singular_trials} of {trials} trials hit singular channels, "
                    f"above the {SINGULAR_TRIAL_FRACTION:.1%} abort threshold",
                    singular_trials=singular_trials,
                    trials=trials,
                )
        samples[:, start:stop] = sinr.T
        rates[start:stop] = sum_rate(sinr)

    esrc_mc = float(np.mean(rates))
    if trials > 1:
        std_err = float(np.std(rates, ddof=1) / np.sqrt(trials))
    else:
        std_err = 0.0
    result = EsrcResult(esrc_mc=esrc_mc, std_err=std_err)
    return result, SinrSampleSet(samples=samples)
