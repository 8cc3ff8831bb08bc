"""Zero-forcing post-processing SINR and the Monte Carlo sum-rate estimator.

For a channel H with n_r >= n_t, the ZF receiver's post-processing SINR
for stream k is snr / [(H*H)^{-1}]_{kk}; the per-trial sum rate is
sum_k log2(1 + sinr_k).  The ergodic sum-rate capacity is the mean of
that quantity over independent channel draws.

Trials run in chunks of chunk_trials(n_r, n_t), a number that depends on
the dimensions only.  Chunk j draws, composes and inverts its trials in
one batch from an SFC64 stream seeded by (seed, j), and a trial the
conditioning check rejects is redrawn from its own (seed, j, trial,
attempt) stream.  Results are therefore a pure function of the
configuration and seed, shorter runs are trial prefixes of longer ones,
and every trial can be reproduced from its chunk.
"""

from __future__ import annotations

import logging
import mmap
import os
import signal

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

log = logging.getLogger(__name__)


class MonteCarloAbort(RuntimeError):
    """Too many singular draws for the estimate to be trusted."""

    def __init__(self, message, singular_trials, trials):
        super().__init__(message)
        self.singular_trials = singular_trials
        self.trials = trials


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
    """diag(G^{-1}) of a stack of one Gram matrix, or NaN if the exact eigvalsh check fails."""
    # gram is Hermitian PSD, so its 2-norm condition number is the
    # eigenvalue ratio; eigvalsh is cheaper than a singular value pass
    eigs = np.linalg.eigvalsh(gram)
    lo, hi = eigs.min(), eigs.max()
    if lo > 0.0 and hi < lo * COND_LIMIT:
        try:
            return _inverse_diagonal(gram)[0]
        except np.linalg.LinAlgError:
            pass
    return np.full(gram.shape[-1], np.nan)


def zf_sinr(h, snr, out=None):
    """Per-stream SINR snr / [(H*H)^{-1}]_{kk} of a stack of channels.

    h has shape (c, n_r, n_t), a redraw being a stack of one, and the result
    has shape (c, n_t).  A trial whose Gram matrix has a condition number of
    COND_LIMIT or more gets a NaN row, so that the caller can redraw it
    alone; a Gram matrix that overflows, or an SINR that overflows or
    underflows, raises NumericalError.  The stack is gated by the bound
    cond(G) <= tr(G) tr(G^{-1}), whose factors the batched Cholesky inverse
    already gives; only the trials it does not clear, or every trial of a
    stack whose batched Cholesky raises, take the exact per-trial eigvalsh
    check.

    out, if given, is two C-contiguous complex128 buffers that receive H*
    (h's shape) and the Gram matrix H*H (shape (c, n_t, n_t)) in place of
    allocating them.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 3:
        raise ValueError(f"expected a stack of channels (c, n_r, n_t), got shape {h.shape}")
    n_r, n_t = h.shape[-2:]
    if n_r < n_t:
        raise ValueError(f"zero-forcing needs n_r >= n_t, got {n_r}x{n_t}")
    if not snr > 0.0:
        raise ValueError(f"snr must be positive, got {snr!r}")
    conj, gram = (None, None) if out is None else out
    gram = np.matmul(np.conjugate(h, out=conj).swapaxes(-1, -2), h, out=gram)
    if not np.all(np.isfinite(gram)):
        raise NumericalError("Gram matrix H*H overflows float64")
    try:
        inv_diag = _inverse_diagonal(gram)
        bound = np.trace(gram, axis1=-2, axis2=-1).real * inv_diag.sum(axis=-1)
        exact = np.flatnonzero(~(bound < COND_LIMIT))
    except np.linalg.LinAlgError:
        inv_diag = np.empty(gram.shape[:-1])
        exact = range(len(gram))
    for i in exact:
        inv_diag[i] = _checked_inverse_diagonal(gram[i : i + 1])
    # an overflow here is reported as the NumericalError below
    with np.errstate(over="ignore"):
        sinr = snr / inv_diag
    if np.any(np.isinf(sinr)):
        raise NumericalError("SINR overflows float64")
    if np.any(sinr == 0.0):
        raise NumericalError("SINR underflows float64")
    return sinr


def sum_rate(sinr):
    """Sum over streams of log2(1 + sinr_k), in bits/s/Hz; one per row of a stack."""
    sinr = np.asarray(sinr, dtype=float)
    if not np.all(sinr > 0.0):
        raise ValueError("all SINR entries must be positive")
    return np.sum(np.log1p(sinr), axis=-1) / LN2


def trial_rng(seed, chunk, trial=0, attempt=0):
    """SFC64 stream of one chunk, or of one redraw of a trial in it.

    It is seeded from SeedSequence(seed, spawn_key=(chunk, trial, attempt)):
    the chunk's own draws use (chunk, 0, 0) and the redraws of its trial
    `trial` use attempts 1, 2, ...  The channel sampler's sign substream is
    this sequence's first child, spawn key (chunk, trial, attempt, 0), so
    every stream hashes a distinct key.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(chunk, trial, attempt))
    return np.random.Generator(np.random.SFC64(seq))


def _cpu_count():
    """CPUs to split a point's chunks over: those of the affinity mask.

    1 where the platform cannot fork or tell, and in a process that runs
    other threads: fork copies only the calling thread, and an unpinned
    BLAS, whose thread pool each worker would restart, would oversubscribe
    the cores.
    """
    try:
        if len(os.listdir("/proc/self/task")) == 1 and hasattr(os, "fork"):
            return len(os.sched_getaffinity(0))
    except OSError:
        pass
    return 1


def _fork_range(run, chunks, counts, k):
    """Run run(chunks, 0) in a forked child; returns its pid.

    The child stores the range's redraw count in counts[k] and exits 0.
    On any exception it exits 1 and reports nothing: the caller runs a
    range that did not succeed again itself.
    """
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            counts[k] = run(chunks, 0)
            status = 0
        finally:
            os._exit(status)
    return pid


def monte_carlo_esrc(config):
    """Estimate the ergodic sum-rate capacity by independent channel draws.

    Returns (esrc_mc, std_err, samples): the mean per-trial sum rate in
    bits/s/Hz, its standard error (0.0 for one trial), and the per-trial
    SINRs, one row per user and one column per trial.
    A trial the conditioning check rejects is redrawn from its own
    (seed, chunk, trial, attempt) stream, up to _MAX_RESAMPLES times; if
    more than SINGULAR_TRIAL_FRACTION of trials need a redraw, the run
    aborts rather than deliver a silently biased estimate.

    The chunks are split into one contiguous range per CPU of the process's
    affinity mask (at most one per chunk).  The caller runs the first range
    and a forked child each other one, all writing into one shared mapping.
    A child reports only its redraw count, and only on success.  The caller
    then takes the children in chunk order: it adds the count of one that
    succeeded while the total stays within the abort fraction, and runs any
    other range again itself, counting on from the ranges before it.  The
    arrays, the estimate and any error are therefore those of one process
    running every chunk in turn.  No child outlives the call.
    """
    trials = config.trials
    sigma = build_banded_correlation(config.correlation)
    sqrt_sigma = matrix_sqrt(sigma, spec=config.correlation)
    snr = config.snr_linear

    n_r, n_t = config.n_r, config.n_t
    step = chunk_trials(n_r, n_t)
    # One workspace for every chunk and redraw, allocated before the fork.
    # Arrays allocated and freed per chunk made glibc return the heap's top
    # pages to the kernel and fault them in again on the next chunk.
    work = np.empty((3, step, n_r, n_t, 2))

    def draw(rng, count):
        gamma, uniform, boost = work[:, :count]
        h_w = sample_channel_matrix(
            n_r, n_t, config.fading, rng, trials=count, out=(gamma, uniform, boost)
        )
        # each buffer is taken over once its last reader is done with it:
        # the channel goes where the uniforms were, H* where the boost was
        # and the Gram matrices where h_w was
        h = compose_channel(h_w, sqrt_sigma, config.mode, out=uniform.view(np.complex128)[..., 0])
        conj = boost.view(np.complex128)[..., 0]
        gram = gamma.reshape(-1).view(np.complex128)[: count * n_t * n_t]
        return zf_sinr(h, snr, out=(conj, gram.reshape(count, n_t, n_t)))

    chunk_count = -(-trials // step)
    workers = min(_cpu_count(), chunk_count)
    bounds = [chunk_count * w // workers for w in range(workers + 1)]
    ranges = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    limit = SINGULAR_TRIAL_FRACTION * trials
    size = config.n_users * trials
    shared = np.frombuffer(mmap.mmap(-1, 8 * (size + trials + workers)), dtype=np.float64)
    samples = shared[:size].reshape(config.n_users, trials)
    rates = shared[size : size + trials]
    counts = shared[size + trials :]

    def run(chunks, redraws):
        """Run a range of chunks in order after `redraws` redraws; returns the new count.

        Raises what one process running every chunk would: the abort at
        the first redraw past the abort fraction, or when a trial stays
        singular, each with the count so far.
        """
        for chunk in chunks:
            start = chunk * step
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
                        singular_trials=redraws,
                        trials=trials,
                    )
                sinr[i] = redrawn
                redraws += 1
                if redraws > limit:
                    raise MonteCarloAbort(
                        f"{redraws} of {trials} trials hit singular channels, "
                        f"above the {SINGULAR_TRIAL_FRACTION:.1%} abort threshold",
                        singular_trials=redraws,
                        trials=trials,
                    )
            samples[:, start:stop] = sinr.T
            rates[start:stop] = sum_rate(sinr)
        return redraws

    pids = []
    try:
        for k, chunks in enumerate(ranges[1:], 1):
            pids.append(_fork_range(run, chunks, counts, k))
        singular_trials = run(ranges[0], 0)
        for k, pid in enumerate(pids, 1):
            _, status = os.waitpid(pid, 0)
            # the count is read only once its child has exited
            if status == 0 and singular_trials + counts[k] <= limit:
                singular_trials += int(counts[k])
                continue
            if os.WIFSIGNALED(status):
                sig = os.WTERMSIG(status)
                log.warning(
                    "Monte Carlo worker %d was killed by signal %d (%s); running its chunks here",
                    pid,
                    sig,
                    signal.strsignal(sig),
                )
            singular_trials = run(ranges[k], singular_trials)
    finally:
        for pid in pids:
            try:
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # reaped above

    esrc_mc = float(np.mean(rates))
    if trials > 1:
        std_err = float(np.std(rates, ddof=1) / np.sqrt(trials))
    else:
        std_err = 0.0
    return esrc_mc, std_err, samples
