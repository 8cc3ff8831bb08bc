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

import mmap
import os
import pickle
import signal
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

    def __reduce__(self):
        # pickled by message and counts, so that a forked range can send it
        return type(self), (str(self), self.singular_trials, self.trials)


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


def _fork_range(run, chunks):
    """Run run(chunks) in a forked child; returns its pid and the pipe its result comes on."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(run(chunks), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _range_result(pid, pipe):
    """The (redraws, error) a forked range sent, once its child has exited."""
    data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status:
        raise RuntimeError(
            f"Monte Carlo worker {pid} exited with status {os.waitstatus_to_exitcode(status)}"
        )
    return pickle.loads(data)


def monte_carlo_esrc(config):
    """Estimate the ergodic sum-rate capacity by independent channel draws.

    Returns (EsrcResult, SinrSampleSet).
    A trial the conditioning check rejects is redrawn from its own
    (seed, chunk, trial, attempt) stream, up to _MAX_RESAMPLES times; if
    more than SINGULAR_TRIAL_FRACTION of trials need a redraw, the run
    aborts rather than deliver a silently biased estimate.

    The chunks are split into one contiguous range per CPU of the process's
    affinity mask (at most one per chunk).  The caller runs the first range
    and a forked child each other one, all writing into one shared mapping;
    the caller then replays the ranges' redraw counts and errors in chunk
    order, so the arrays, the estimate and any error are those of one
    process running every chunk in turn.  No child outlives the call.
    """
    trials = config.trials
    sigma = build_banded_correlation(config.correlation)
    sqrt_sigma = matrix_sqrt(sigma, spec=config.correlation)
    snr = config.snr_linear

    def draw(rng, count):
        h_w = sample_channel_matrix(config.n_r, config.n_t, config.fading, rng, trials=count)
        return zf_sinr(compose_channel(h_w, sqrt_sigma, config.mode), snr)

    step = chunk_trials(config.n_r, config.n_t)
    chunk_count = -(-trials // step)
    workers = min(_cpu_count(), chunk_count)
    bounds = [chunk_count * w // workers for w in range(workers + 1)]
    ranges = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    limit = SINGULAR_TRIAL_FRACTION * trials
    size = config.n_users * trials
    shared = np.frombuffer(mmap.mmap(-1, 8 * (size + trials)), dtype=np.float64)
    samples = shared[:size].reshape(config.n_users, trials)
    rates = shared[size:]

    def run(chunks):
        """Run a range of chunks in order; returns (redraws, error).

        redraws counts the range's redrawn trials and error is the exception
        that stopped it, or None.  A range does not know the redraws of the
        ranges before it, so the replay below raises the abort with the
        run's count; a range stops once its own redraws cross the abort
        fraction, since the replay then aborts at or before that redraw.
        """
        redraws = 0
        try:
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
                        return redraws, None
                samples[:, start:stop] = sinr.T
                rates[start:stop] = sum_rate(sinr)
        except Exception as exc:
            return redraws, exc
        return redraws, None

    children = []
    try:
        for chunks in ranges[1:]:
            children.append(_fork_range(run, chunks))
        singular_trials = 0
        for k, chunks in enumerate(ranges):
            redraws, error = _range_result(*children[k - 1]) if k else run(chunks)
            if singular_trials + redraws > limit:
                # the serial order aborts at the first redraw past the limit
                singular_trials = int(limit) + 1
                raise MonteCarloAbort(
                    f"{singular_trials} of {trials} trials hit singular channels, "
                    f"above the {SINGULAR_TRIAL_FRACTION:.1%} abort threshold",
                    singular_trials=singular_trials,
                    trials=trials,
                )
            singular_trials += redraws
            if isinstance(error, MonteCarloAbort):
                raise MonteCarloAbort(str(error), singular_trials=singular_trials, trials=trials)
            if error is not None:
                raise error
    finally:
        for pid, pipe in children:
            pipe.close()
            try:
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # reaped with its result

    esrc_mc = float(np.mean(rates))
    if trials > 1:
        std_err = float(np.std(rates, ddof=1) / np.sqrt(trials))
    else:
        std_err = 0.0
    result = EsrcResult(esrc_mc=esrc_mc, std_err=std_err)
    return result, SinrSampleSet(samples=samples)
