"""System configuration tying antennas, fading, correlation, and the run seed."""

from __future__ import annotations

import math
from dataclasses import dataclass

from esrc.channel import FadingParams, SemiCorrelationMode
from esrc.correlation import CorrelationSpec

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class SystemConfig:
    """One Monte Carlo operating point.

    Each transmit antenna carries one single-antenna user's stream, so
    n_users = n_t always; zero-forcing needs n_r >= n_t.  The correlation
    matrix lives on mode.side and must match that side's antenna count.
    """

    n_t: int
    n_r: int
    snr_db: float
    fading: FadingParams
    correlation: CorrelationSpec
    mode: SemiCorrelationMode
    trials: int
    seed: int

    def __post_init__(self):
        for name in ("n_t", "n_r", "trials"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.n_r < self.n_t:
            raise ValueError(
                f"zero-forcing needs n_r >= n_t, got n_r={self.n_r!r} < n_t={self.n_t!r}"
            )
        expected = self.mode.correlated_count(self.n_r, self.n_t)
        if self.correlation.n != expected:
            raise ValueError(
                f"correlation.n={self.correlation.n!r} but the {self.mode.side} side "
                f"has {expected} antennas"
            )
        # the linear SNR overflows above about 3082 dB and underflows to 0
        # below about -3236 dB
        if not 0.0 < self.snr_linear < math.inf:
            raise ValueError(
                "snr_db out of range: 10^(snr_db/10) must be a positive finite float, "
                f"got {self.snr_db!r}"
            )
        if int(self.seed) != self.seed or not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed out of range [0, 2^64-1], got {self.seed!r}")

    @property
    def n_users(self):
        return self.n_t

    @property
    def snr_linear(self):
        try:
            return 10.0 ** (self.snr_db / 10.0)
        except OverflowError:
            return math.inf
