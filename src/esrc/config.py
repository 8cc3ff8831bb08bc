"""One operating point as flat values, with the layer objects derived from them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from esrc.channel import FadingParams, SemiCorrelationMode
from esrc.correlation import CorrelationSpec

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class SystemConfig:
    """One Monte Carlo operating point, by the names the document and CSV use.

    Each transmit antenna carries one single-antenna user's stream, so
    n_users = n_t always; zero-forcing needs n_r >= n_t.  mode, fading and
    correlation are derived, the correlation sized to side's antenna count,
    and built once here, so each range is checked by the class that owns it.
    """

    n_t: int
    n_r: int
    side: str
    snr_db: float
    rho: float
    l_band: int
    m: float
    omega: float
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
        for name in ("mode", "fading", "correlation"):
            getattr(self, name)
        # the linear SNR overflows above about 3082 dB and underflows to 0
        # below about -3236 dB
        if not 0.0 < self.snr_linear < math.inf:
            raise ValueError(
                "snr_db out of range: 10^(snr_db/10) must be a positive finite float, "
                f"got {self.snr_db!r}"
            )
        if int(self.seed) != self.seed or not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed out of range [0, 2^64-1], got {self.seed!r}")

    @cached_property
    def mode(self):
        return SemiCorrelationMode(self.side)

    @cached_property
    def fading(self):
        return FadingParams(m=self.m, omega=self.omega)

    @cached_property
    def correlation(self):
        n = self.mode.correlated_count(self.n_r, self.n_t)
        return CorrelationSpec(n=n, rho=self.rho, l_band=self.l_band)

    @property
    def n_users(self):
        return self.n_t

    @property
    def snr_linear(self):
        try:
            return 10.0 ** (self.snr_db / 10.0)
        except OverflowError:
            return math.inf
