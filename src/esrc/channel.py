"""Complex Nakagami-m channel sampling and one-sided Kronecker correlation.

Each quadrature component of a channel coefficient follows the symmetric
power-of-Gaussian density proportional to |h|^(m-1) exp(-m h^2 / omega),
normalized by m^(m/2) / (omega^(m/2) Gamma(m/2)).  Squaring that variable
gives Gamma(shape m/2, scale omega/m), so sampling reduces to a gamma
draw, a square root, and a fair sign: exact for every m > 0, including
the heavy-fading m < 1 regime where rejection-style samplers need care.

The two quadratures are drawn independently, so E[h_I^2] = E[h_Q^2] =
omega/2 and the complex coefficient has average power E[|h|^2] = omega.
Spatial correlation enters on exactly one link side as a correlation
matrix square root multiplying the i.i.d. matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FadingParams:
    """Shape m (smaller means deeper fading) and average power omega."""

    m: float
    omega: float

    def __post_init__(self):
        if not (self.m > 0.0 and np.isfinite(self.m)):
            raise ValueError(f"m must be positive and finite, got {self.m!r}")
        if not (self.omega > 0.0 and np.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")


@dataclass(frozen=True)
class SemiCorrelationMode:
    """Which link side carries the correlation matrix."""

    side: str

    def __post_init__(self):
        if self.side not in ("transmit", "receive"):
            raise ValueError(f"side must be 'transmit' or 'receive', got {self.side!r}")

    def correlated_count(self, n_r, n_t):
        return n_t if self.side == "transmit" else n_r


def _require_generator(rng):
    if not isinstance(rng, np.random.Generator):
        raise TypeError(
            f"rng must be a numpy.random.Generator, got {type(rng).__name__}"
        )


def sample_nakagami_component(params, rng, size=None):
    """Draw h = sign * sqrt(g) with g ~ Gamma(m/2, omega/m).

    Gives E[h] = 0 and E[h^2] = omega/2 for every valid (m, omega).
    """
    _require_generator(rng)
    g = rng.standard_gamma(0.5 * params.m, size=size) * (params.omega / params.m)
    sign = 2.0 * rng.integers(0, 2, size=size) - 1.0
    return sign * np.sqrt(g)


def sample_channel_matrix(n_r, n_t, params, rng):
    """n_r x n_t complex matrix with i.i.d. entries h_I + j h_Q, E[|h|^2] = omega.

    Both quadratures come from one batched component draw; plane 0 is the
    in-phase part, plane 1 the quadrature part.
    """
    if int(n_r) != n_r or n_r < 1 or int(n_t) != n_t or n_t < 1:
        raise ValueError(f"dimensions must be positive integers, got {n_r!r} x {n_t!r}")
    both = sample_nakagami_component(params, rng, size=(2, n_r, n_t))
    return both[0] + 1j * both[1]


def compose_channel(h_w, sqrt_sigma, mode):
    """Apply the one-sided correlation root: S @ H_w (receive) or H_w @ S (transmit)."""
    h_w = np.asarray(h_w)
    sqrt_sigma = np.asarray(sqrt_sigma)
    n_r, n_t = h_w.shape
    need = mode.correlated_count(n_r, n_t)
    if sqrt_sigma.shape != (need, need):
        raise ValueError(
            f"correlation root is {sqrt_sigma.shape[0]}x{sqrt_sigma.shape[1]} but the "
            f"{mode.side} side of a {n_r}x{n_t} channel needs {need}x{need}"
        )
    if mode.side == "receive":
        return sqrt_sigma @ h_w
    return h_w @ sqrt_sigma
