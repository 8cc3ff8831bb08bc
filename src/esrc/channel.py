"""Complex Nakagami-m channel sampling and one-sided Kronecker correlation.

Each quadrature component of a channel coefficient follows the symmetric
power-of-Gaussian density proportional to |h|^(m-1) exp(-m h^2 / omega),
normalized by m^(m/2) / (omega^(m/2) Gamma(m/2)).  Squaring that variable
gives Gamma(shape m/2, scale omega/m), so sampling reduces to a gamma
draw, a square root, and a fair sign.  The gamma draw is boosted:
Gamma(a + 1) U^(1/a) ~ Gamma(a) for U uniform on (0, 1), and with
V uniform on (-1, 1) the pair |V|, sign(V) gives U and the sign
independently.  That is exact for every m > 0 and keeps numpy on its
fast shape >= 1 gamma path, including the heavy-fading m < 1 regime.

The two quadratures are drawn independently, so E[h_I^2] = E[h_Q^2] =
omega/2 and the complex coefficient has average power E[|h|^2] = omega.
Spatial correlation enters on exactly one link side as a correlation
matrix square root multiplying the i.i.d. matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from esrc.specfun import NumericalError


@dataclass(frozen=True)
class FadingParams:
    """Shape m (smaller means deeper fading) and average power omega."""

    m: float
    omega: float

    def __post_init__(self):
        for name in ("m", "omega"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} out of range (0, inf), got {value!r}")


@dataclass(frozen=True)
class SemiCorrelationMode:
    """Which link side carries the correlation matrix."""

    side: str

    def __post_init__(self):
        if self.side not in ("transmit", "receive"):
            raise ValueError(f"side must be 'transmit' or 'receive', got {self.side!r}")

    def correlated_count(self, n_r, n_t):
        return n_t if self.side == "transmit" else n_r


def sample_nakagami_component(params, rng, size):
    """Draw h = sign(V) sqrt(G |V|^(2/m) omega/m), G ~ Gamma(m/2 + 1), V ~ U(-1, 1).

    h^2 ~ Gamma(m/2, omega/m), so E[h] = 0 and E[h^2] = omega/2 for every
    valid (m, omega).  G comes from rng and V from rng.spawn(1)[0], a child
    stream that depends on rng's seed sequence and on how many children it
    has spawned, not on how many values rng has drawn.  Each is filled in C
    order, so the first k values of either do not depend on how many are
    drawn and a smaller draw is a prefix of a larger one.  rng is a
    Generator seeded from a SeedSequence, as trial_rng's are.  An omega/m
    that overflows or underflows float64 raises NumericalError.
    """
    uniform = rng.spawn(1)[0]
    scale = params.omega / params.m
    if not 0.0 < scale < math.inf:
        flow = "underflows" if scale == 0.0 else "overflows"
        raise NumericalError(
            f"omega/m {flow} float64 (omega={params.omega!r}, m={params.m!r})"
        )
    a = 0.5 * params.m
    g = rng.standard_gamma(a + 1.0, size=size)
    # -1 + 2u from the same doubles as uniform(-1, 1), bit for bit
    v = uniform.random(size)
    v *= 2.0
    v -= 1.0
    boost = np.abs(v)
    np.power(boost, 1.0 / a, out=boost)
    boost *= scale
    g *= boost
    np.sqrt(g, out=g)
    np.copysign(g, v, out=g)
    return g


def sample_channel_matrix(n_r, n_t, params, rng, trials):
    """A stack of trials n_r x n_t complex matrices with i.i.d. entries h_I + j h_Q.

    Each entry has E[|h|^2] = omega.  The stack has shape (trials, n_r, n_t)
    and is trial-major, so the first k trials of a stack are the stack of k
    trials.  Both quadratures come from one component draw of shape
    (trials, n_r, n_t, 2), which views as complex128 without a copy.  The
    positive integer dimensions are those a SystemConfig guarantees.
    """
    parts = sample_nakagami_component(params, rng, (trials, n_r, n_t, 2))
    return parts.view(np.complex128)[..., 0]


def compose_channel(h_w, sqrt_sigma, mode):
    """Apply the one-sided correlation root: S @ H_w (receive) or H_w @ S (transmit).

    h_w is one n_r x n_t matrix or a stack of them, and sqrt_sigma the real
    root of the side a SystemConfig matches to mode.
    """
    h_w = np.ascontiguousarray(h_w, dtype=np.complex128)
    if mode.side == "transmit":
        # one product over the rows of every trial
        return np.matmul(h_w.reshape(-1, h_w.shape[-1]), sqrt_sigma).reshape(h_w.shape)
    # a real root mixes rows only, so it multiplies the real and imaginary
    # parts as one float array, half the work of a complex product
    return np.matmul(sqrt_sigma, h_w.view(np.float64)).view(np.complex128)
