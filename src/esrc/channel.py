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
    if not hasattr(rng.bit_generator, "jumped"):
        raise TypeError(
            "rng needs a jumpable bit generator such as Philox or PCG64, got "
            f"{type(rng.bit_generator).__name__}"
        )


def sample_nakagami_component(params, rng, size=None):
    """Draw h = sign(V) sqrt(G |V|^(2/m) omega/m), G ~ Gamma(m/2 + 1), V ~ U(-1, 1).

    h^2 ~ Gamma(m/2, omega/m), so E[h] = 0 and E[h^2] = omega/2 for every
    valid (m, omega).  G comes from rng and V from rng's stream jumped
    2^128 draws ahead, each filled in C order: the first k values of
    either do not depend on how many are drawn, so a smaller draw is a
    prefix of a larger one.  rng's bit generator must therefore have
    jumped(): Philox, PCG64 and PCG64DXSM jump in constant time, MT19937
    slowly, and SFC64 not at all (TypeError).
    """
    _require_generator(rng)
    uniform = np.random.Generator(rng.bit_generator.jumped())
    a = 0.5 * params.m
    g = rng.standard_gamma(a + 1.0, size=size)
    v = uniform.uniform(-1.0, 1.0, size=size)
    boost = np.abs(v)
    np.power(boost, 1.0 / a, out=boost)
    boost *= params.omega / params.m
    g *= boost
    np.sqrt(g, out=g)
    return np.copysign(g, v, out=g)


def sample_channel_matrix(n_r, n_t, params, rng, trials=None):
    """n_r x n_t complex matrix with i.i.d. entries h_I + j h_Q, E[|h|^2] = omega.

    With trials = c it returns a stack of shape (c, n_r, n_t), trial-major,
    so the first k trials of a stack are the stack of k trials.  Both
    quadratures come from one component draw of shape (..., n_r, n_t, 2),
    which views as complex128 without a copy.
    """
    if int(n_r) != n_r or n_r < 1 or int(n_t) != n_t or n_t < 1:
        raise ValueError(f"dimensions must be positive integers, got {n_r!r} x {n_t!r}")
    shape = (n_r, n_t, 2) if trials is None else (trials, n_r, n_t, 2)
    parts = sample_nakagami_component(params, rng, size=shape)
    return parts.view(np.complex128)[..., 0]


def compose_channel(h_w, sqrt_sigma, mode):
    """Apply the one-sided correlation root: S @ H_w (receive) or H_w @ S (transmit).

    h_w may be one n_r x n_t matrix or a stack of them.
    """
    h_w = np.asarray(h_w)
    sqrt_sigma = np.asarray(sqrt_sigma)
    n_r, n_t = h_w.shape[-2:]
    need = mode.correlated_count(n_r, n_t)
    if sqrt_sigma.shape != (need, need):
        raise ValueError(
            f"correlation root is {sqrt_sigma.shape[0]}x{sqrt_sigma.shape[1]} but the "
            f"{mode.side} side of a {n_r}x{n_t} channel needs {need}x{need}"
        )
    if mode.side == "transmit":
        # one product over the rows of every trial
        return (h_w.reshape(-1, n_t) @ sqrt_sigma).reshape(h_w.shape)
    if h_w.dtype == np.complex128 and np.isrealobj(sqrt_sigma):
        # a real root mixes rows only, so it multiplies the real and
        # imaginary parts as one float array, half the work of a complex product
        parts = np.ascontiguousarray(h_w).view(np.float64)
        return (sqrt_sigma @ parts).view(np.complex128)
    return sqrt_sigma @ h_w
