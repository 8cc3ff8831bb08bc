"""Closed-form ergodic sum-rate capacity and the capacity density.

With per-user SINR gamma_k exponentially distributed with scale beta_k
(the ZF fit with shape pinned at 1), the mean sum capacity in bits/s/Hz
is sum_k e^{1/beta_k} E_1(1/beta_k) / ln 2, evaluated here entirely in
the overflow-free scaled form.  The sum-capacity moment generating
function M(s) factors over users into Tricomi U(1, 2 + s/ln2, 1/beta_k)
terms, and numerically inverting the matching Laplace transform M(-s)
gives the capacity density itself.

The density's right tail decays double-exponentially, so its transform
is entire and grows super-exponentially into the left half-plane, so the
inversion samples it only on vertical lines in the right half-plane, as
de Hoog, Knight and Stokes' Fourier series (specfun.invert_laplace) does;
fixed Talbot contours dive left and diverge on this family.  One user
reads within 4.5e-9 of the peak of the exact law from beta 1e-2 to the
largest accepted, about 1.84e25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from esrc.specfun import LN2, NumericalError, _log_scaled_gamma, invert_laplace

GRID_MAX_BITS = 64.0
# below this the largest node gamma + 2 i M pi/T = gamma + i M pi/t of a point t
# alone in its window (M = 100), or its order 1 - s/ln2, leaves the float range
# (near 2.5e-306)
GRID_MIN_BITS = 1e-305
_TAIL_MASS = 1e-6


@dataclass(frozen=True)
class BetaVector:
    """Per-user fitted SINR scales, one positive entry per user."""

    betas: tuple

    def __init__(self, betas):
        arr = np.asarray(betas, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"betas must be a non-empty 1-d vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr) & (arr > 0.0)):
            raise ValueError("every beta must be positive and finite")
        betas = tuple(float(v) for v in arr)
        # every capacity term is taken at z = 1/beta, which overflows below 5.6e-309
        if math.isinf(1.0 / min(betas)):
            raise NumericalError(f"1/beta overflows float64 for beta={min(betas)!r}")
        object.__setattr__(self, "betas", betas)

    @property
    def n_users(self):
        return len(self.betas)


def esrc_closed_form(b):
    """Mean sum capacity sum_k e^{1/beta_k} E_1(1/beta_k) / ln 2, in bits/s/Hz.

    BetaVector keeps z = 1/beta in [5.6e-309, 1.8e308], where e^z E_1(z)
    lies between about 5.6e-309 and 709.2 nats, so every term is finite.
    """
    total = 0.0
    for log_term in _log_scaled_gamma(0.0, [1.0 / beta for beta in b.betas]):
        total += math.exp(log_term.real)
    return total / LN2


def _log_mgf(s, b):
    """log M(s) summed over users, elementwise on an array of s (complex allowed).

    User k's factor of M(s) = E[e^{s xi}] is U(1, 2 + s/ln2, 1/beta_k)/beta_k.
    """
    betas = np.array(b.betas)
    nu = 1.0 + np.asarray(s) / LN2  # U(1, 2 + s/ln2, z) = U(1, nu + 1, z)
    return np.sum(_log_scaled_gamma(nu, 1.0 / betas), axis=0) - np.sum(np.log(betas))


def _density_transform(b):
    """log L(s) of the capacity density's Laplace transform L(s) = M(-s), on complex s.

    The inversion nodes have large positive real parts, so L is evaluated
    deep in M's left half-plane, in log space throughout.
    """

    def transform(s):
        return _log_mgf(-s, b)

    return transform


def default_capacity_grid(b, points=512, grid_max=None):
    """`points` capacities evenly spaced in (0, top], ascending, top included.

    top is grid_max, in (0, GRID_MAX_BITS], when given.  Otherwise it starts
    from N*log2(1 + 10*max beta) and grows until the union-bound tail
    sum_k exp(-(2^{t/N} - 1)/beta_k) drops below 1e-6, capped at GRID_MAX_BITS.
    """
    if int(points) != points or points < 8:
        raise ValueError(f"points must be an integer >= 8, got {points!r}")
    if grid_max is not None:
        if not 0.0 < grid_max <= GRID_MAX_BITS:
            raise ValueError(f"grid_max out of range (0, {GRID_MAX_BITS:g}], got {grid_max!r}")
        return np.linspace(0.0, grid_max, int(points) + 1)[1:]
    n = b.n_users
    betas = np.array(b.betas)

    def tail(t):
        with np.errstate(over="ignore"):  # an exponent that overflows gives the exact 0
            return float(np.sum(np.exp(-np.expm1(LN2 * t / n) / betas)))

    upper = n * np.log2(1.0 + 10.0 * float(np.max(betas)))
    # below about 1e-17 the start rounds to 0, which no growth factor moves
    if not upper > 0.0:
        raise ValueError(
            f"betas up to {float(np.max(betas)):.3g} are too small to place a capacity grid"
        )
    while tail(upper) > _TAIL_MASS and upper < GRID_MAX_BITS:
        upper *= 1.25
    upper = min(upper, GRID_MAX_BITS)
    return np.linspace(0.0, upper, int(points) + 1)[1:]


def capacity_pdf(b, grid):
    """Density of the sum capacity on `grid`, by numerical Laplace inversion."""
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    if not (np.all(pts > 0.0) and np.all(np.diff(pts) > 0.0)):
        raise ValueError("grid must be strictly positive and ascending")
    if pts[0] < GRID_MIN_BITS:
        raise ValueError(
            f"grid starts at {pts[0]:.3g} bits, below the supported {GRID_MIN_BITS:g}"
        )
    if pts[-1] > GRID_MAX_BITS:
        raise ValueError(
            f"grid extends to {pts[-1]:.3g} bits, beyond the supported "
            f"{GRID_MAX_BITS:.0f}"
        )
    # P(C <= 64 bits) is at least the chance that the independent users all
    # stay below 64/N bits.  Where that is below _TAIL_MASS, two upper bounds
    # are taken: the largest-beta user's own P(C_k <= 64 bits), which the sum
    # exceeds, and the Chernoff bound e^{64 s} M(-s) on a few s > 0.  Below
    # _TAIL_MASS the inverted density is round-off.  A ratio that overflows
    # gives the exact limit, mass 1
    betas, log_floor = np.array(b.betas), math.log(_TAIL_MASS)
    with np.errstate(over="ignore", divide="ignore"):
        every = np.sum(np.log(-np.expm1(-np.expm1(LN2 * GRID_MAX_BITS / b.n_users) / betas)))
        largest = np.log(-np.expm1(-np.expm1(LN2 * GRID_MAX_BITS) / betas.max()))
    if every < log_floor:
        s = 2.0 ** np.arange(-6.0, 6.5, 0.5)
        chernoff = np.min(s * GRID_MAX_BITS + _log_mgf(-s, b).real)
        if min(largest, chernoff) < log_floor:
            raise ValueError(
                f"{b.n_users}-user betas up to {betas.max():.3g} leave less than "
                f"{_TAIL_MASS:g} of the capacity mass below the supported "
                f"{GRID_MAX_BITS:.0f} bits"
            )
    return invert_laplace(_density_transform(b), pts)
