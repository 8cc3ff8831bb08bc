"""Closed-form ergodic sum-rate capacity and the capacity density.

With per-user SINR gamma_k exponentially distributed with scale beta_k
(the ZF fit with shape pinned at 1), user k's capacity log2(1 + gamma_k)
has the law P(C_k <= c) = 1 - exp(-(2^c - 1)/beta_k).  Its mean, summed
over users, is sum_k e^{1/beta_k} E_1(1/beta_k) / ln 2 bits/s/Hz,
evaluated here entirely in the overflow-free scaled form.

The users are independent, so the sum capacity's density is the
convolution of their laws.  One user's table is its exact law.  For
several, each law is binned on a lattice of cells centred on the grid
(its CDF differences, so no mass is lost), all of them are convolved in
one FFT product of a 5-smooth length (2^a 3^b 5^c) at least 4 times the
lattice's cells, and Richardson extrapolation over three lattices takes
the binning error from second to sixth order in the cell.  A user whose
law is far narrower than the widest acts as a point mass at its mean.
The tables read within 6e-8 of the peak of the convolution oracle and of
quadrature on every beta set tried, from beta 1e-6 to 1e18 and up to 64
users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from esrc.specfun import LN2, NumericalError, _log_scaled_gamma

GRID_MAX_BITS = 64.0
_TAIL_MASS = 1e-6
# a lattice has at least _MIN_CELLS cells and _CELLS_PER_WIDTH per width of
# the narrowest binned law, up to _MAX_CELLS; users whose law is narrower
# than _POINT_WIDTH times the widest are point masses at their mean
_MIN_CELLS = 256
_CELLS_PER_WIDTH = 4.0
_MAX_CELLS = 2**16
_POINT_WIDTH = 3e-4
# cells of the lattice that bounds P(C <= GRID_MAX_BITS) from above
_MASS_CELLS = 1024


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
        total += math.exp(log_term)
    return total / LN2


def _fast_length(n):
    """Smallest 2^a 3^b 5^c at or above n: pocketfft has radix-2, -3 and -5 passes."""
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            # the least power-of-two multiple of the odd part 3^b 5^c that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _binned_sum(betas, edges):
    """Law of the users' summed cell indices, each capacity binned on the cells of `edges`.

    Cell j is [edges[j], edges[j + 1]), and entry j of the result is the
    chance that the users' cell indices sum to j.  Each user's masses are
    differences of its CDF below the median and of its survival function
    above it, so that neither cancels.  One rfft product convolves all
    users, with the masses tilted by e^{-ln(1e4) j/cells} so that the sum's
    mass past the cells wraps onto them at most 1e-16 of itself.  Its length
    is the smallest 5-smooth integer at least 4 times the cells.  A lattice
    has one cell past the grid top, often just past a power of two, so the
    next power of two would run each transform at nearly twice that length.
    """
    cells = edges.size - 1
    length = _fast_length(4 * cells)
    tilt = np.exp(-math.log(1e4) / cells * np.arange(cells))
    ladder = np.expm1(LN2 * edges)
    spectrum = 1.0
    values, counts = np.unique(betas, return_counts=True)
    for beta, count in zip(values.tolist(), counts.tolist()):
        with np.errstate(over="ignore"):  # a ratio that overflows gives the exact limit
            growth = ladder / beta
        cdf, sf = -np.expm1(-growth), np.exp(-growth)
        mass = np.where(cdf[:-1] < 0.5, np.diff(cdf), -np.diff(sf))
        spectrum = spectrum * np.fft.rfft(mass * tilt, length) ** count
    return np.fft.irfft(spectrum, length)[:cells] / tilt


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


def _cubic(values, x):
    """Cubic Lagrange interpolation of values[0], values[1], ... at the points x >= 0.

    Each point takes the four nodes from floor(x) - 1, moved inward at the ends.
    """
    j = np.clip(np.floor(x).astype(int) - 1, 0, values.size - 4)
    u = x - j
    return (
        (u - 1.0) * (u - 2.0) * (u - 3.0) / -6.0 * values[j]
        + u * (u - 2.0) * (u - 3.0) / 2.0 * values[j + 1]
        + u * (u - 1.0) * (u - 3.0) / -2.0 * values[j + 2]
        + u * (u - 1.0) * (u - 2.0) / 6.0 * values[j + 3]
    )


def capacity_pdf(b, grid):
    """Density of the sum capacity on `grid`, ascending in (0, GRID_MAX_BITS].

    One user's table is its exact law.  For several, the lattice step is
    h = top/(points r), so every point of a default grid is a cell centre;
    the integer r gives at least _MIN_CELLS cells and _CELLS_PER_WIDTH per
    width of the narrowest binned law, log2(1 + min(beta, 1)) bits.  The
    binned density at h, h/2 and h/4 has an error series in h^2 and h^4,
    which two Richardson steps remove: the table is the h/4 density,
    cubically interpolated, plus Richardson's correction to it, cubically
    interpolated on the h lattice, both pinned to 0 at t = 0.  A table is
    never negative.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    if not (np.all(pts > 0.0) and np.all(np.diff(pts) > 0.0)):
        raise ValueError("grid must be strictly positive and ascending")
    if pts[-1] > GRID_MAX_BITS:
        raise ValueError(
            f"grid extends to {pts[-1]:.3g} bits, beyond the supported "
            f"{GRID_MAX_BITS:.0f}"
        )
    # P(C <= 64 bits) is at least the chance that the independent users all
    # stay below 64/N bits.  Where that is below _TAIL_MASS, two upper bounds
    # are taken: the largest-beta user's own P(C_k <= 64 bits), which the sum
    # exceeds, and the same chance with every capacity rounded down to a
    # multiple of 64/_MASS_CELLS bits.  Below _TAIL_MASS the table would be
    # round-off.  A ratio that overflows gives the exact limit, mass 1
    betas, log_floor = np.array(b.betas), math.log(_TAIL_MASS)
    with np.errstate(over="ignore", divide="ignore"):
        every = np.sum(np.log(-np.expm1(-np.expm1(LN2 * GRID_MAX_BITS / b.n_users) / betas)))
        largest = np.log(-np.expm1(-np.expm1(LN2 * GRID_MAX_BITS) / betas.max()))
    if every < log_floor:
        edges = np.arange(_MASS_CELLS + 2) * (GRID_MAX_BITS / _MASS_CELLS)
        if largest < log_floor or np.sum(_binned_sum(betas, edges)) < _TAIL_MASS:
            raise ValueError(
                f"{b.n_users}-user betas up to {betas.max():.3g} leave less than "
                f"{_TAIL_MASS:g} of the capacity mass below the supported "
                f"{GRID_MAX_BITS:.0f} bits"
            )
    width = np.log1p(np.minimum(betas, 1.0)) / LN2
    point = width < _POINT_WIDTH * width.max()
    t = pts - (esrc_closed_form(BetaVector(betas[point])) if point.any() else 0.0)
    betas, width = betas[~point], width[~point]
    if betas.size == 1:
        with np.errstate(over="ignore"):
            law = np.exp(math.log(LN2 / betas[0]) + LN2 * t - np.expm1(LN2 * t) / betas[0])
        return np.where(t > 0.0, law, 0.0)
    with np.errstate(over="ignore"):
        need = np.clip(np.ceil(_CELLS_PER_WIDTH * pts[-1] / width.min()), _MIN_CELLS, _MAX_CELLS)
    cells = pts.size * -(-int(need) // pts.size)
    # a step far above the subnormals, so that no density over it overflows
    h = max(pts[-1] / cells, 2.0**-1000)
    tables = []
    for split in (1, 2, 4):
        edges = (np.arange(cells * split + 2) - 0.5) * (h / split)
        edges[0] = 0.0
        tables.append(split * _binned_sum(betas, edges))
    coarse, mid, fine = tables
    # Richardson's correction to the finest lattice, on the coarsest
    correction = (coarse - 20.0 * mid[::2] + 19.0 * fine[::4]) / 45.0
    # the density of two or more users is 0 at t = 0
    fine[0] = correction[0] = 0.0
    x = np.maximum(t, 0.0) / h
    out = (_cubic(fine, 4.0 * x) + _cubic(correction, x)) / h
    return np.maximum(out, 0.0)
