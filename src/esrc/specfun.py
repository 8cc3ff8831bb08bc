"""Special functions and numerical Laplace inversion.

Both analytic results of the capacity analysis are one special function:
the scaled incomplete gamma

    U(1, nu + 1, z) = e^z z^{-nu} Gamma(nu, z),

a Tricomi confluent hypergeometric function.  The closed-form capacity
needs e^x E_1(x) = U(1, 1, x) and the capacity MGF needs U(1, b, z) at
complex b.  A single engine, _log_scaled_gamma, returns its logarithm for
complex order nu and real z > 0 and picks one of three kernels:

- the Kummer split Gamma(nu) minus the lower series, when |Im nu| or
  Re nu reach 2(z + 1), or when Re nu > max(z - 1, 0) away from the
  pole at nu = 0 (|nu| >= 1/2), where the split would cancel;
- otherwise a modified Lentz continued fraction, when z >= 0.05 or the
  order is so negative that |Re nu * ln z| > 700;
- otherwise a power series about the anchor Gamma(nu, 1).

The continued fraction yields the scaled quantity directly, so e^x E_1(x)
stays exact far beyond the e^{-x} underflow point.  exp_scaled_e1 is the
engine's exponential at nu = 0, and the Euler Laplace inversion completes
the module.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import loggamma as _cx_loggamma

LN2 = math.log(2.0)

_MAX_CF_ITER = 60_000
_MAX_SERIES_ITER = 10_000
_EPS = 1e-16


class NumericalError(ArithmeticError):
    """A series or continued fraction failed to converge."""


class LaplaceInversionError(ArithmeticError):
    """Laplace inversion failed; carries the offending node when known."""

    def __init__(self, message, node=None, point=None):
        super().__init__(message)
        self.node = node
        self.point = point


def _lentz_cf(s, x):
    """Scaled continued-fraction factor C with Gamma(s, x) = x^s e^{-x} C.

    Modified Lentz iteration on the classical continued fraction
    C = 1/(x+1-s - 1(1-s)/(x+3-s - 2(2-s)/(x+5-s - ...))).  Works for
    real or complex order s; x must be a positive real.
    """
    tiny = 1e-300
    b = x + 1.0 - s
    f = b if abs(b) > tiny else tiny
    c = f
    d = 0.0
    for n in range(1, _MAX_CF_ITER + 1):
        a = n * (s - n)
        b = b + 2.0
        d = b + a * d
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f = f * delta
        if abs(delta - 1.0) < _EPS:
            return 1.0 / f
    raise NumericalError(
        f"incomplete gamma continued fraction did not converge (s={s!r}, x={x!r})"
    )


def _one_minus_power(q, x):
    """(1 - x^q)/q with the q -> 0 limit -ln(x); q may be complex."""
    if q == 0:
        return -math.log(x)
    if isinstance(q, complex):
        return (1.0 - cmath.exp(q * math.log(x))) / q
    return -math.expm1(q * math.log(x)) / q


def _anchor_series(s, x):
    """Gamma(s, x) for 0 < x < 1 via the anchor Gamma(s, 1).

    Expanding e^{-t} inside the integral from x to 1 gives
    Gamma(s, x) = Gamma(s, 1) + sum_n (-1)^n/n! * (1 - x^{s+n})/(s+n),
    which stays well conditioned for any s (including non-positive
    integers, where the n-th term degenerates to -ln x / n!).
    """
    total = _lentz_cf(s, 1.0) * math.exp(-1.0)  # Gamma(s,1) = e^{-1} * C(s,1)
    fact = 1.0
    for n in range(_MAX_SERIES_ITER):
        if n > 0:
            fact *= -n
        term = _one_minus_power(s + n, x) / fact
        total += term
        if n > 3 and abs(term) < abs(total) * _EPS:
            return total
    raise NumericalError(f"anchor series for Gamma(s, x) stalled (s={s!r}, x={x!r})")


def _kummer_log_split(nu, z):
    """log U(1, nu + 1, z) through Gamma(nu) minus the lower-gamma series.

    The scaled lower part e^z z^{-nu} gamma(nu, z) is the series
    sum z^n / ((nu)(nu+1)...(nu+n)), which contracts from the first term
    on when |nu + n| >= 2(z + 1) along the real or the imaginary
    direction.  All pieces are kept in log space so very large
    |Re(nu) * ln z| never overflows.
    """
    # log of the scaled e^z z^{-nu} Gamma(nu)
    lg_gamma = complex(_cx_loggamma(complex(nu))) + z - nu * math.log(z)
    term = 1.0 / nu
    total = term
    n = 0
    while n < _MAX_SERIES_ITER:
        n += 1
        term *= z / (nu + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise NumericalError(f"lower gamma series stalled (nu={nu!r}, z={z!r})")
    lg_lower = cmath.log(total)
    d = lg_lower - lg_gamma
    if d.real > 36.0:
        # Gamma(nu) is negligible next to the lower part.
        return lg_lower + 1j * math.pi + cmath.log(1.0 - cmath.exp(-d))
    if d.real < -36.0:
        return lg_gamma - cmath.exp(d)
    w = 1.0 - cmath.exp(d)
    if abs(w) < 1e-8:
        raise NumericalError(
            f"catastrophic cancellation in Gamma(nu, z) split (nu={nu!r}, z={z!r})"
        )
    return lg_gamma + cmath.log(w)


def _log_scaled_gamma(nu, z):
    """log U(1, nu + 1, z) = log(e^z z^{-nu} Gamma(nu, z)), nu complex, z > 0 real.

    The one dispatch among the three kernels (see the module docstring).
    Any branch of the logarithm may be returned; callers only ever
    exponentiate sums of these logs.
    """
    bound = 2.0 * (z + 1.0)
    if (
        abs(nu.imag) >= bound
        or nu.real >= bound
        or (nu.real > max(z - 1.0, 0.0) and abs(nu) >= 0.5)
    ):
        return _kummer_log_split(nu, z)
    if z >= 0.05 or abs(nu.real) * abs(math.log(z)) > 700.0:
        # The continued fraction also covers deeply negative orders at
        # small z, where the anchor series' z^nu nears the float limit.
        return cmath.log(_lentz_cf(nu, z))
    return z - nu * math.log(z) + cmath.log(_anchor_series(nu, z))


def exp_scaled_e1(x):
    """Scaled exponential integral e^x * E_1(x) = U(1, 1, x).

    The engine is scaled, so arguments far beyond the e^{-x} underflow
    point (x > 700) are fine.
    """
    x = float(x)
    if not x > 0.0 or math.isinf(x):
        raise ValueError(f"exp_scaled_e1 requires finite x > 0, got {x!r}")
    return math.exp(_log_scaled_gamma(0.0, x).real)


# Abate-Whitt Euler summation (INFORMS J. Computing 18(4), 2006): transform
# evaluations per output point, and the damping A of the Bromwich line
# Re s = A / (2t), whose discretisation error is about e^{-A}
EULER_NODES = 56
EULER_A = 18.4


def _check_node(value, node, point):
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise LaplaceInversionError(
            f"transform returned a non-finite value at node {node!r} (t={point!r})",
            node=node,
            point=point,
        )
    return value


def _euler_point(transform, t):
    # Abate-Whitt Euler summation: alternating series on the line
    # Re s = A/(2t), accelerated by binomial averaging of partial sums.
    m = EULER_NODES // 3
    n = EULER_NODES - 1 - m
    c = EULER_A / (2.0 * t)
    vals = np.empty(EULER_NODES)
    for k in range(EULER_NODES):
        s = complex(c, k * math.pi / t)
        vals[k] = _check_node(complex(transform(s)), s, t).real
    signs = np.where(np.arange(EULER_NODES) % 2 == 0, 1.0, -1.0)
    terms = signs * vals
    terms[0] = 0.5 * vals[0]
    partial = np.cumsum(terms)
    acc = 0.0
    for j in range(m + 1):
        acc += math.comb(m, j) * 0.5**m * partial[n + j]
    return math.exp(EULER_A / 2.0) / t * acc


def invert_laplace(transform, grid):
    """Numerically invert a Laplace transform on a grid of positive points.

    transform must be a scalar function of a complex argument, analytic
    to the right of the imaginary axis.  The Euler method only ever
    evaluates on a vertical line, so it tolerates transforms that grow
    into the left half-plane.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    if np.any(pts <= 0.0):
        raise ValueError("all grid points must be positive")
    out = np.empty_like(pts)
    for i, t in enumerate(pts):
        out[i] = _euler_point(transform, t)
    return out
