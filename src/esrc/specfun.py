"""Special functions and numerical Laplace inversion.

Everything downstream of the capacity analysis funnels through a small set
of classical functions: the upper incomplete gamma function Gamma(s, x),
the scaled exponential integral e^x * E_1(x), the Tricomi confluent
hypergeometric function U(1, b, z), and the Gompertz-Makeham density that
log2(1 + X) follows when X is exponential.  They are implemented here in
scaled forms so that the capacity formulas stay finite even when the
per-user SINR scale is far below or above unity.

Gamma(s, x) uses the textbook split: a lower-series representation when
x < s + 1 (s > 0), a modified Lentz continued fraction otherwise, and a
power-series anchor at x = 1 for small x with non-positive s.  The
continued fraction is evaluated in its scaled form

    Gamma(s, x) = x^s e^{-x} * C(s, x)

which makes e^x-scaled quantities (exp_scaled_e1, tricomi_u1) exact
products with no intermediate overflow.  The order argument extends to
complex values; that path is used when a capacity transform is evaluated
on a vertical Bromwich line.
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


def _lower_series(s, x):
    """Regularized-style lower series; returns Gamma(s, x) for s > 0, x < s + 1."""
    term = 1.0 / s
    total = term
    n = 0
    while n < _MAX_SERIES_ITER:
        n += 1
        term *= x / (s + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            gamma_s = math.exp(math.lgamma(s))
            lower = math.exp(s * math.log(x) - x) * total if x > 0 else 0.0
            return gamma_s - lower
    raise NumericalError(f"lower incomplete gamma series stalled (s={s!r}, x={x!r})")


def _one_minus_power(q, x):
    """(1 - x^q)/q with the q -> 0 limit -ln(x); q may be complex."""
    if q == 0:
        return -math.log(x) + 0.0j
    return (1.0 - cmath.exp(q * math.log(x))) / q


def _anchor_series(s, x):
    """Gamma(s, x) for 0 < x < 1 via the anchor Gamma(s, 1).

    Expanding e^{-t} inside the integral from x to 1 gives
    Gamma(s, x) = Gamma(s, 1) + sum_n (-1)^n/n! * (1 - x^{s+n})/(s+n),
    which stays well conditioned for any s (including non-positive
    integers, where the n-th term degenerates to -ln x / n!).
    """
    anchor = _lentz_cf(s, 1.0) * cmath.exp(-1.0)  # Gamma(s,1) = e^{-1} * C(s,1)
    total = anchor
    fact = 1.0
    for n in range(_MAX_SERIES_ITER):
        if n > 0:
            fact *= -n
        term = _one_minus_power(s + n, x) / fact
        total += term
        if n > 3 and abs(term) < abs(total) * _EPS:
            return total
    raise NumericalError(f"anchor series for Gamma(s, x) stalled (s={s!r}, x={x!r})")


def upper_incomplete_gamma(s, x):
    """Upper incomplete gamma Gamma(s, x) = int_x^inf t^{s-1} e^{-t} dt.

    Supports any real order s > -20 (negative and zero included) and
    x > 0.  Relative accuracy is at the 1e-12 level over x in
    [1e-6, 700] for moderate orders.
    """
    s = float(s)
    x = float(x)
    if not x > 0.0 or math.isinf(x):
        raise ValueError(f"upper_incomplete_gamma requires finite x > 0, got {x!r}")
    if not s > -20.0:
        raise ValueError(f"order s must exceed -20, got {s!r}")
    if s > 0.0 and x < s + 1.0:
        return _lower_series(s, x)
    if x >= 1.0:
        return math.exp(s * math.log(x) - x) * _lentz_cf(s, x)
    return _anchor_series(s, x).real


def _kummer_log_split(nu, z):
    """log Gamma(nu, z) through Gamma(nu) minus the lower-gamma series.

    Valid when the series sum z^n / ((nu)(nu+1)...(nu+n)) contracts from
    the first term on, i.e. |nu + n| >= 2(z + 1) along the real or the
    imaginary direction.  All pieces are kept in log space so very large
    |Re(nu) * ln z| never overflows.
    """
    lg_gamma = complex(_cx_loggamma(complex(nu)))
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
    lg_lower = nu * math.log(z) - z + cmath.log(total)
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


def _log_upper_gamma(nu, z):
    """log Gamma(nu, z) for complex order nu and real z > 0.

    Any branch of the logarithm may be returned; callers only ever
    exponentiate sums of these logs.
    """
    z = float(z)
    if not z > 0.0:
        raise ValueError(f"_log_upper_gamma requires z > 0, got {z!r}")
    nu = complex(nu)
    if nu.imag == 0.0 and -20.0 < nu.real:
        value = upper_incomplete_gamma(nu.real, z)
        if value > 0.0 and math.isfinite(value):
            return complex(math.log(value))
        # Out of float range; fall through to the scaled complex paths.
    bound = 2.0 * (z + 1.0)
    if abs(nu.imag) >= bound or nu.real >= bound:
        return _kummer_log_split(nu, z)
    if z >= 0.05 or abs(nu.real) * abs(math.log(z)) > 500.0:
        # The continued fraction also covers deeply negative near-real
        # orders at small z, where |nu| >> z makes it converge in a few
        # terms and the anchor series would overflow.
        return nu * math.log(z) - z + cmath.log(_lentz_cf(nu, z))
    return cmath.log(_anchor_series(nu, z))


def exp_scaled_e1(x):
    """Scaled exponential integral e^x * E_1(x) = e^x * Gamma(0, x).

    The continued fraction is already the scaled quantity, so arguments
    far beyond the e^{-x} underflow point (x > 700) are fine.
    """
    x = float(x)
    if not x > 0.0 or math.isinf(x):
        raise ValueError(f"exp_scaled_e1 requires finite x > 0, got {x!r}")
    if x >= 1.0:
        return _lentz_cf(0.0, x)
    return math.exp(x) * _anchor_series(0.0, x).real


def tricomi_u1(b, z):
    """Tricomi confluent hypergeometric U(1, b, z) for real b, z > 0.

    Uses the closed form U(1, b, z) = e^z z^{1-b} Gamma(b - 1, z); for
    z >= 1 the scaled continued fraction gives the product directly.
    """
    b = float(b)
    z = float(z)
    if not z > 0.0 or math.isinf(z):
        raise ValueError(f"tricomi_u1 requires finite z > 0, got {z!r}")
    if z >= 1.0:
        return _lentz_cf(b - 1.0, z)
    return math.exp(z + (1.0 - b) * math.log(z)) * upper_incomplete_gamma(b - 1.0, z)


def _log_tricomi_u1(b, z):
    """log U(1, b, z) for complex b, real z > 0 (branch-agnostic)."""
    z = float(z)
    b = complex(b)
    return z + (1.0 - b) * math.log(z) + _log_upper_gamma(b - 1.0, z)


def gm_pdf(x, lam, kappa):
    """Gompertz-Makeham style density lam*kappa*e^{lam x}*exp(kappa - kappa e^{lam x}).

    This is the law of log(1 + X)/lam' for exponential X; with
    lam = ln 2 and kappa the inverse SINR scale it is the single-user
    capacity density.  Accepts scalars or arrays for x >= 0.
    """
    if not (lam > 0.0 and kappa > 0.0):
        raise ValueError(f"gm_pdf requires lam > 0 and kappa > 0, got {lam!r}, {kappa!r}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("gm_pdf is supported on x >= 0")
    t = lam * arr
    # log density; exp(t) can overflow for absurd x, where the density is 0
    with np.errstate(over="ignore"):
        growth = np.exp(t)
    log_pdf = np.where(
        np.isfinite(growth),
        math.log(lam) + math.log(kappa) + t + kappa - kappa * growth,
        -np.inf,
    )
    out = np.exp(log_pdf)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


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
