"""Special functions and numerical Laplace inversion.

Both analytic results of the capacity analysis are one special function:
the scaled incomplete gamma

    U(1, nu + 1, z) = e^z z^{-nu} Gamma(nu, z),

a Tricomi confluent hypergeometric function.  The closed-form capacity
needs e^x E_1(x) = U(1, 1, x) and the capacity MGF needs U(1, b, z) at
complex b.  A single engine, _log_scaled_gamma, returns its logarithm on
an array of real or complex orders nu, for one real z > 0 or a row of
them.  Boolean masks split the (nu, z) pairs among four kernels:

- the continued fraction's leading term, -log(z - nu), when Re nu <= 0
  and |nu| >= 2^30 (z + 1), where the remaining terms change the value
  by less than z/|nu|^2 (relative);
- the Kummer split Gamma(nu) minus the lower series, when |Im nu| or
  Re nu reach 2(z + 1), or when Re nu > max(z - 1, 0) away from the
  pole at nu = 0 (|nu| >= 1/2), where the split would cancel;
- otherwise a modified Lentz continued fraction when z >= 0.05;
- otherwise a power series about the anchor Gamma(nu, 1), summed in
  scaled form so that no power of z leaves the float range.

The series and the fraction iterate on arrays with a convergence mask per
element; converged elements leave the active set, so each loop ends when
its slowest element converges.  The Kummer series runs once per z, and
the fraction-bound pairs of every z share one continued-fraction pass
with the anchors Gamma(nu, 1) of the series.  The fraction yields the
scaled quantity directly, so e^x E_1(x) stays exact far beyond the e^{-x}
underflow point.  exp_scaled_e1 is the engine at nu = 0, and the Euler
Laplace inversion completes the module.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import loggamma as _cx_loggamma

LN2 = math.log(2.0)

_MAX_CF_ITER = 60_000
_MAX_SERIES_ITER = 10_000
_EPS = 1e-16
# orders with Re nu <= 0 and |nu| at least this multiple of z + 1 take the
# continued fraction's leading term
_LEADING_TERM_NU = 2.0**30


class NumericalError(ArithmeticError):
    """A series or continued fraction failed to converge."""


class LaplaceInversionError(ArithmeticError):
    """Laplace inversion failed; carries the offending node when known."""

    def __init__(self, message, node=None, point=None):
        super().__init__(message)
        self.node = node
        self.point = point


def _lentz_cf(s, x):
    """Scaled continued-fraction factors C with Gamma(s, x) = x^s e^{-x} C.

    Modified Lentz iteration (Thompson & Barnett 1986) on the classical
    continued fraction C = 1/(x+1-s - 1(1-s)/(x+3-s - 2(2-s)/(x+5-s - ...))),
    elementwise on 1-d arrays of real or complex orders s and positive
    reals x of one length.
    """
    tiny = 1e-300
    b = x + 1.0 - s
    f = np.where(np.abs(b) > tiny, b, tiny)
    c = f
    d = np.zeros_like(f)
    out = np.empty_like(f)
    active = np.arange(f.size)
    for n in range(1, _MAX_CF_ITER + 1):
        if active.size == 0:
            break
        a = n * (s - n)
        b = b + 2.0
        d = b + a * d
        d[np.abs(d) < tiny] = tiny
        c = b + a / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = c * d
        f = f * delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            out[active[done]] = 1.0 / f[done]
            keep = ~done
            active, s, b, c, d, f = active[keep], s[keep], b[keep], c[keep], d[keep], f[keep]
    if active.size:
        raise NumericalError(
            "incomplete gamma continued fraction did not converge "
            f"(s={s[0]!r}, x={x[active[0]]!r})"
        )
    return out


def _anchor_series(s, x, c_one):
    """x^{-s} Gamma(s, x) for 0 < x < 1 via the anchor Gamma(s, 1) = e^{-1} C(s, 1).

    Expanding e^{-t} inside the integral from x to 1 gives
    Gamma(s, x) = Gamma(s, 1) + sum_n (-1)^n/n! * (1 - x^{s+n})/(s+n).
    Scaled by x^{-s}, the n-th term is (x^{-s} - x^n)/q with q = s + n,
    evaluated as x^n (x^{-q} - 1)/q when Re q <= 0 and as
    x^{-s} (1 - x^q)/q otherwise, so every power stays in range however
    large |s ln x| is; at q = 0 the term degenerates to -x^n ln x.  s, x
    and the fraction factors c_one = C(s, 1) are 1-d arrays of one length.
    """
    lx = np.log(x)
    scale = np.exp(-s * lx)
    total = c_one * math.exp(-1.0) * scale
    out = np.empty_like(total)
    active = np.arange(s.size)
    fact = 1.0
    for n in range(_MAX_SERIES_ITER):
        if active.size == 0:
            break
        if n > 0:
            fact *= -n
        q = s + n
        omp = np.empty_like(total)
        left = q.real <= 0.0
        omp[left] = np.exp(n * lx[left]) * np.expm1(-q[left] * lx[left])
        omp[~left] = -scale[~left] * np.expm1(q[~left] * lx[~left])
        pole = q == 0
        q[pole] = 1.0
        omp[pole] = -np.exp(n * lx[pole]) * lx[pole]
        term = omp / q / fact
        total = total + term
        if n > 3:
            done = np.abs(term) < np.abs(total) * _EPS
            if done.any():
                out[active[done]] = total[done]
                keep = ~done
                active, s, lx, scale, total = (
                    active[keep], s[keep], lx[keep], scale[keep], total[keep]
                )
    if active.size:
        raise NumericalError(
            f"anchor series for Gamma(s, x) stalled (s={s[0]!r}, x={math.exp(lx[0])!r})"
        )
    return out


def _kummer_log_split(nu, z):
    """log U(1, nu + 1, z) through Gamma(nu) minus the lower-gamma series.

    nu is a 1-d array of orders and z one positive real.  The scaled lower
    part e^z z^{-nu} gamma(nu, z) is the series
    sum z^n / ((nu)(nu+1)...(nu+n)), which contracts from the first term
    on when |nu + n| >= 2(z + 1) along the real or the imaginary
    direction.  All pieces are kept in log space so very large
    |Re(nu) * ln z| never overflows.
    """
    nu = nu.astype(complex)
    # log of the scaled e^z z^{-nu} Gamma(nu)
    lg_gamma = _cx_loggamma(nu) + z - nu * math.log(z)
    term = 1.0 / nu
    total = term
    lower = np.empty_like(nu)
    active = np.arange(nu.size)
    v = nu
    for n in range(1, _MAX_SERIES_ITER + 1):
        if active.size == 0:
            break
        term = term * (z / (v + n))
        total = total + term
        done = np.abs(term) < np.abs(total) * _EPS
        if done.any():
            lower[active[done]] = total[done]
            keep = ~done
            active, v, term, total = active[keep], v[keep], term[keep], total[keep]
    if active.size:
        raise NumericalError(f"lower gamma series stalled (nu={v[0]!r}, z={z!r})")
    lg_lower = np.log(lower)
    d = lg_lower - lg_gamma
    out = np.empty_like(nu)
    # Gamma(nu) is negligible next to the lower part
    big = d.real > 36.0
    out[big] = lg_lower[big] + 1j * math.pi + np.log(1.0 - np.exp(-d[big]))
    small = d.real < -36.0
    out[small] = lg_gamma[small] - np.exp(d[small])
    mid = ~(big | small)
    w = 1.0 - np.exp(d[mid])
    cancel = np.abs(w) < 1e-8
    if cancel.any():
        raise NumericalError(
            "catastrophic cancellation in Gamma(nu, z) split "
            f"(nu={nu[mid][cancel][0]!r}, z={z!r})"
        )
    out[mid] = lg_gamma[mid] + np.log(w)
    return out


def _log_scaled_gamma(nu, z):
    """log U(1, nu + 1, z) = log(e^z z^{-nu} Gamma(nu, z)), nu real or complex, z > 0.

    nu is an array (or scalar) of orders, z a positive real or an array of
    them; the result has shape z.shape + nu.shape, one row of orders per
    z.  This is the one dispatch among the kernels (see the module
    docstring).  Any branch of the logarithm may be returned; callers only
    ever exponentiate sums of these logs.
    """
    nu = np.asarray(nu)
    if not np.iscomplexobj(nu):
        nu = nu.astype(float)
    zs = np.asarray(z, dtype=float)
    shape = (zs.size, nu.size)
    v = np.broadcast_to(nu.ravel(), shape)
    x = np.broadcast_to(zs.reshape(-1, 1), shape)
    out = np.empty(shape, dtype=complex)

    size = np.abs(v)
    bound = 2.0 * (x + 1.0)
    leading = (v.real <= 0.0) & (size / _LEADING_TERM_NU >= x + 1.0)
    kummer = ~leading & (
        (np.abs(v.imag) >= bound)
        | (v.real >= bound)
        | ((v.real > np.maximum(x - 1.0, 0.0)) & (size >= 0.5))
    )
    lentz = ~(leading | kummer) & (x >= 0.05)
    anchor = ~(leading | kummer | lentz)

    out[leading] = -np.log(x[leading] - v[leading])
    for row, zk in enumerate(zs.ravel()):
        if kummer[row].any():
            out[row, kummer[row]] = _kummer_log_split(v[row, kummer[row]], zk)
    # one continued-fraction pass for the fraction-bound pairs of every z and
    # for the anchors Gamma(nu, 1) of the series
    n_lentz = np.count_nonzero(lentz)
    cf = _lentz_cf(
        np.concatenate([v[lentz], v[anchor]]),
        np.concatenate([x[lentz], np.ones(np.count_nonzero(anchor))]),
    )
    out[lentz] = np.log(cf[:n_lentz])
    out[anchor] = x[anchor] + np.log(_anchor_series(v[anchor], x[anchor], cf[n_lentz:]))
    return out.reshape(zs.shape + nu.shape)


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


def invert_laplace(transform, grid):
    """Numerically invert a Laplace transform on a grid of positive points.

    transform receives one complex array of shape (grid size, EULER_NODES),
    the Euler nodes of every point in one row, and returns the transform's
    values there as an array of that shape.  The transform must be
    analytic to the right of the imaginary axis.  The Euler method only
    ever evaluates on a vertical line, so it tolerates transforms that grow
    into the left half-plane.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    if np.any(pts <= 0.0):
        raise ValueError("all grid points must be positive")
    # Abate-Whitt Euler summation: alternating series on the line
    # Re s = A/(2t), accelerated by binomial averaging of partial sums
    m = EULER_NODES // 3
    n = EULER_NODES - 1 - m
    k = np.arange(EULER_NODES)
    nodes = np.empty((pts.size, EULER_NODES), dtype=complex)
    nodes.real = (EULER_A / (2.0 * pts))[:, None]
    nodes.imag = k * math.pi / pts[:, None]
    values = np.broadcast_to(transform(nodes), nodes.shape)
    bad = ~(np.isfinite(values.real) & np.isfinite(values.imag))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        node, point = complex(nodes[row, col]), float(pts[row])
        raise LaplaceInversionError(
            f"transform returned a non-finite value at node {node!r} (t={point!r})",
            node=node,
            point=point,
        )
    terms = np.where(k % 2 == 0, 1.0, -1.0) * values.real
    terms[:, 0] = 0.5 * values[:, 0].real
    partial = np.cumsum(terms, axis=1)
    acc = np.zeros(pts.size)
    for j in range(m + 1):
        acc += math.comb(m, j) * 0.5**m * partial[:, n + j]
    return math.exp(EULER_A / 2.0) / pts * acc
