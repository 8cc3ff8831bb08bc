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
- otherwise a modified Lentz continued fraction when z >= 1;
- otherwise a power series about the anchor Gamma(nu, 1), summed in
  scaled form so that no power of z leaves the float range.

The series and the fraction iterate on arrays with a convergence mask per
element, checked every _BLOCK steps; converged elements leave the active
set, so each loop ends when its slowest element converges.  The Kummer series runs once per z, and
the fraction-bound pairs of every z share one continued-fraction pass
with the anchors Gamma(nu, 1) of the series.  The fraction yields the
scaled quantity directly, so e^x E_1(x) stays exact far beyond the e^{-x}
underflow point.  The Kummer split takes Gamma(nu) from _loggamma, a
Stirling series with a recurrence shift and reflection, evaluated once per
order for every z.  The closed form's e^x E_1(x) is the engine at nu = 0,
and the Euler Laplace inversion completes the module.  The regularized
lower incomplete gamma P(a, x) of the gamma fit reuses the lower series
and the fraction.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
_LN_2PI = math.log(2.0 * math.pi)

_MAX_CF_ITER = 60_000
_MAX_SERIES_ITER = 10_000
# iterations of the lower series and the continued fraction between
# convergence checks
_BLOCK = 8
_EPS = 1e-16
# a continued-fraction step within one ulp of 1 has converged; rounding can
# hold every later step at 1 - 2^-53, which is further from 1 than _EPS
_CF_TOL = 2.0**-52
# orders with Re nu <= 0 and |nu| at least this multiple of z + 1 take the
# continued fraction's leading term
_LEADING_TERM_NU = 2.0**30
# Stirling series of log Gamma(w): the coefficients B_2k / (2k (2k - 1)),
# k = 1..10, truncated below 1e-16 relative for |w| >= _STIRLING_MIN, Re w > 0
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
    -691 / 360360, 1 / 156, -3617 / 122400, 43867 / 244188, -174611 / 125400,
)
_STIRLING_MIN = 7.0


class NumericalError(ArithmeticError):
    """A series or continued fraction failed to converge, or a result overflowed."""


class LaplaceInversionError(ArithmeticError):
    """Laplace inversion failed; the message names the node and t when known."""


def _stirling_tail(w):
    """log Gamma(w) - (w - 1/2) log w + w - log(2 pi)/2, for |w| >= _STIRLING_MIN, Re w > 0."""
    inv = 1.0 / w
    inv2 = inv * inv
    tail = 0.0
    for c in reversed(_STIRLING):
        tail = tail * inv2 + c
    return tail * inv


def _loggamma(z):
    """log Gamma(z) elementwise on an array of complex z away from the poles.

    Orders with Re z < 1/2 reflect to 1 - z.  Orders w with
    |w| < _STIRLING_MIN shift to w + n, Re(w + n) >= _STIRLING_MIN, and
    divide by the product w (w + 1) ... (w + n - 1): one product and one
    log.  The Stirling series does the rest.  Any branch of the logarithm
    may be returned.
    """
    z = np.asarray(z, dtype=complex)
    left = z.real < 0.5
    w = np.where(left, 1.0 - z, z)
    shift = np.where(np.abs(w) < _STIRLING_MIN, np.ceil(_STIRLING_MIN - w.real), 0.0)
    prod = np.ones_like(w)
    for k in range(int(shift.max(initial=0.0))):
        prod *= np.where(k < shift, w + k, 1.0)
    w = w + shift
    out = (w - 0.5) * np.log(w) - w + 0.5 * _LN_2PI + _stirling_tail(w) - np.log(prod)
    if left.any():
        # log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z), with
        # log sin(pi z) = -i pi z g + log(1 - e^{2 i pi z g}) - log 2i (+ i pi
        # when g = 1), g the sign of Im z: no exponential overflows.  The
        # e^{2 i pi z g} factor has period 1 in Re z and the linear term
        # period 2 up to 2 pi i, so each takes Re z reduced exactly, before
        # any multiplication by pi
        x, y = z.real[left], z.imag[left]
        up = y > 0.0
        g = np.where(up, 1.0, -1.0)
        near = x - np.round(x)
        mod2 = x - 2.0 * np.round(0.5 * x)
        log_sin = (
            -1j * math.pi * g * (mod2 + 1j * y)
            + np.log(-np.expm1(2j * math.pi * g * (near + 1j * y)))
            - np.log(2j)
            + 1j * math.pi * up
        )
        out[left] = math.log(math.pi) - log_sin - out[left]
    return out


def _lentz_cf(s, x):
    """Scaled continued-fraction factors C with Gamma(s, x) = x^s e^{-x} C.

    Modified Lentz iteration (Thompson & Barnett 1986) on the classical
    continued fraction C = 1/(x+1-s - 1(1-s)/(x+3-s - 2(2-s)/(x+5-s - ...))),
    elementwise on 1-d arrays of real or complex orders s and positive
    reals x of one length.  An element has converged once a step within
    the last _BLOCK changed its value by at most _CF_TOL.
    """
    tiny = 1e-300
    b = x + 1.0 - s
    f = np.where(np.abs(b) > tiny, b, tiny)
    c = f
    d = np.zeros_like(f)
    out = np.empty_like(f)
    active = np.arange(f.size)
    for n in range(1, _MAX_CF_ITER + 1, _BLOCK):
        if active.size == 0:
            break
        live = np.ones(active.size, dtype=bool)
        for k in range(n, n + _BLOCK):
            a = k * (s - k)
            b = b + 2.0
            d = b + a * d
            d[np.abs(d) < tiny] = tiny
            c = b + a / c
            c[np.abs(c) < tiny] = tiny
            d = 1.0 / d
            delta = c * d
            # a converged element keeps its value for the rest of the block
            np.multiply(f, delta, out=f, where=live)
            live &= np.abs(delta - 1.0) > _CF_TOL
        done = ~live
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
    large |s ln x| is.  Near q = 0 the term is its limit -x^n ln x (for
    |q| < 1e-200, within |q ln x|/2 relative), which also keeps a
    subnormal q out of the division.  s, x and the fraction factors
    c_one = C(s, 1) are 1-d arrays of one length.
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
        pole = np.abs(q) < 1e-200
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


def _lower_series(nu, z):
    """e^z z^{-nu} gamma(nu, z) = sum_n z^n / (nu (nu + 1) ... (nu + n)).

    Elementwise on real or complex orders nu and positive reals z, each a
    scalar or a 1-d array, that broadcast to one length.  A scalar stays a
    scalar, so each term costs no pass to expand it.  The series contracts
    from the first term on when |nu + n| >= 2(z + 1) along the real or the
    imaginary direction, and for real nu > 0 from n > z - nu on.
    """
    nu, z = np.asarray(nu), np.asarray(z)
    term = np.broadcast_to(1.0 / nu, np.broadcast_shapes(nu.shape, z.shape))
    total = term
    out = np.empty(term.shape, dtype=np.result_type(term, z))
    active = np.arange(total.size)
    for n in range(1, _MAX_SERIES_ITER + 1, _BLOCK):
        if active.size == 0:
            break
        for k in range(n, n + _BLOCK):
            term = term * (z / (nu + k))
            total = total + term
        done = np.abs(term) < np.abs(total) * _EPS
        if done.any():
            out[active[done]] = total[done]
            keep = ~done
            active, term, total = active[keep], term[keep], total[keep]
            nu, z = (x[keep] if x.ndim else x for x in (nu, z))
    if active.size:
        raise NumericalError(
            f"lower gamma series stalled (nu={nu.flat[0]!r}, z={z.flat[0]!r})"
        )
    return out


def _kummer_log_split(nu, z, log_gamma):
    """log U(1, nu + 1, z) through Gamma(nu) minus the lower-gamma series.

    nu is a 1-d array of orders, log_gamma their log Gamma(nu) and z one
    positive real.  The scaled lower part is _lower_series.  All pieces
    are kept in log space so very large |Re(nu) * ln z| never overflows.
    """
    nu = nu.astype(complex)
    # log of the scaled e^z z^{-nu} Gamma(nu)
    lg_gamma = log_gamma + z - nu * math.log(z)
    lg_lower = np.log(_lower_series(nu, z))
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
    # halving is exact, and 2(z + 1) would overflow above z = 9e307
    x1 = x + 1.0
    leading = (v.real <= 0.0) & (size / _LEADING_TERM_NU >= x1)
    kummer = ~leading & (
        (0.5 * np.abs(v.imag) >= x1)
        | (0.5 * v.real >= x1)
        | ((v.real > np.maximum(x - 1.0, 0.0)) & (size >= 0.5))
    )
    lentz = ~(leading | kummer) & (x >= 1.0)
    anchor = ~(leading | kummer | lentz)

    out[leading] = -np.log(x[leading] - v[leading])
    # log Gamma(nu) once per order that some z sends to the Kummer split
    log_gamma = np.empty(nu.size, dtype=complex)
    needed = kummer.any(axis=0)
    log_gamma[needed] = _loggamma(nu.ravel()[needed])
    for row, zk in enumerate(zs.ravel()):
        pick = kummer[row]
        if pick.any():
            out[row, pick] = _kummer_log_split(v[row, pick], zk, log_gamma[pick])
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


def _gamma_cdf(a, x):
    """Regularized lower incomplete gamma P(a, x), the CDF of the unit-scale gamma(a).

    a is one positive real and x a 1-d array of positive reals.  The lower
    series gives P below x = a + 1 + 8 sqrt(a + 1), and the continued
    fraction 1 - P above, each times x^a e^{-x} / Gamma(a).  The gamma(a)
    law has mean and variance a, so the series takes a whole sample bar a
    far tail: in numpy a series term costs a fifth of a fraction step, and
    its term count, about x - a + 8.5 sqrt(x), stays small there.  The
    factor is taken as (x/a)^a e^{a - x} times a^a e^{-a} / Gamma(a), with
    log(x/a) as log1p(t), t = (x - a)/a, where x >= a/2 makes x - a exact.
    For a >= _STIRLING_MIN the constant comes from the Stirling series, so
    no logarithm of size a ln a has to cancel.
    """
    x = np.asarray(x, dtype=float)
    if a >= _STIRLING_MIN:
        log_norm = -0.5 * math.log(2.0 * math.pi / a) - _stirling_tail(a)
    else:
        log_norm = a * math.log(a) - a - math.lgamma(a)
    t = (x - a) / a
    # log1p sees t >= -0.5 only: below x = a 2^-53, t rounds to -1
    log_ratio = np.where(t < -0.5, np.log(x / a), np.log1p(np.maximum(t, -0.5)))
    log_factor = a * (log_ratio - t) + log_norm
    p = np.empty_like(x)
    low = x < a + 1.0 + 8.0 * math.sqrt(a + 1.0)
    p[low] = np.exp(log_factor[low]) * _lower_series(a, x[low])
    high = ~low
    cf = _lentz_cf(np.full(np.count_nonzero(high), a), x[high])
    p[high] = -np.expm1(log_factor[high] + np.log(cf))
    # rounding may carry the series a few ulps past 1
    return np.minimum(p, 1.0)


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
        raise LaplaceInversionError(
            f"transform returned a non-finite value at node {complex(nodes[row, col])!r} "
            f"(t={float(pts[row])!r})"
        )
    terms = np.where(k % 2 == 0, 1.0, -1.0) * values.real
    terms[:, 0] = 0.5 * values[:, 0].real
    partial = np.cumsum(terms, axis=1)
    acc = np.zeros(pts.size)
    for j in range(m + 1):
        acc += math.comb(m, j) * 0.5**m * partial[:, n + j]
    return math.exp(EULER_A / 2.0) / pts * acc
