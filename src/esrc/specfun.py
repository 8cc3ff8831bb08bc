"""Special functions: the scaled upper incomplete gamma and the gamma CDF.

The closed-form capacity is one special function, the scaled incomplete
gamma

    U(1, nu + 1, z) = e^z z^{-nu} Gamma(nu, z),

a Tricomi confluent hypergeometric function, at order nu = 0:
e^x E_1(x) = U(1, 1, x).  The Gamma(L) capacity takes the negative
integer orders nu = -k.  _log_scaled_gamma returns its logarithm on an
array of real orders nu <= 0, for one real z > 0 or a row of them, from
one of two kernels:

- the continued fraction, evaluated backward, when z >= 1: it yields the
  scaled quantity directly, so e^x E_1(x) stays exact far beyond the
  e^{-x} underflow point;
- below z = 1, where the fraction would need about 86/z levels, a power
  series about the anchor Gamma(nu, 1), summed in scaled form so that no
  power of z leaves the float range.

Each series iterates on arrays with a convergence mask per element, and
converged elements leave the active set, so each loop ends when its
slowest element converges.  Every kernel treats each pair on its own, so
each row of a call has the bits of a call on its z alone.  _gamma_cdf,
the gamma fit's regularized P(a, x), uses the lower series and the
fraction.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

_MAX_CF_ITER = 60_000
_MAX_SERIES_ITER = 10_000
# iterations of the lower series between convergence checks
_BLOCK = 8
# bytes of each 2-D run of the continued fraction's level terms: runs wider
# than the first-level cache lose to terms taken one level at a time
_LEVEL_BYTES = 2**14
_EPS = 1e-16
# relative gap between the continued fraction at depths d and d + 8 it accepts
_CF_TOL = 4.0 * 2.0**-52
# Stirling series of log Gamma(w): the coefficients B_2k / (2k (2k - 1)),
# k = 1..10, truncated below 1e-16 relative for w >= _STIRLING_MIN
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
    -691 / 360360, 1 / 156, -3617 / 122400, 43867 / 244188, -174611 / 125400,
)
_STIRLING_MIN = 7.0


# the kernels' logarithm: numpy's, on the principal branch for complex input
_log = np.log


class NumericalError(ArithmeticError):
    """A series or continued fraction failed to converge, or a result overflowed."""


def _stirling_tail(w):
    """log Gamma(w) - (w - 1/2) log w + w - log(2 pi)/2, for real w >= _STIRLING_MIN."""
    inv = 1.0 / w
    inv2 = inv * inv
    tail = 0.0
    for c in reversed(_STIRLING):
        tail = tail * inv2 + c
    return tail * inv


def _gamma_cf(s, x):
    """Scaled continued-fraction factors C with Gamma(s, x) = x^s e^{-x} C.

    The classical continued fraction
    C = 1/(x+1-s - 1(1-s)/(x+3-s - 2(2-s)/(x+5-s - ...))), evaluated
    backward, elementwise on 1-d arrays of real orders s and positive reals
    x of one length.  Each element starts at the depth d = 8 + 86/x, which
    bounds the depth the acceptance test needs when s <= 1 (90-119 at
    x = 1, 4-5 at x = 1000).  A sweep runs
    the elements deepest first: row 1 of t starts at level d + 8, row 0 at
    level d, and each level k sets t_{k-1} = x + 2k - 1 - s + k (s - k)/t_k
    on the prefix of elements whose row 1 has started (row 0 repeats row
    1's steps until its own start).  The terms x + 2k - 1 - s and k (s - k)
    of a run of levels are taken as 2-D blocks of at most _LEVEL_BYTES
    each, or of one level where a level alone is wider, so a narrow sweep
    costs about two numpy calls per level (the 47 anchors of the 10 dB
    table are such a sweep).  An element is accepted when its
    rows agree to _CF_TOL; the others run again at twice the depth, up to
    _MAX_CF_ITER.
    """
    depth = np.fmin(np.ceil(8.0 + 86.0 / x), _MAX_CF_ITER)
    todo = np.argsort(-depth, kind="stable")
    out = np.empty(s.shape)
    cap = _LEVEL_BYTES // out.itemsize
    while todo.size:
        order, rising = s[todo], -depth[todo]
        base = x[todo] + 1.0 - order
        t = np.stack([base + 2.0 * (8.0 - rising)] * 2)
        levels = np.arange(8 - int(rising[0]), 0, -1)
        # in the result's dtype, so that no broadcast below runs numpy's casting loop
        shift, ks = (2.0 * (levels - 1)).astype(out.dtype), levels.astype(out.dtype)
        started = np.searchsorted(rising, 8 - levels, side="right").tolist()
        entered = np.searchsorted(rising, -levels, side="right").tolist()
        low = end = 0
        for i, (k, m, high) in enumerate(zip(levels.tolist(), started, entered)):
            if i == end:
                # the next run of levels whose terms x + 2k - 1 - s and
                # k (s - k) fit in cap elements each, taken as 2-D blocks
                first, end = i, i + 1
                while end < levels.size and (end + 1 - first) * started[end] <= cap:
                    end += 1
                width, k_col = started[end - 1], ks[first:end, None]
                steps = base[:width] + shift[first:end, None]
                coef = k_col * (order[:width] - k_col)
            if high > low:
                t[0, low:high] = base[low:high] + 2.0 * k
                low = high
            np.add(steps[i - first, :m], coef[i - first, :m] / t[:, :m], out=t[:, :m])
        done = np.abs(t[0] - t[1]) <= _CF_TOL * np.abs(t[0])
        out[todo[done]] = 1.0 / t[1, done]
        todo = todo[~done]
        if todo.size and depth[todo[0]] >= _MAX_CF_ITER:
            raise NumericalError(
                "incomplete gamma continued fraction did not converge "
                f"(s={s[todo[0]]!r}, x={x[todo[0]]!r})"
            )
        depth[todo] = np.fmin(2.0 * depth[todo], _MAX_CF_ITER)
    return out


def _anchor_series(s, x, c_one):
    """x^{-s} Gamma(s, x) for 0 < x < 1 via the anchor Gamma(s, 1) = e^{-1} C(s, 1).

    Expanding e^{-t} inside the integral from x to 1 gives
    Gamma(s, x) = Gamma(s, 1) + sum_n (-1)^n/n! * (1 - x^{s+n})/(s+n).
    Scaled by x^{-s}, the n-th term is (x^{-s} - x^n)/q with q = s + n,
    evaluated as x^n (x^{-q} - 1)/q when q <= 0 and as
    x^{-s} (1 - x^q)/q otherwise, so every power stays in range however
    large |s ln x| is.  Near q = 0 the term is its limit -x^n ln x (for
    |q| < 1e-200, within |q ln x|/2 relative), which also keeps a
    subnormal q out of the division.  s, x and the fraction factors
    c_one = C(s, 1) are 1-d arrays of one length.  Against mpmath, on 221
    pairs with |s| <= 3 and x from 0.05 to 1, it read 9.2e-16, where the
    backward fraction read 6.7e-16 and a forward Lentz fraction 3.6e-13.
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
        left = q <= 0.0
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

    Elementwise on positive real orders nu and positive reals z, each a
    scalar or a 1-d array, that broadcast to one length.  A scalar stays a
    scalar, so each term costs no pass to expand it.  The series contracts
    from n > z - nu on.
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


def _log_scaled_gamma(nu, z):
    """log U(1, nu + 1, z) = log(e^z z^{-nu} Gamma(nu, z)), real orders nu <= 0, z > 0.

    nu is an array (or scalar) of orders, z a positive real or an array of
    them; the result has shape z.shape + nu.shape, one row of orders per
    z.  Rows with z >= 1 take the continued fraction and the others the
    anchor series (see the module docstring).
    """
    nu, zs = np.asarray(nu, dtype=float), np.asarray(z, dtype=float)
    shape = (zs.size, nu.size)
    v, x = np.broadcast_to(nu.ravel(), shape), np.broadcast_to(zs.reshape(-1, 1), shape)
    fraction = x >= 1.0
    anchor = ~fraction
    # one continued-fraction pass for the fraction-bound pairs of every z and
    # for the anchors Gamma(nu, 1) of the series, one per distinct order
    n_fraction = np.count_nonzero(fraction)
    orders, order_of = np.unique(v[anchor], return_inverse=True)
    cf = _gamma_cf(
        np.concatenate([v[fraction], orders]),
        np.concatenate([x[fraction], np.ones(orders.size)]),
    )
    out = np.empty(shape)
    out[fraction] = _log(cf[:n_fraction])
    anchor_cf = cf[n_fraction:][order_of]
    out[anchor] = x[anchor] + _log(_anchor_series(v[anchor], x[anchor], anchor_cf))
    return out.reshape(zs.shape + nu.shape)


def _gamma_cdf(a, x):
    """Regularized lower incomplete gamma P(a, x), the CDF of the unit-scale gamma(a).

    a is one positive real and x a 1-d array of positive reals.  The lower
    series gives P below x = a + 1 + 8 sqrt(a + 1), and the continued
    fraction 1 - P above, each times x^a e^{-x} / Gamma(a).  The gamma(a)
    law has mean and variance a, so the series takes a whole sample bar a
    far tail: in numpy a series term costs about a third of a fraction
    level per element (3 ns against 10-11 ns at a = 50), and its term
    count, about x - a + 8.5 sqrt(x), stays small there.  The switch is
    kept where it was first set, so that fitted statistics keep their
    bits.  The factor is taken as (x/a)^a e^{a - x} times a^a e^{-a} /
    Gamma(a), with log(x/a) as log1p(t), t = (x - a)/a, where x >= a/2
    makes x - a exact.
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
    cf = _gamma_cf(np.full(np.count_nonzero(high), a), x[high])
    p[high] = -np.expm1(log_factor[high] + np.log(cf))
    # rounding may carry the series a few ulps past 1
    return np.minimum(p, 1.0)
