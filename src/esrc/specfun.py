"""Special functions and numerical Laplace inversion.

Both analytic results of the capacity analysis are one special function:
the scaled incomplete gamma

    U(1, nu + 1, z) = e^z z^{-nu} Gamma(nu, z),

a Tricomi confluent hypergeometric function.  The closed-form capacity
needs e^x E_1(x) = U(1, 1, x) and the capacity MGF needs U(1, b, z) at
complex b.  A single engine, _log_scaled_gamma, returns its logarithm on
an array of real or complex orders nu, for one real z > 0 or a row of
them.  Boolean masks, built from each order's quantities once and a
column of z, split the (nu, z) pairs among four kernels:

- the continued fraction's leading term, -log(z - nu), when Re nu <= 0
  and |nu| >= 2^30 (z + 1), where the remaining terms change the value
  by less than z/|nu|^2 (relative);
- the Kummer split Gamma(nu) minus the lower series, when |Im nu| or
  Re nu reach 2(z + 1), or when Re nu > max(z - 1, 0) away from the
  pole at nu = 0 (|nu| >= 1/2), where the split would cancel;
- otherwise the continued fraction, evaluated backward, when z >= 1: it
  yields the scaled quantity directly, so e^x E_1(x) stays exact far
  beyond the e^{-x} underflow point;
- otherwise, below z = 1 where the fraction would need about 86/z
  levels, a power series about the anchor Gamma(nu, 1), summed in scaled
  form so that no power of z leaves the float range.

Each series iterates on arrays with a convergence mask per element, and
converged elements leave the active set, so each loop ends when its
slowest element converges.  Every kernel treats each pair on its own, so
each row of a call has the bits of a call on its z alone.  _gamma_cdf,
the gamma fit's regularized P(a, x), reuses the lower series and the
fraction, and invert_laplace, de Hoog's Laplace inversion, completes the
module.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
_LN_2PI = math.log(2.0 * math.pi)

_MAX_CF_ITER = 60_000
_MAX_SERIES_ITER = 10_000
# iterations of the lower series between convergence checks
_BLOCK = 8
# bytes of each (z, order) array of one chunk of the Kummer split: below
# glibc's 128 KiB mmap threshold, numpy's temporaries reuse heap pages
# instead of faulting fresh ones in on every call
_CHUNK_BYTES = 2**16
# bytes of each 2-D run of the continued fraction's level terms: runs wider
# than the first-level cache lose to terms taken one level at a time
_LEVEL_BYTES = 2**14
_EPS = 1e-16
# relative gap between the continued fraction at depths d and d + 8 it accepts
_CF_TOL = 4.0 * 2.0**-52
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


def _log(z):
    """np.log, with a complex array's logarithm taken as log|z| + i arg z.

    Two real ufuncs cost about a quarter of numpy's complex log per element.
    They match it within 2e-15 max(1, |log z|) on the principal branch, with
    its zeros, infinities, NaNs and warnings.  Real arrays keep np.log's bits.
    """
    if not np.iscomplexobj(z):
        return np.log(z)
    out = np.empty(z.shape, dtype=complex)
    out.real = np.log(np.abs(z))
    out.imag = np.arctan2(z.imag, z.real)
    return out


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
    out = (w - 0.5) * _log(w) - w + 0.5 * _LN_2PI + _stirling_tail(w) - _log(prod)
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
            + _log(-np.expm1(2j * math.pi * g * (near + 1j * y)))
            - np.log(2j)
            + 1j * math.pi * up
        )
        out[left] = math.log(math.pi) - log_sin - out[left]
    return out


def _gamma_cf(s, x):
    """Scaled continued-fraction factors C with Gamma(s, x) = x^s e^{-x} C.

    The classical continued fraction
    C = 1/(x+1-s - 1(1-s)/(x+3-s - 2(2-s)/(x+5-s - ...))), evaluated
    backward, elementwise on 1-d arrays of real or complex orders s and
    positive reals x of one length.  Each element starts at the depth
    d = 8 + (86 + 8|Im s|)/x, which bounds the depth the acceptance test
    needs when Re s <= 1 (90-119 at x = 1, 4-5 at x = 1000).  A sweep runs
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
    depth = np.fmin(np.ceil(8.0 + (86.0 + 8.0 * np.abs(np.imag(s))) / x), _MAX_CF_ITER)
    todo = np.argsort(-depth, kind="stable")
    out = np.empty(s.shape, dtype=np.result_type(s, x))
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
    evaluated as x^n (x^{-q} - 1)/q when Re q <= 0 and as
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


def _kummer_log_split(nu, z, log_gamma, lower):
    """log U(1, nu + 1, z) through Gamma(nu) minus the lower-gamma series.

    1-d arrays of one length: the orders nu, positive reals z, log
    Gamma(nu) and the scaled lower part e^z z^{-nu} gamma(nu, z).  All
    pieces are kept in log space so very large |Re(nu) * ln z| never
    overflows.
    """
    # log of the scaled e^z z^{-nu} Gamma(nu)
    lg_gamma = log_gamma + z - nu * np.log(z)
    lg_lower = _log(lower)
    d = lg_lower - lg_gamma
    out = np.empty_like(d)
    # Gamma(nu) is negligible next to the lower part
    big = d.real > 36.0
    out[big] = lg_lower[big] + 1j * math.pi + _log(1.0 - np.exp(-d[big]))
    small = d.real < -36.0
    out[small] = lg_gamma[small] - np.exp(d[small])
    mid = ~(big | small)
    w = 1.0 - np.exp(d[mid])
    cancel = np.abs(w) < 1e-8
    if cancel.any():
        raise NumericalError(
            "catastrophic cancellation in Gamma(nu, z) split "
            f"(nu={nu[mid][cancel][0]!r}, z={z[mid][cancel][0]!r})"
        )
    out[mid] = lg_gamma[mid] + _log(w)
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
    # the dispatch tests take each order's quantities once, against a column of z
    nu_row, z_col = nu.ravel(), zs.reshape(-1, 1)
    size = np.abs(nu_row)
    # halving is exact, and 2(z + 1) would overflow above z = 9e307
    x1 = z_col + 1.0
    leading = (nu_row.real <= 0.0) & (size / _LEADING_TERM_NU >= x1)
    kummer = ~leading & (
        (0.5 * np.abs(nu_row.imag) >= x1)
        | (0.5 * nu_row.real >= x1)
        | ((nu_row.real > np.maximum(z_col - 1.0, 0.0)) & (size >= 0.5))
    )
    fraction = ~(leading | kummer) & (z_col >= 1.0)
    anchor = ~(leading | kummer | fraction)
    shape = leading.shape
    v, x = np.broadcast_to(nu_row, shape), np.broadcast_to(z_col, shape)
    out = np.empty(shape, dtype=complex)

    out[leading] = -_log(x[leading] - v[leading])
    # the Kummer split, with log Gamma(nu) taken once per order that some z
    # sends to it, in equal chunks of orders whose (z, order) arrays each fit
    # in _CHUNK_BYTES
    needed = kummer.any(axis=0)
    log_gamma = np.empty(nu_row.size, dtype=complex)
    log_gamma[needed] = _loggamma(nu_row[needed])
    chunks = max(1, -(-16 * kummer.size // _CHUNK_BYTES))
    width = max(1, -(-nu_row.size // chunks))
    for lo in range(0, nu_row.size, width):
        cols = slice(lo, lo + width)
        pick = kummer[:, cols]
        if pick.any():
            order, zk = v[:, cols][pick].astype(complex), x[:, cols][pick]
            out[:, cols][pick] = _kummer_log_split(
                order, zk, np.broadcast_to(log_gamma[cols], pick.shape)[pick],
                _lower_series(order, zk),
            )
    # one continued-fraction pass for the fraction-bound pairs of every z and
    # for the anchors Gamma(nu, 1) of the series, one per distinct order
    n_fraction = np.count_nonzero(fraction)
    orders, order_of = np.unique(v[anchor], return_inverse=True)
    cf = _gamma_cf(
        np.concatenate([v[fraction], orders]),
        np.concatenate([x[fraction], np.ones(orders.size)]),
    )
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


# de Hoog, Knight & Stokes (SIAM J. Sci. Stat. Comput. 3, 1982): the fraction's depth
# M (2M + 1 nodes per window), the damping's aliasing tolerance, a window's top/bottom.
# Of the depths tried (60 to 120), M = 100 is the smallest whose sweep of 1,000 one-user
# betas from 1e10 to 1e20 stayed below 2e-8 of the peak; at M = 60 to 82 the worst read
# 6e-7 to 1e-5, as the fraction amplifies the transform's round-off.  M = 100 needs the
# wide windows: with (top/4, top], 40 points would take three windows and 603 nodes, not 402
DEHOOG_M = 100
DEHOOG_TOL = 1e-16
WINDOW_RATIO = 8.0


def invert_laplace(log_transform, grid):
    """Numerically invert a Laplace transform on a grid of positive, ascending points.

    The grid splits, top first, into windows (top/WINDOW_RATIO, top].  The
    points of a window share its period T = 2 top, damping
    gamma = -ln(DEHOOG_TOL)/(2T) and nodes gamma + i pi k/T, k = 0..2M, on
    which log_transform returns log L (any branch; L analytic on Re s > 0)
    for all windows in one (windows, 2M + 1) array.  One quotient-difference
    table gives every window's fraction coefficients d_n; every point then
    runs the fraction in z = e^{i pi t/T} with de Hoog's improved remainder.
    """
    # bounds[w + 1]:bounds[w] are the points of window w
    bounds = [grid.size]
    while bounds[-1]:
        top = grid[bounds[-1] - 1]
        bounds.append(int(np.searchsorted(grid, top / WINDOW_RATIO, side="right")))
    tops = grid[np.array(bounds[:-1]) - 1]
    window = np.repeat(np.arange(tops.size), -np.diff(bounds))[::-1]
    period = 2.0 * tops
    damping = -math.log(DEHOOG_TOL) / (2.0 * period)
    nodes = damping[:, None] + 1j * math.pi * np.arange(2 * DEHOOG_M + 1) / period[:, None]
    logs = np.broadcast_to(log_transform(nodes), nodes.shape)

    def fail(what, w):
        top = float(tops[w])
        raise LaplaceInversionError(f"{what} (window ({top / WINDOW_RATIO!r}, {top!r}])")

    bad = ~(np.isfinite(logs.real) & np.isfinite(logs.imag))
    if bad.any():
        w, k = np.argwhere(bad)[0]
        fail(f"transform returned a non-finite value at node {complex(nodes[w, k])!r}", w)
    shift = logs.real.max(axis=1)
    a = np.exp(logs - shift[:, None])
    a[:, 0] *= 0.5
    with np.errstate(all="ignore"):
        # q^(1)_r = a_{r+1}/a_r, e^(k)_r = q^(k)_{r+1} - q^(k)_r + e^(k-1)_{r+1} and
        # q^(k+1)_r = q^(k)_{r+1} e^(k)_{r+1}/e^(k)_r give d_{2k-1} = -q^(k)_0, d_{2k} = -e^(k)_0
        q = a[:, 1:] / a[:, :-1]
        e = q[:, 1:] - q[:, :-1]
        cols = [-a[:, 0], q[:, 0], e[:, 0]]
        for _ in range(1, DEHOOG_M):
            q = q[:, 1:-1] * e[:, 1:] / e[:, :-1]
            e = q[:, 1:] - q[:, :-1] + e[:, 1:-1]
            cols += [q[:, 0], e[:, 0]]
        d = -np.stack(cols)
        # a coefficient below 1e-14 ends the fraction: its tail would move the
        # value by about that much, and is 0/0 where a window sees a point mass
        d[np.logical_or.accumulate(np.abs(d) < 1e-14, axis=0)] = 0.0
        # rows A_n and B_n = X_{n-1} + d_n z X_{n-2}, from A_{-1}, A_0 = 0, d_0 and B = 1
        z = np.exp(1j * math.pi * grid / period[window])
        ones = np.ones(grid.size, dtype=complex)
        prev, cur = np.stack([0.0 * ones, ones]), np.stack([d[0].take(window), ones])
        for row in d[1:-1]:
            np.multiply(prev, row.take(window) * z, out=prev)
            prev += cur
            prev, cur = cur, prev
        # the improved remainder stands in for the last step's d_2M z
        h = 0.5 * (1.0 + (d[-2] - d[-1]).take(window) * z)
        num, den = cur + h * (np.sqrt(1.0 + d[-1].take(window) * z / (h * h)) - 1.0) * prev
        out = np.exp(shift[window] + damping[window] * grid) / period[window] * (num / den).real
    bad = ~np.isfinite(out)
    if bad.any():
        # a zero or non-finite divisor anywhere in a window's table spreads to its d_n
        fail("the quotient-difference table met a zero or non-finite divisor", window[bad][0])
    return out
