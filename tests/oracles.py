"""Reference functions that only the tests call.

The quadrature of the per-user capacity, the Gompertz-Makeham density and
the Nakagami component density are independent of the code under test.
upper_incomplete_gamma and tricomi_u1 are real-argument views of the
special-function engine, so its properties can be checked against
scipy.special and quadrature over the domains they promise.

sum_capacity_mgf and mgf_mean_check are the gated capacity MGF and the
central difference of it at the origin, which reproduces the closed-form
mean; exp_scaled_e1 is e^x E_1(x) from the engine at nu = 0.  None of the
three is on a production path, so they live here with the checks that
call them.

scalar_log_scaled_gamma, scalar_density_transform and scalar_invert_laplace
are the scalar engine, capacity transform and Euler inversion that the
array versions in esrc replaced, kept as the reference the array results
are compared with: one (nu, z) pair, one node and one grid point at a
time.  The scalar engine picks the Kummer split when |Im nu| or Re nu
reach 2(z + 1), or when Re nu > max(z - 1, 0) and |nu| >= 1/2; otherwise
the Lentz fraction when z >= 1 or |Re nu ln z| > 700; otherwise the
anchor series, unscaled.  Its one change since it was replaced is the
fraction's cutoff, z >= 1 instead of z >= 0.05, which follows the array
engine's: below z = 1 the anchor series is the more accurate kernel.
That rule sends real orders -3.7 <= nu < 0 at tiny z with
|nu ln z| > 700 to a fraction that stalls, and its fraction does not
converge at the real Euler node of some grid points below 1e-58.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.special import loggamma as _cx_loggamma

from esrc import specfun
from esrc.analytic import _log_mgf
from esrc.specfun import (
    EULER_A,
    EULER_NODES,
    LN2,
    LaplaceInversionError,
    NumericalError,
    _log_scaled_gamma,
)

_MGF_STEP = 1e-4


def per_user_capacity_quadrature(beta):
    """Independent oracle: int_0^inf log2(1 + beta*u) e^{-u} du by quadrature."""
    if not (beta > 0.0 and np.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    value, abserr = quad(
        lambda u: np.log1p(beta * u) * np.exp(-u),
        0.0,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    if abserr > 1e-9 * max(1.0, abs(value)):
        raise NumericalError(
            f"quadrature error estimate {abserr:.2e} too large for beta={beta!r}"
        )
    return value / LN2


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
    return math.exp(_log_scaled_gamma(s, x).real + s * math.log(x) - x)


def tricomi_u1(b, z):
    """Tricomi U(1, b, z) = e^z z^{1-b} Gamma(b - 1, z) for real b, z > 0."""
    b = float(b)
    z = float(z)
    if not z > 0.0 or math.isinf(z):
        raise ValueError(f"tricomi_u1 requires finite z > 0, got {z!r}")
    return math.exp(_log_scaled_gamma(b - 1.0, z).real)


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


def nakagami_component_pdf(x, params):
    """Density of one quadrature: |x|^(m-1) exp(-m x^2 / omega), normalized."""
    m, omega = params.m, params.omega
    x = np.asarray(x, dtype=float)
    log_norm = 0.5 * m * np.log(m / omega) - gammaln(0.5 * m)
    with np.errstate(divide="ignore"):
        log_pdf = log_norm + (m - 1.0) * np.log(np.abs(x)) - m * x * x / omega
    return np.exp(log_pdf)


def sum_capacity_mgf(s, b):
    """MGF E[e^{s*xi}] of the sum capacity xi, for Re(s) >= -ln 2.

    Factors over users because ZF processing decorrelates the per-user
    SINRs; each factor is U(1, 2 + s/ln2, 1/beta_k)/beta_k.
    """
    s_complex = complex(s)
    if s_complex.real < -LN2:
        raise ValueError(
            f"s={s!r} lies left of the convergence boundary Re(s) >= -ln 2"
        )
    value = np.exp(_log_mgf(s_complex, b))
    if isinstance(s, complex):
        return complex(value)
    return float(value.real)


def mgf_mean_check(b):
    """|dM/ds| at s = 0 by central difference; numerically verifies the closed form."""
    forward = sum_capacity_mgf(_MGF_STEP, b)
    backward = sum_capacity_mgf(-_MGF_STEP, b)
    return abs(forward - backward) / (2.0 * _MGF_STEP)


def exp_scaled_e1(x):
    """Scaled exponential integral e^x * E_1(x) = U(1, 1, x).

    The engine is scaled, so arguments far beyond the e^{-x} underflow
    point (x > 700) are fine.
    """
    x = float(x)
    if not x > 0.0 or math.isinf(x):
        raise ValueError(f"exp_scaled_e1 requires finite x > 0, got {x!r}")
    if x >= 1.0:
        # the engine's kernel here, without the round trip through the log,
        # which costs up to |log x| ulps
        return float(specfun._lentz_cf(np.zeros(1), np.array([x]))[0])
    return math.exp(_log_scaled_gamma(0.0, x).real)


# --- the scalar engine and inversion, verbatim ---------------------------------

_MAX_CF_ITER = 60_000
_MAX_SERIES_ITER = 10_000
_EPS = 1e-16


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


def scalar_log_scaled_gamma(nu, z):
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
    if z >= 1.0 or abs(nu.real) * abs(math.log(z)) > 700.0:
        # The continued fraction also covers deeply negative orders at
        # small z, where the anchor series' z^nu nears the float limit.
        return cmath.log(_lentz_cf(nu, z))
    return z - nu * math.log(z) + cmath.log(_anchor_series(nu, z))


def _check_node(value, node, point):
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise LaplaceInversionError(
            f"transform returned a non-finite value at node {node!r} (t={point!r})"
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


def scalar_invert_laplace(transform, grid):
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


def scalar_log_mgf(s, b):
    """log M(s) summed over users; s may be complex (imag parts mod 2*pi*k)."""
    nu = 1.0 + complex(s) / LN2  # U(1, 2 + s/ln2, z) = U(1, nu + 1, z)
    return sum(scalar_log_scaled_gamma(nu, 1.0 / beta) - np.log(beta) for beta in b.betas)


def scalar_density_transform(b):
    """Laplace transform of the capacity density: L(s) = M(-s), complex-capable.

    The Euler inversion nodes have large positive real parts, so L is
    evaluated deep in M's left half-plane through the log-space
    incomplete-gamma machinery rather than the gated sum_capacity_mgf.
    """

    def transform(s):
        return complex(np.exp(scalar_log_mgf(-complex(s), b)))

    return transform
