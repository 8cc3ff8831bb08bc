"""Oracle checks for the special-function kernel.

Expected values marked as frozen were produced by the independent oracle
shown next to them (adaptive quadrature or recurrence constructions that
never call the code under test) and then pinned as literals.
"""

import cmath
import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from esrc import specfun
from esrc.specfun import (
    LN2,
    _STIRLING_MIN,
    NumericalError,
    _gamma_cdf,
    _gamma_cf,
    _log,
    _log_scaled_gamma,
    _lower_series,
)
from oracles import (
    exp_scaled_e1,
    gm_pdf,
    per_user_capacity_quadrature,
    tricomi_u1,
    upper_incomplete_gamma,
)


def quad_upper_gamma(s, x):
    """Oracle: adaptive quadrature of the defining integral.

    For x >= 1 the substitution t = x(1 + v) factors out the exact power
    term so the quadrature runs on a well-scaled integrand.  For
    strongly negative orders at tiny x the integrand spans too many
    decades for quadrature, so the value is anchored at order s + k
    (integrable regime) and carried down by the exact recurrence
    G(s-1, x) = (G(s, x) - x^{s-1} e^{-x}) / (s - 1), whose power term
    dominates and keeps the construction well conditioned.
    """
    if s <= 0.5:
        # substituting t = x u maps the integral onto [1, inf) with a bounded
        # integrand and factors the steep power term out exactly
        j, _ = quad(lambda u: math.exp(-x * u) * u ** (s - 1.0), 1.0, np.inf,
                    epsabs=0.0, epsrel=1e-13, limit=400)
        return math.exp(s * math.log(x)) * j
    if x >= 1.0:
        j, _ = quad(lambda v: (1.0 + v) ** (s - 1.0) * math.exp(-x * v), 0, np.inf,
                    epsabs=1e-16, epsrel=1e-13, limit=400)
        return math.exp(s * math.log(x) - x) * j
    val, err = quad(lambda t: t ** (s - 1.0) * math.exp(-t), x, np.inf,
                    epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


def quad_tricomi_u1(b, z):
    """Oracle: U(1, b, z) = int_0^inf e^{-z t} (1 + t)^{b-2} dt by quadrature."""
    val, _ = quad(lambda t: math.exp(-z * t) * (1.0 + t) ** (b - 2.0), 0, np.inf,
                  epsabs=0.0, epsrel=1e-13, limit=400)
    return val


class TestUpperIncompleteGamma:
    def test_e1_value_against_quadrature(self):
        got = upper_incomplete_gamma(0.0, 1.0)
        assert math.isclose(got, quad_upper_gamma(0.0, 1.0), rel_tol=1e-11)
        assert math.isclose(got, 0.21938393439552045, rel_tol=1e-12)  # frozen oracle value

    def test_recurrence_residual_grid(self):
        # G(s+1, x) = s G(s, x) + x^s e^{-x} across orders s + 1 <= 0 and x
        # on both the continued-fraction and the anchor side of x = 1.
        for s in np.linspace(-5.0, -1.0, 9):
            for x in (0.01, 0.1, 0.7, 1.0, 2.5, 10.0, 50.0):
                lhs = upper_incomplete_gamma(s + 1.0, x)
                rhs = s * upper_incomplete_gamma(s, x) + math.exp(s * math.log(x) - x)
                assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1e-300), (s, x)

    def test_matches_quadrature_on_mixed_grid(self):
        for s in (-7.5, -2.0, -0.5, -0.3, 0.0):
            for x in (1e-6, 0.05, 0.9, 1.5, 30.0):
                got = upper_incomplete_gamma(s, x)
                ref = quad_upper_gamma(s, x)
                assert math.isclose(got, ref, rel_tol=2e-8), (s, x, got, ref)

    def test_strictly_decreasing_in_x(self):
        xs = np.linspace(0.05, 20.0, 80)
        vals = [upper_incomplete_gamma(0.0, x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            upper_incomplete_gamma(1.0, 0.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(1.0, -3.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(-20.0, 1.0)


class TestExpScaledE1:
    def test_small_argument_log_asymptote(self):
        # series oracle: E_1(x) = -gamma - ln x + x - x^2/4 + x^3/18 - ...
        euler_gamma = 0.5772156649015329
        x = 1e-6
        got = exp_scaled_e1(x)
        oracle = (-euler_gamma - math.log(x) + x - x * x / 4.0 + x**3 / 18.0) * math.exp(x)
        assert math.isclose(got, oracle, rel_tol=1e-13)
        assert math.isclose(got, 13.238309131365003, rel_tol=1e-12)  # frozen

    def test_large_argument_no_overflow(self):
        # asymptotically 1/x - 1/x^2 + 2/x^3
        got = exp_scaled_e1(1000.0)
        assert math.isclose(got, 0.000999001994, rel_tol=1e-9)
        assert math.isfinite(exp_scaled_e1(1e8))
        # far past the e^{-x} underflow only the scaled form gets these right
        for x in (1e10, 1e100, 1e300):
            assert math.isclose(exp_scaled_e1(x), (1.0 - 1.0 / x) / x, rel_tol=1e-12), x

    def test_converges_at_every_scale(self):
        # x e^x E_1(x) = 1 - 1/x + 2/x^2 - ... tends to 1.  The fraction
        # stalled at x = 9e299, where rounding held every step at 1 - 2^-53,
        # further from 1 than the old stop test allowed
        with mpmath.workdps(40):
            for x in np.logspace(1, 307, 400):
                big = mpmath.mpf(x)
                exact = float(big * mpmath.exp(big) * mpmath.e1(big))
                assert abs(x * exp_scaled_e1(x) - exact) <= 1e-15, x
        assert math.isclose(9e299 * exp_scaled_e1(9e299), 1.0, abs_tol=1e-15)

    def test_consistency_with_gamma(self):
        for x in (0.3, 1.0, 4.0, 20.0):
            assert math.isclose(exp_scaled_e1(x) * math.exp(-x),
                                upper_incomplete_gamma(0.0, x), rel_tol=1e-12)

    def test_monotone_decreasing(self):
        xs = np.logspace(-4, 3, 60)
        vals = [exp_scaled_e1(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestTricomiU1:
    def test_e1_reduction(self):
        assert math.isclose(tricomi_u1(1.0, 1.0), math.e * quad_upper_gamma(0.0, 1.0),
                            rel_tol=1e-11)
        assert math.isclose(tricomi_u1(1.0, 1.0), 0.5963473623231945, rel_tol=1e-12)

    # orders -3.7 <= b - 1 < 0 at z where |(b - 1) ln z| > 700, frozen from
    # mpmath.hyperu(1, b, z) at mpmath.mp.dps = 30; U(1, b, z) -> 1/(1 - b)
    @pytest.mark.parametrize(
        "b, z, expected",
        [
            (-1.5, 1e-200, 0.4),
            (-1.0, 1e-200, 0.5),
            (0.03125, 5e-324, 1.0322580645161290),
        ],
    )
    def test_tiny_z_frozen(self, b, z, expected):
        assert math.isclose(tricomi_u1(b, z), expected, rel_tol=1e-12)


@settings(derandomize=True, max_examples=200, deadline=None, report_multiple_bugs=False)
@given(
    nu=st.floats(min_value=-3.0, max_value=0.0),
    z=st.floats(min_value=0.05, max_value=1.0, exclude_max=True),
)
def test_small_z_against_mpmath(nu, z):
    # below z = 1 every order goes to the anchor series
    got = float(_log_scaled_gamma(nu, z))
    with mpmath.workdps(30):
        x, order = mpmath.mpf(z), mpmath.mpf(nu)
        ref = mpmath.log(mpmath.gammainc(order, x)) + x - order * mpmath.log(x)
        assert float(abs(mpmath.exp(got - ref) - 1)) <= 5e-14


def fraction_by_gammainc(s, x):
    """Oracle: C(s, x) = e^x x^-s Gamma(s, x) from mpmath's gammainc at 40 digits."""
    with mpmath.workdps(40):
        order, arg = mpmath.mpf(s), mpmath.mpf(x)
        return float(mpmath.gammainc(order, arg) * mpmath.exp(arg) * arg**-order)


def fraction_by_quadrature(s, x):
    """Oracle: C(s, x) = int_0^inf (1 + u)^(s - 1) e^(-x u) du by mpmath at 40 digits.

    mpmath's gammainc is wrong here for Re s below about -400 once x passes
    about 100, at 40 digits and at 300 (1e-12 to 1e181 relative, or inf).
    """
    with mpmath.workdps(40):
        order, arg = mpmath.mpf(s), mpmath.mpf(x)
        return float(mpmath.quad(
            lambda u: mpmath.exp((order - 1) * mpmath.log1p(u) - arg * u),
            [0, 1 / arg, 10 / arg, mpmath.inf],
        ))


# The continued fraction C(s, x) against mpmath at real orders, on the
# anchors Gamma(s, 1) and on the fraction's region.  On the complex boxes
# these once covered (|Im s| up to 2.25 and 2(x + 1)), 400 random points of
# each read at worst 2.7e-16 and 4.5e-16, and 1.1e-15 on 400 more within
# about 5 of Re s = x - 1; a forward Lentz iteration read 9.2e-15, 1.8e-15
# and 5.9e-15 there.
@settings(derandomize=True, max_examples=150, deadline=None, report_multiple_bugs=False)
@given(s=st.floats(min_value=-40.0, max_value=0.5))
def test_fraction_anchors_against_mpmath(s):
    got = float(_gamma_cf(np.array([s]), np.ones(1))[0])
    assert abs(got / fraction_by_gammainc(s, 1.0) - 1.0) <= 2e-15


@settings(derandomize=True, max_examples=150, deadline=None, report_multiple_bugs=False)
@given(
    x=st.floats(min_value=1.0, max_value=1e3),
    below=st.floats(min_value=0.0, max_value=1.0),
)
def test_fraction_region_against_mpmath(x, below):
    # s from max(x - 1, 0) down to -1e3
    top = max(x - 1.0, 0.0)
    s = top - below * (top + 1e3)
    got = float(_gamma_cf(np.array([s]), np.array([x]))[0])
    assert abs(got / fraction_by_quadrature(s, x) - 1.0) <= 2e-15


def test_fraction_batch_keeps_each_elements_bits():
    # every element runs at its own depth, so its neighbours, their order
    # and their retries change none of its bits.  Orders near x - 1 need
    # more than the first depth
    rng = np.random.default_rng(11)
    x = np.exp(rng.uniform(0.0, math.log(1e3), 120))
    orders = np.maximum(x - 1.0, 0.0) - rng.exponential(30.0, x.size)
    batch = _gamma_cf(orders, x)
    assert np.array_equal(batch[::-1], _gamma_cf(orders[::-1], x[::-1]))
    for value, si, xi in zip(batch, orders, x):
        assert value == _gamma_cf(np.array([si]), np.array([xi]))[0]


def test_fraction_that_does_not_converge_names_its_order(monkeypatch):
    # x = 1 needs about 100 levels
    monkeypatch.setattr(specfun, "_MAX_CF_ITER", 16)
    message = r"did not converge \(s=.*\(-0\.5\), x=.*\(1\.0\)\)"
    with pytest.raises(NumericalError, match=message):
        _gamma_cf(np.array([-0.5]), np.ones(1))


def test_negative_integer_orders_against_mpmath():
    # e^mu mu^k Gamma(-k, mu), the terms of the Gamma(L) capacity integral
    # e^mu sum_{k < L} mu^k Gamma(-k, mu); the worst error on this grid is
    # 5.7e-15, at k = 1 and mu = 1.26
    ks = np.arange(33)
    mus = np.logspace(-3.0, 2.0, 51)
    got = np.exp(_log_scaled_gamma(-ks.astype(float), mus))
    worst = 0.0
    with mpmath.workdps(40):
        for row, mu in enumerate(mus):
            x = mpmath.mpf(mu)
            for k in ks:
                ref = mpmath.exp(x) * x ** int(k) * mpmath.gammainc(-int(k), x)
                worst = max(worst, float(abs(got[row, k] / ref - 1)))
    assert worst <= 1e-13


def test_gamma_capacity_sum_against_quadrature():
    # the Gamma(L) capacity E[ln(1 + X)] = e^mu sum_{k < L} mu^k Gamma(-k, mu),
    # X ~ Gamma(L, scale beta), mu = 1/beta.  Every beta above 1 sends its
    # orders to the anchor series, whose fractions run once per distinct
    # order for all of them; the worst error on this grid is 9.3e-15
    betas = np.logspace(-2.0, 3.0, 21)
    mus = 1.0 / betas
    orders = -np.arange(33.0)
    logs = _log_scaled_gamma(orders, mus)
    capacity = np.cumsum(np.exp(logs), axis=1)
    for row, beta in enumerate(betas):
        # sharing one call with the other z changes no bit of a row
        assert np.array_equal(logs[row], _log_scaled_gamma(orders, mus[row]))
        for order in range(1, 34):
            ref = LN2 * per_user_capacity_quadrature(beta, order)
            assert abs(capacity[row, order - 1] / ref - 1.0) <= 1e-12, (beta, order)


# every complex number with a zero, infinite or NaN part from these
LOG_PARTS = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan)
SPECIAL_LOGS = [
    complex(re, im) for re in LOG_PARTS for im in LOG_PARTS if abs(re) != 1.0 or abs(im) != 1.0
]


class TestLog:
    # magnitudes 1e-300..1e300 at angles in all four quadrants, the
    # negative real axis with either sign of zero, and both axes
    MAGNITUDES = np.logspace(-300.0, 300.0, 61)
    ANGLES = np.linspace(-math.pi, math.pi, 49)[1:-1]

    def test_matches_cmath_on_the_principal_branch(self):
        r = self.MAGNITUDES[:, None]
        z = np.concatenate([
            (r * np.exp(1j * self.ANGLES)).ravel(),
            self.MAGNITUDES + 0j,
            self.MAGNITUDES * 1j,
            -self.MAGNITUDES * 1j,
            [complex(-x, 0.0) for x in self.MAGNITUDES],
            [complex(-x, -0.0) for x in self.MAGNITUDES],
        ])
        got = _log(z)
        for value, log in zip(z, got):
            ref = cmath.log(value)
            assert abs(log - ref) <= 2e-15 * max(1.0, abs(ref)), value
        assert np.all(got[-self.MAGNITUDES.size :].imag == -math.pi)
        assert np.all(got[-2 * self.MAGNITUDES.size : -self.MAGNITUDES.size].imag == math.pi)

    @pytest.mark.parametrize("value", SPECIAL_LOGS, ids=repr)
    def test_zeros_infinities_and_nans_match_numpy(self, value):
        z = np.array([value])
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            got = _log(z)
        with warnings.catch_warnings(record=True) as numpy:
            warnings.simplefilter("always")
            ref = np.log(z)
        for part, ref_part in ((got.real, ref.real), (got.imag, ref.imag)):
            assert np.array_equal(part, ref_part, equal_nan=True)
            assert np.signbit(part) == np.signbit(ref_part) or np.isnan(ref_part)
        assert [(w.category, str(w.message)) for w in ours] == [
            (w.category, str(w.message)) for w in numpy
        ]

    def test_real_arrays_keep_numpy_bits(self):
        x = np.logspace(-300.0, 300.0, 601)
        assert not np.iscomplexobj(_log(x))
        assert np.array_equal(_log(x), np.log(x))


class TestGmPdf:
    def test_value_at_origin(self):
        assert math.isclose(gm_pdf(0.0, LN2, 1.0), LN2, rel_tol=1e-15)

    def test_direct_evaluation(self):
        # lam*kappa*e^{lam x}*exp(kappa - kappa e^{lam x}) at x=1, lam=ln2,
        # kappa=1/2 equals ln2 * e^{-1/2}
        assert math.isclose(gm_pdf(1.0, LN2, 0.5), LN2 * math.exp(-0.5), rel_tol=1e-14)

    def test_normalization(self):
        for kappa in (0.1, 1.0, 5.0):
            mass, _ = quad(lambda x: gm_pdf(x, LN2, kappa), 0, np.inf,
                           epsabs=1e-12, epsrel=1e-11, limit=300)
            assert math.isclose(mass, 1.0, rel_tol=1e-9)

    def test_vectorized(self):
        xs = np.linspace(0.0, 10.0, 64)
        arr = gm_pdf(xs, LN2, 1.0)
        assert arr.shape == xs.shape
        assert np.all(arr >= 0.0)
        assert math.isclose(arr[0], gm_pdf(0.0, LN2, 1.0), rel_tol=1e-15)

    def test_extreme_tail_underflows_to_zero(self):
        assert gm_pdf(5000.0, LN2, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            gm_pdf(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gm_pdf(1.0, LN2, -1.0)
        with pytest.raises(ValueError):
            gm_pdf(-0.5, LN2, 1.0)


# Oracle properties against scipy.special, each over the domain its
# docstring promises and only where the scipy value is a normal float.
ORACLE_SETTINGS = settings(
    derandomize=True, max_examples=300, deadline=None, report_multiple_bugs=False
)


def _normal(value):
    return math.isfinite(value) and abs(value) >= np.finfo(float).tiny


@ORACLE_SETTINGS
@given(x=st.floats(min_value=0.0, max_value=700.0, exclude_min=True))
def test_exp_scaled_e1_matches_scipy(x):
    ref = math.exp(x) * special.exp1(x)
    assume(_normal(ref))
    assert math.isclose(exp_scaled_e1(x), ref, rel_tol=1e-12)


@ORACLE_SETTINGS
@given(
    b=st.floats(min_value=-50.0, max_value=1.0),
    z=st.floats(min_value=0.0, max_value=700.0, exclude_min=True),
)
def test_tricomi_u1_matches_scipy(b, z):
    ref = special.hyperu(1.0, b, z)
    # U(1, b, z) > 0 for z > 0, so a non-positive value is scipy's error
    assume(_normal(ref) and ref > 0.0)
    got = tricomi_u1(b, z)
    # scipy's hyperu loses digits near b = 0 at small z (hyperu(1, 0,
    # 0.001953125) is off by 5e-10); there the quadrature oracle decides
    assert math.isclose(got, ref, rel_tol=1e-10) or math.isclose(
        got, quad_tricomi_u1(b, z), rel_tol=1e-10
    )


@ORACLE_SETTINGS
@given(
    a=st.floats(min_value=0.1, max_value=200.0),
    x=st.floats(min_value=1e-6, max_value=1e4),
)
# x < a 2^-53, where (x - a)/a rounds to -1
@example(a=0.35, x=1e-18)
def test_gamma_cdf_matches_scipy(a, x):
    assert abs(_gamma_cdf(a, np.array([x]))[0] - special.gammainc(a, x)) <= 1e-13


@ORACLE_SETTINGS
@given(
    a=st.floats(min_value=0.05, max_value=500.0),
    logs=st.lists(st.floats(min_value=-12.0, max_value=0.6), min_size=1, max_size=40),
)
@example(a=float(np.nextafter(_STIRLING_MIN, 0.0)), logs=[-1.0, 0.0])
@example(a=_STIRLING_MIN, logs=[-1.0, 0.0])
def test_gamma_cdf_is_a_cdf(a, logs):
    # fit_gamma_ml's goodness-of-fit statistics take these values as they
    # come.  x runs from 1e-12 to 4 times the switch from the series to the
    # fraction at a + 1 + 8 sqrt(a + 1), and a crosses _STIRLING_MIN.  P is
    # in [0, 1] exactly, but it may fall by round-off, within the 1e-13 of
    # test_gamma_cdf_matches_scipy: the series' own rounding, and the jump of
    # either sign where the fraction takes over, read up to 2.7e-14 over 350
    # orders (at a = 7, P falls by 3.3e-16 across the switch)
    switch = a + 1.0 + 8.0 * math.sqrt(a + 1.0)
    edge = [np.nextafter(switch, 0.0), switch, np.nextafter(switch, np.inf)]
    x = np.sort(np.concatenate([switch * 10.0 ** np.array(logs), edge]))
    p = _gamma_cdf(a, x)
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.all(np.diff(p) >= -1e-13)


def test_lower_series_and_gamma_cdf_keep_their_bits():
    # a scalar order or argument is not expanded to the sample's length; the
    # sums must not change by one bit, against the expanded call and against
    # digests pinned from the expanding implementation
    def digest(values):
        return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()

    rng = np.random.default_rng(2024)
    x = rng.gamma(25.0, size=2500)
    assert np.all(x < 25.0 + 1.0 + 8.0 * math.sqrt(26.0))
    # the 128 draws a retired complex-order case took, so that y keeps its digest
    rng.random(128)
    y = rng.gamma(2.5, size=2500)
    series = _lower_series(25.0, x)
    assert np.array_equal(series, _lower_series(np.full(x.size, 25.0), x))
    assert digest(series) == "701e19c4e94d28b16662a35ce61af01a0f30c96c0e4d19aee5cbfacbf088981f"
    assert digest(_gamma_cdf(25.0, x)) == (
        "2d8faf374842ddc81434a2dc542d16b020631b4675cf35ea86d383ffbec4438c"
    )
    assert digest(_gamma_cdf(2.5, y)) == (
        "1a8a2b639fe31a6bb1e38df06d8be196956af11e366f881b6f57095f26171371"
    )
