"""Oracle checks for the special-function kernel.

Expected values marked as frozen were produced by the independent oracle
shown next to them (adaptive quadrature or recurrence constructions that
never call the code under test) and then pinned as literals.
"""

import cmath
import hashlib
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from esrc import specfun
from esrc.analytic import BetaVector, default_capacity_grid
from esrc.specfun import (
    DEHOOG_TOL,
    LN2,
    WINDOW_RATIO,
    _STIRLING_MIN,
    LaplaceInversionError,
    NumericalError,
    _gamma_cdf,
    _gamma_cf,
    _log,
    _log_scaled_gamma,
    _loggamma,
    _lower_series,
    invert_laplace,
)
from oracles import (
    exp_scaled_e1,
    gm_pdf,
    per_user_capacity_quadrature,
    scalar_log_scaled_gamma,
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
    def test_exponential_case(self):
        # s = 1 reduces to e^{-x}
        assert math.isclose(upper_incomplete_gamma(1.0, 2.0), math.exp(-2.0), rel_tol=1e-14)

    def test_e1_value_against_quadrature(self):
        got = upper_incomplete_gamma(0.0, 1.0)
        assert math.isclose(got, quad_upper_gamma(0.0, 1.0), rel_tol=1e-11)
        assert math.isclose(got, 0.21938393439552045, rel_tol=1e-12)  # frozen oracle value

    def test_integration_by_parts_value(self):
        # G(2, x) = (x + 1) e^{-x}
        assert math.isclose(upper_incomplete_gamma(2.0, 0.5), 1.5 * math.exp(-0.5),
                            rel_tol=1e-13)

    def test_recurrence_residual_grid(self):
        # G(s+1, x) = s G(s, x) + x^s e^{-x} across orders spanning the
        # series, continued-fraction, and anchor branches.
        for s in np.linspace(-5.0, 5.0, 21):
            for x in (0.01, 0.1, 0.7, 1.0, 2.5, 10.0, 50.0):
                lhs = upper_incomplete_gamma(s + 1.0, x)
                rhs = s * upper_incomplete_gamma(s, x) + math.exp(s * math.log(x) - x)
                assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1e-300), (s, x)

    def test_matches_quadrature_on_mixed_grid(self):
        for s in (-7.5, -2.0, -0.5, 0.0, 0.3, 1.7, 5.0, 12.0):
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
    def test_reciprocal_identity(self):
        # U(1, 2, z) * z = 1 exactly in the scaled evaluation
        for z in (0.01, 0.3, 1.0, 2.5, 40.0, 900.0):
            assert abs(tricomi_u1(2.0, z) * z - 1.0) < 1e-12

    def test_e1_reduction(self):
        assert math.isclose(tricomi_u1(1.0, 1.0), math.e * quad_upper_gamma(0.0, 1.0),
                            rel_tol=1e-11)
        assert math.isclose(tricomi_u1(1.0, 1.0), 0.5963473623231945, rel_tol=1e-12)

    def test_generic_point_against_quadrature(self):
        val = quad_tricomi_u1(2.7, 1.4)
        assert math.isclose(tricomi_u1(2.7, 1.4), val, rel_tol=1e-10)
        assert math.isclose(val, 1.0260071188322253, rel_tol=1e-12)  # frozen

    def test_large_z_scaled(self):
        assert math.isfinite(tricomi_u1(1.5, 2000.0))

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


class TestScaledGammaEngine:
    # Gamma(nu, z) at Euler-line nodes nu = 1 - (A/(2t) + i k pi/t)/ln 2 of
    # the capacity transform, z = 1/beta, one node per kernel of the
    # dispatch.  Frozen from mpmath.gammainc(mpmath.mpc(nu), mpmath.mpf(z))
    # at mpmath.mp.dps = 30.
    NODES = [
        # t = 16, k = 20, beta = 8.36: Kummer split through |Im nu|
        (0.17045035148884613 - 5.665450177283992j, 0.11961722488038279,
         -0.056972949897547092 - 0.093453209043143246j),
        # t = 2, k = 55, beta = 9.18: Kummer split far up the line
        (-5.636397188089231 - 124.63990390024783j, 0.10893246187363835,
         -161.24098338132274 - 1914.2773233203965j),
        # t = 40, k = 1, beta = 8.36: Kummer split through Re nu > z - 1
        (0.6681801405955384 - 0.11330900354567984j, 0.11961722488038279,
         0.99937797139752149 + 0.057476122873808713j),
        # t = 5, k = 1, beta = 8.36: continued fraction
        (-1.6545588752356926 - 0.9064720283654387j, 0.11961722488038279,
         1.1333874913699509 + 14.546270027664238j),
        # t = 5, k = 1, beta = 50: anchor series
        (-1.6545588752356926 - 0.9064720283654387j, 0.02,
         -331.25274647218367 + 27.207609309597380j),
        # t = 13.27, k = 0, beta = 8.36: real order next to the pole at 0
        (-0.00021057846107486178 + 0j, 0.11961722488038279, 1.6627191987373211 + 0j),
    ]

    @pytest.mark.parametrize("nu, z, expected", NODES)
    def test_frozen_euler_nodes(self, nu, z, expected):
        got = cmath.exp(_log_scaled_gamma(nu, z) + nu * math.log(z) - z)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_array_matches_frozen_nodes_in_one_call(self):
        # every kernel's share of one array, one row per z
        nu = np.array([node[0] for node in self.NODES])
        z = sorted({node[1] for node in self.NODES})
        got = _log_scaled_gamma(nu, np.array(z))
        assert got.shape == (len(z), len(self.NODES))
        for col, (node_nu, node_z, expected) in enumerate(self.NODES):
            row = z.index(node_z)
            value = cmath.exp(got[row, col] + node_nu * math.log(node_z) - node_z)
            assert abs(value - expected) <= 1e-12 * abs(expected)

    def test_pdf_10db_nodes_against_mpmath(self):
        # 300 (user, node) pairs of the benchmark's 40-point table, whose two
        # windows share 402 nodes, drawn with seed 7, and every (user, order)
        # pair that takes the anchor series: 8 orders, each for all 8 users.
        # The worst error is 9.7e-15, at a Kummer node, and 7.3e-16 on the
        # anchor pairs
        betas = np.array([9.18, 8.36, 8.41, 8.35, 8.36, 8.34, 8.31, 9.14])
        grid = default_capacity_grid(BetaVector(betas), points=40)
        # the nodes the inversion asks for
        asked = []

        def record(s):
            asked.append(s)
            return -np.log(s + 1.0)

        invert_laplace(record, grid)
        nu = (1.0 - asked[0] / LN2).ravel()
        z = 1.0 / betas
        got = _log_scaled_gamma(nu, z)
        pick = np.random.default_rng(7).choice(got.size, 300, replace=False)
        # below z = 1 the orders that neither the Kummer split nor the
        # leading term takes go to the anchor series
        x1 = z[:, None] + 1.0
        anchor = (
            (0.5 * np.abs(nu.imag) < x1)
            & (0.5 * nu.real < x1)
            & ((nu.real <= 0.0) | (np.abs(nu) < 0.5))
        )
        assert np.count_nonzero(anchor) == 64
        assert np.unique(np.broadcast_to(nu, got.shape)[anchor]).size == 8
        pick = np.union1d(pick, np.flatnonzero(anchor))
        err = np.zeros(got.shape)
        with mpmath.workdps(30):
            for row, col in zip(*np.unravel_index(pick, got.shape)):
                x = mpmath.mpf(z[row])
                order = mpmath.mpc(nu[col])
                ref = mpmath.log(mpmath.gammainc(order, x)) + x - order * mpmath.log(x)
                err[row, col] = float(abs(mpmath.exp(got[row, col] - ref) - 1))
        assert err.max() <= 5e-14
        assert err[anchor].max() <= 1.5e-15


@settings(derandomize=True, max_examples=200, deadline=None, report_multiple_bugs=False)
@given(
    re=st.floats(min_value=-3.0, max_value=3.0),
    im=st.floats(min_value=-3.0, max_value=3.0),
    z=st.floats(min_value=0.05, max_value=1.0, exclude_max=True),
)
def test_small_z_against_mpmath(re, im, z):
    # below z = 1 every order the Kummer split does not take goes to the
    # anchor series
    nu = complex(re, im)
    assume(abs(nu) <= 3.0)
    got = complex(_log_scaled_gamma(nu, z))
    with mpmath.workdps(30):
        x, order = mpmath.mpf(z), mpmath.mpc(nu)
        ref = mpmath.log(mpmath.gammainc(order, x)) + x - order * mpmath.log(x)
        assert float(abs(mpmath.exp(got - ref) - 1)) <= 5e-14


def fraction_by_gammainc(s, x):
    """Oracle: C(s, x) = e^x x^-s Gamma(s, x) from mpmath's gammainc at 40 digits."""
    with mpmath.workdps(40):
        order, arg = mpmath.mpc(s), mpmath.mpf(x)
        return complex(mpmath.gammainc(order, arg) * mpmath.exp(arg) * arg**-order)


def fraction_by_quadrature(s, x):
    """Oracle: C(s, x) = int_0^inf (1 + u)^(s - 1) e^(-x u) du by mpmath at 40 digits.

    mpmath's gammainc is wrong here for Re s below about -400 once x passes
    about 100, at 40 digits and at 300 (1e-12 to 1e181 relative, or inf).
    """
    with mpmath.workdps(40):
        order, arg = mpmath.mpc(s), mpmath.mpf(x)
        return complex(mpmath.quad(
            lambda u: mpmath.exp((order - 1) * mpmath.log1p(u) - arg * u),
            [0, 1 / arg, 10 / arg, mpmath.inf],
        ))


# The continued fraction C(s, x) against mpmath, on the box of the anchors
# Gamma(s, 1) and on the region the dispatch sends to the fraction.  Over
# 400 random points of each, the worst errors measured are 2.7e-16 and
# 4.5e-16, and 1.1e-15 on 400 more within about 5 of Re s = x - 1; a
# forward Lentz iteration read 9.2e-15, 1.8e-15 and 5.9e-15 there.
@settings(derandomize=True, max_examples=150, deadline=None, report_multiple_bugs=False)
@given(
    re=st.floats(min_value=-40.0, max_value=0.5),
    im=st.floats(min_value=-2.25, max_value=2.25),
)
def test_fraction_anchors_against_mpmath(re, im):
    s = complex(re, im)
    got = complex(_gamma_cf(np.array([s]), np.ones(1))[0])
    assert abs(got / fraction_by_gammainc(s, 1.0) - 1.0) <= 2e-15


@settings(derandomize=True, max_examples=150, deadline=None, report_multiple_bugs=False)
@given(
    x=st.floats(min_value=1.0, max_value=1e3),
    below=st.floats(min_value=0.0, max_value=1.0),
    im=st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_fraction_region_against_mpmath(x, below, im):
    # Re s from max(x - 1, 0) down to -1e3, |Im s| < 2(x + 1)
    top = max(x - 1.0, 0.0)
    s = complex(top - below * (top + 1e3), im * 2.0 * (x + 1.0))
    got = complex(_gamma_cf(np.array([s]), np.array([x]))[0])
    assert abs(got / fraction_by_quadrature(s, x) - 1.0) <= 2e-15


def test_fraction_batch_keeps_each_elements_bits():
    # every element runs at its own depth, so its neighbours, their order
    # and their retries change none of its bits.  Orders near x - 1 need
    # more than the first depth, real orders run in real arithmetic
    rng = np.random.default_rng(11)
    x = np.exp(rng.uniform(0.0, math.log(1e3), 120))
    real = np.maximum(x - 1.0, 0.0) - rng.exponential(30.0, x.size)
    s = real + 1j * rng.uniform(-2.0, 2.0, x.size) * (x + 1.0) * (rng.random(x.size) < 0.7)
    for orders in (s, real):
        batch = _gamma_cf(orders, x)
        assert np.array_equal(batch[::-1], _gamma_cf(orders[::-1], x[::-1]))
        for value, si, xi in zip(batch, orders, x):
            assert value == _gamma_cf(np.array([si]), np.array([xi]))[0]


def test_fraction_that_does_not_converge_names_its_order(monkeypatch):
    # x = 1 needs about 100 levels
    monkeypatch.setattr(specfun, "_MAX_CF_ITER", 16)
    message = r"did not converge \(s=.*\(-0\.5\+1j\), x=.*\(1\.0\)\)"
    with pytest.raises(NumericalError, match=message):
        _gamma_cf(np.array([-0.5 + 1j]), np.ones(1))


def test_negative_integer_orders_against_mpmath():
    # e^mu mu^k Gamma(-k, mu), the terms of the Gamma(L) capacity integral
    # e^mu sum_{k < L} mu^k Gamma(-k, mu); the worst error on this grid is
    # 5.7e-15, at k = 1 and mu = 1.26
    ks = np.arange(33)
    mus = np.logspace(-3.0, 2.0, 51)
    got = np.exp(_log_scaled_gamma(-ks.astype(float), mus).real)
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
    capacity = np.cumsum(np.exp(logs.real), axis=1)
    for row, beta in enumerate(betas):
        # sharing one call with the other z changes no bit of a row
        assert np.array_equal(logs[row], _log_scaled_gamma(orders, mus[row]))
        for order in range(1, 34):
            ref = LN2 * per_user_capacity_quadrature(beta, order)
            assert abs(capacity[row, order - 1] / ref - 1.0) <= 1e-12, (beta, order)


def straddling_orders(z):
    """Orders just inside and just outside each Kummer boundary of every z.

    The boundaries are |Im nu| = 2(z + 1), Re nu = 2(z + 1), Re nu = max(z - 1, 0)
    and, while z < 3/2, |nu| = 1/2.  Each side sits 1e-6 (relative) from it.
    """
    orders = []
    for zk in z:
        bound, edge = 2.0 * (zk + 1.0), max(zk - 1.0, 0.0)
        for side in (1.0 - 1e-6, 1.0 + 1e-6):
            orders += [complex(re, sign * bound * side) for re in (-2.5, 0.3) for sign in (1, -1)]
            orders += [complex(bound * side, im) for im in (0.0, 0.7)]
            orders += [complex(edge * side + (side - 1.0), im) for im in (0.9, -0.9)]
            if edge > 0.5:
                orders.append(complex(edge * side, 0.0))
            if zk < 1.5:
                orders.append(0.5 * side * cmath.exp(0.3j))
    return np.array(orders)


@pytest.mark.parametrize(
    "z",
    [
        np.logspace(-6.0, 6.0, 8),
        1.0 / np.array([9.18, 8.36, 8.41, 8.35, 8.36, 8.34, 8.31, 9.14]),
        np.array([0.37]),
        1.0 / np.linspace(7.9, 9.3, 64),
    ],
    ids=["spread", "10db", "one-row", "64-rows"],
)
def test_kummer_boundaries_against_the_scalar_engine(z):
    # orders on both sides of every Kummer boundary of the rows: the spread
    # case's z span twelve decades, and the 64-row case straddles the
    # boundaries of four of its rows.
    # A logarithm of size L carries a rounding error near L 2^-52 in any
    # float engine (at nu = 747.5 + 0.7i, log Gamma(nu) is about 4200), so
    # the bound scales with max(1, L).  The worst case measured is 1.3e-14
    rows = z if z.size < 64 else z[::21]
    nu = straddling_orders(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _log_scaled_gamma(nu, z)
    ref = np.array([[scalar_log_scaled_gamma(order, zk) for order in nu] for zk in z])
    err = np.abs(np.exp(got - ref) - 1.0) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= 5e-14
    # every pair is evaluated alone: sharing one call with the other z
    # changes no bit of a row
    for row, zk in enumerate(z):
        assert np.array_equal(got[row], _log_scaled_gamma(nu, zk)), zk


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


class TestInvertLaplace:
    # invert_laplace takes log L: log 1/(s + 1) is the transform of e^-t
    def test_exponential_pair_euler(self):
        grid = np.linspace(0.1, 10.0, 25)
        got = invert_laplace(lambda s: -np.log(s + 1.0), grid)
        assert np.max(np.abs(got - np.exp(-grid))) < 1e-10

    def test_oscillatory_pair(self):
        got = invert_laplace(lambda s: -np.log(s * s + 1.0), np.array([math.pi / 2.0]))
        assert abs(got[0] - 1.0) < 1e-10

    def test_round_trip(self):
        # invert, then transform forward by quadrature on the grid
        grid = np.linspace(1e-5, 30.0, 4000)
        dens = invert_laplace(lambda s: -np.log(s + 1.0), grid)
        for s in (0.5, 1.0, 2.0):
            fwd = np.trapezoid(np.exp(-s * grid) * dens, grid)
            assert math.isclose(fwd, 1.0 / (s + 1.0), rel_tol=2e-4)

    def test_non_finite_transform_raises(self):
        # the first node of the only window: s = gamma = -ln(tol)/(2T), T = 2
        node = complex(-math.log(DEHOOG_TOL) / 4.0, 0.0)
        with pytest.raises(
            LaplaceInversionError,
            match=re.escape(f"at node {node!r} (window ({1.0 / WINDOW_RATIO!r}, 1.0])"),
        ):
            invert_laplace(lambda s: np.full(s.shape, np.nan), np.array([0.5, 1.0]))

    def test_zero_divisor_in_the_table_raises(self):
        # log L = -1000 at the lower window's third node (damping 921
        # against the top window's 9.2) underflows its scaled value to 0,
        # and the quotients a_3/a_2 divide by it
        def log_transform(s):
            hole = (s.real > 100.0) & np.isclose(s.imag, 100.0 * math.pi)
            return np.where(hole, -1000.0, -np.log(s + 1.0))

        with pytest.raises(
            LaplaceInversionError,
            match=re.escape(
                f"zero or non-finite divisor (window ({0.01 / WINDOW_RATIO!r}, 0.01])"
            ),
        ):
            invert_laplace(log_transform, np.array([0.01, 1.0]))

    def test_point_mass_ends_the_fraction(self):
        # L = 1, a point mass at 0, has a rational series: the table meets
        # 0/0 past its third coefficient, which is 0 and ends the fraction.
        # On t > 0 the density is 0
        got = invert_laplace(lambda s: np.zeros(s.shape), np.linspace(0.5, 4.0, 8))
        assert np.max(np.abs(got)) < 1e-12


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
    s=st.floats(min_value=0.0, max_value=20.0, exclude_min=True),
    x=st.floats(min_value=1e-6, max_value=700.0),
)
def test_upper_incomplete_gamma_matches_scipy(s, x):
    # scipy's regularized gammaincc is defined for s > 0 only
    q = special.gammaincc(s, x)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = q * special.gamma(s)
    assume(_normal(q) and _normal(ref))
    assert math.isclose(upper_incomplete_gamma(s, x), ref, rel_tol=1e-12)


@ORACLE_SETTINGS
@given(
    b=st.floats(min_value=-50.0, max_value=50.0),
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
    re=st.floats(min_value=-1e4, max_value=1e4),
    im=st.floats(min_value=-1e4, max_value=1e4),
)
def test_loggamma_matches_scipy(re, im):
    z = complex(re, im)
    pole = min(0.0, round(re))
    assume(abs(z - pole) >= 1e-3)
    ref = complex(special.loggamma(z))
    diff = complex(_loggamma(np.array([z]))[0]) - ref
    # any branch: compare modulo 2 pi i
    diff = complex(diff.real, math.remainder(diff.imag, 2.0 * math.pi))
    assert abs(diff) <= 2e-14 * max(1.0, abs(ref))


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
    nu = rng.uniform(-3.0, 3.0, 64) + 1j * rng.uniform(-30.0, 30.0, 64)
    y = rng.gamma(2.5, size=2500)
    series = _lower_series(25.0, x)
    kummer = _lower_series(nu, 0.9)
    assert np.array_equal(series, _lower_series(np.full(x.size, 25.0), x))
    assert np.array_equal(kummer, _lower_series(nu, np.full(nu.size, 0.9)))
    assert digest(series) == "701e19c4e94d28b16662a35ce61af01a0f30c96c0e4d19aee5cbfacbf088981f"
    assert digest(kummer) == "56103419fd9fb3da2053d2d3a7f3eb925199b9f6e7891f81d4ea9c945d285dd0"
    assert digest(_gamma_cdf(25.0, x)) == (
        "2d8faf374842ddc81434a2dc542d16b020631b4675cf35ea86d383ffbec4438c"
    )
    assert digest(_gamma_cdf(2.5, y)) == (
        "1a8a2b639fe31a6bb1e38df06d8be196956af11e366f881b6f57095f26171371"
    )
