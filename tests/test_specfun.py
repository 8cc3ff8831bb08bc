"""Oracle checks for the special-function kernel.

Expected values marked as frozen were produced by the independent oracle
shown next to them (adaptive quadrature or recurrence constructions that
never call the code under test) and then pinned as literals.
"""

import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from esrc.analytic import BetaVector, default_capacity_grid
from esrc.specfun import (
    EULER_A,
    EULER_NODES,
    LN2,
    LaplaceInversionError,
    _gamma_cdf,
    _log_scaled_gamma,
    _loggamma,
    invert_laplace,
)
from oracles import (
    exp_scaled_e1,
    gm_pdf,
    scalar_invert_laplace,
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
        # 300 (point, node, user) triples of the benchmark's 40-point table,
        # drawn with seed 7; the worst error is 2.8e-14, at a Kummer node
        betas = np.array([9.18, 8.36, 8.41, 8.35, 8.36, 8.34, 8.31, 9.14])
        grid = default_capacity_grid(BetaVector(betas), points=40)
        k = np.arange(EULER_NODES)
        s = (EULER_A / (2.0 * grid))[:, None] + 1j * (k * math.pi / grid[:, None])
        nu = (1.0 - s / LN2).ravel()
        z = 1.0 / betas
        got = _log_scaled_gamma(nu, z)
        pick = np.random.default_rng(7).choice(got.size, 300, replace=False)
        worst = 0.0
        with mpmath.workdps(30):
            for row, col in zip(*np.unravel_index(pick, got.shape)):
                x = mpmath.mpf(z[row])
                order = mpmath.mpc(nu[col])
                ref = mpmath.log(mpmath.gammainc(order, x)) + x - order * mpmath.log(x)
                worst = max(worst, float(abs(mpmath.exp(got[row, col] - ref) - 1)))
        assert worst <= 5e-14


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
    def test_exponential_pair_euler(self):
        grid = np.linspace(0.1, 10.0, 25)
        got = invert_laplace(lambda s: 1.0 / (s + 1.0), grid)
        assert np.max(np.abs(got - np.exp(-grid))) < 1e-6

    def test_oscillatory_pair(self):
        got = invert_laplace(lambda s: 1.0 / (s * s + 1.0), np.array([math.pi / 2.0]))
        assert abs(got[0] - 1.0) < 1e-6

    def test_round_trip(self):
        # invert, then transform forward by quadrature on the grid
        grid = np.linspace(1e-5, 30.0, 4000)
        dens = invert_laplace(lambda s: 1.0 / (s + 1.0), grid)
        for s in (0.5, 1.0, 2.0):
            fwd = np.trapezoid(np.exp(-s * grid) * dens, grid)
            assert math.isclose(fwd, 1.0 / (s + 1.0), rel_tol=2e-4)

    def test_non_finite_transform_raises(self):
        # the first node of the first point: s = A/(2t) on the real axis
        node = complex(EULER_A / 2.0, 0.0)
        with pytest.raises(LaplaceInversionError, match=re.escape(f"at node {node!r} (t=1.0)")):
            invert_laplace(lambda s: float("nan"), np.array([1.0]))

    def test_matches_the_scalar_summation_exactly(self):
        # same node values in, same bits out: only the loop became arrays
        grid = np.linspace(0.05, 12.0, 37)

        def transform(s):
            s = np.asarray(s)  # numpy arithmetic for the scalar nodes too
            return np.log1p(s) / (s * s + 2.0)

        assert np.array_equal(
            invert_laplace(transform, grid), scalar_invert_laplace(transform, grid)
        )

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            invert_laplace(lambda s: 1.0 / s, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            invert_laplace(lambda s: 1.0 / s, np.array([]))


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
def test_gamma_cdf_matches_scipy(a, x):
    assert abs(_gamma_cdf(a, np.array([x]))[0] - special.gammainc(a, x)) <= 1e-13
