"""Tests for the closed-form capacity, its MGF, and the inverted density."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.signal import fftconvolve

from esrc import analytic
from esrc.analytic import (
    GRID_MAX_BITS,
    BetaVector,
    _density_transform,
    capacity_pdf,
    default_capacity_grid,
    esrc_closed_form,
)
from esrc.specfun import LN2, NumericalError, invert_laplace
from oracles import (
    convolution_pdf,
    gm_pdf,
    mgf_mean_check,
    per_user_capacity_quadrature,
    scalar_density_transform,
    scalar_invert_laplace,
    scalar_log_mgf,
    sum_capacity_mgf,
)

ORACLE_BETAS = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
# the benchmark's eight users at 10 dB
BETAS_10DB = (9.18, 8.36, 8.41, 8.35, 8.36, 8.34, 8.31, 9.14)


class TestBetaVector:
    def test_valid(self):
        b = BetaVector([0.5, 2.0, 7.0])
        assert b.n_users == 3
        assert b.betas == (0.5, 2.0, 7.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BetaVector([])

    def test_rejects_nonpositive_or_nonfinite(self):
        with pytest.raises(ValueError):
            BetaVector([1.0, 0.0])
        with pytest.raises(ValueError):
            BetaVector([1.0, -2.0])
        with pytest.raises(ValueError):
            BetaVector([1.0, np.inf])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            BetaVector(np.ones((2, 2)))


class TestEsrcClosedForm:
    def test_unit_beta(self):
        assert esrc_closed_form(BetaVector([1.0])) == pytest.approx(
            0.8603473822708866, rel=1e-12
        )

    def test_additivity_over_identical_users(self):
        one = esrc_closed_form(BetaVector([1.0]))
        three = esrc_closed_form(BetaVector([1.0, 1.0, 1.0]))
        assert three == pytest.approx(3.0 * one, rel=1e-14)
        assert three == pytest.approx(2.5811, abs=2e-4)

    def test_concatenation_is_additive(self):
        a = BetaVector([0.3, 4.0])
        b = BetaVector([1.7])
        joined = BetaVector([0.3, 4.0, 1.7])
        total = esrc_closed_form(a) + esrc_closed_form(b)
        assert esrc_closed_form(joined) == pytest.approx(total, rel=1e-12)

    def test_vanishes_with_beta(self):
        # capacity ~ beta/ln2 as beta -> 0
        val = esrc_closed_form(BetaVector([1e-8]))
        assert val == pytest.approx(1e-8 / LN2, rel=1e-3)
        assert esrc_closed_form(BetaVector([1e-12])) < val

    def test_strictly_increasing_in_each_beta(self):
        for beta in (0.05, 0.5, 1.0, 8.0, 120.0):
            lo = esrc_closed_form(BetaVector([beta]))
            hi = esrc_closed_form(BetaVector([beta * (1.0 + 1e-6)]))
            assert hi > lo

    def test_jensen_upper_bound(self):
        for beta in ORACLE_BETAS:
            assert esrc_closed_form(BetaVector([beta])) < np.log2(1.0 + beta)

    def test_overflowing_beta_names_culprit(self):
        with pytest.raises(NumericalError, match="1e-320"):
            esrc_closed_form(BetaVector([1e-320]))

    def test_smallest_betas_take_the_limit(self):
        # z = 1/beta near the float limit, where 2(z + 1) overflows; e^z E_1(z)
        # is 1/z to within 1/z^2
        assert esrc_closed_form(BetaVector([1e-308])) == pytest.approx(1e-308 / LN2, rel=1e-12)

    def test_largest_float_beta_takes_the_limit(self):
        # the other end of what BetaVector accepts: e^z E_1(z) is
        # -ln z - gamma + O(z ln z), about 709.2 nats here, so no term overflows
        beta = np.finfo(float).max
        got = esrc_closed_form(BetaVector([beta]))
        assert math.isfinite(got)
        assert got == pytest.approx((math.log(beta) - np.euler_gamma) / LN2, rel=1e-12)


class TestQuadratureOracle:
    def test_matches_closed_form(self):
        for beta in ORACLE_BETAS:
            closed = esrc_closed_form(BetaVector([beta]))
            assert per_user_capacity_quadrature(beta) == pytest.approx(
                closed, rel=1e-8
            ), beta

    def test_jensen_bracket_beta_ten(self):
        val = per_user_capacity_quadrature(10.0)
        assert 2.0 < val < np.log2(11.0)

    def test_small_beta_expansion(self):
        assert per_user_capacity_quadrature(0.01) == pytest.approx(
            0.01 / LN2, rel=0.02
        )

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            per_user_capacity_quadrature(0.0)


class TestSumCapacityMgf:
    def test_normalization_at_zero(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            n = rng.integers(1, 9)
            b = BetaVector(rng.uniform(0.01, 100.0, size=n))
            assert sum_capacity_mgf(0.0, b) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_value_frozen(self):
        # M(-ln2) for beta=1 is E[1/(1+gamma)] = e * Gamma(0, 1)
        val = sum_capacity_mgf(-LN2, BetaVector([1.0]))
        assert val == pytest.approx(0.5963473623231940, abs=1e-12)
        oracle, _ = quad(lambda u: np.exp(-u) / (1.0 + u), 0.0, np.inf)
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_product_structure(self):
        single = sum_capacity_mgf(0.37, BetaVector([1.0]))
        double = sum_capacity_mgf(0.37, BetaVector([1.0, 1.0]))
        assert double == pytest.approx(single**2, rel=1e-12)

    def test_matches_moment_quadrature(self):
        # M(s) = E[(1 + beta*u)^{s/ln2}] under a unit exponential u
        for s, beta in ((0.5, 2.0), (-0.3, 0.5), (-LN2, 1.0), (1.0, 0.25)):
            oracle, _ = quad(
                lambda u: (1.0 + beta * u) ** (s / LN2) * np.exp(-u),
                0.0,
                np.inf,
                limit=200,
            )
            assert sum_capacity_mgf(s, BetaVector([beta])) == pytest.approx(
                oracle, rel=1e-10
            ), (s, beta)

    def test_complex_argument(self):
        s = complex(0.3, 1.7)
        beta = 0.8
        real, _ = quad(
            lambda u: ((1.0 + beta * u) ** (s / LN2) * np.exp(-u)).real, 0.0, np.inf
        )
        imag, _ = quad(
            lambda u: ((1.0 + beta * u) ** (s / LN2) * np.exp(-u)).imag, 0.0, np.inf
        )
        val = sum_capacity_mgf(s, BetaVector([beta]))
        assert isinstance(val, complex)
        assert val == pytest.approx(complex(real, imag), rel=1e-9)

    def test_rejects_left_of_boundary(self):
        with pytest.raises(ValueError, match="convergence"):
            sum_capacity_mgf(-0.70, BetaVector([1.0]))
        with pytest.raises(ValueError, match="convergence"):
            sum_capacity_mgf(complex(-0.75, 2.0), BetaVector([1.0]))


class TestMgfMeanCheck:
    def test_unit_beta(self):
        b = BetaVector([1.0])
        assert mgf_mean_check(b) == pytest.approx(esrc_closed_form(b), rel=1e-5)

    def test_degenerate_limit(self):
        assert mgf_mean_check(BetaVector([1e-8])) < 1e-7

    def test_additivity(self):
        got = mgf_mean_check(BetaVector([0.5, 2.0]))
        parts = esrc_closed_form(BetaVector([0.5])) + esrc_closed_form(BetaVector([2.0]))
        assert got == pytest.approx(parts, rel=1e-5)

    def test_random_vectors_match_closed_form(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            n = rng.integers(1, 9)
            b = BetaVector(rng.uniform(0.01, 100.0, size=n))
            target = esrc_closed_form(b)
            assert abs(mgf_mean_check(b) - target) / target < 1e-5


class TestDefaultCapacityGrid:
    def test_shape_and_ordering(self):
        grid = default_capacity_grid(BetaVector([1.0, 2.0]), points=128)
        assert grid.size == 128
        assert grid[0] > 0.0
        assert np.all(np.diff(grid) > 0.0)
        assert grid[-1] <= 64.0

    def test_covers_the_mass(self):
        b = BetaVector([10.0, 10.0, 10.0])
        grid = default_capacity_grid(b)
        dens = capacity_pdf(b, grid)
        # the default grid trades a tiny leading gap for tail coverage
        assert np.trapezoid(dens, grid) > 0.99

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            default_capacity_grid(BetaVector([1.0]), points=4)

    def test_rejects_betas_too_small_to_grid(self):
        # below about 1e-17 the starting edge rounds to 0 and cannot grow
        for beta in (1e-300, 1e-18):
            with pytest.raises(ValueError, match="too small"):
                default_capacity_grid(BetaVector([beta, beta]), points=8)

    def test_explicit_top_skips_the_tail_search(self):
        # betas too small for an automatic grid still take an explicit one
        grid = default_capacity_grid(BetaVector([1e-300]), points=64, grid_max=8.0)
        assert np.array_equal(grid, np.linspace(0.125, 8.0, 64))

    def test_rejects_bad_grid_max(self):
        for top in (math.inf, -math.inf, math.nan, 0.0, -1.0, 64.5):
            with pytest.raises(ValueError, match=r"grid_max out of range \(0, 64\]"):
                default_capacity_grid(BetaVector([1.0]), points=8, grid_max=top)
        with pytest.raises(ValueError, match="points must be an integer >= 8"):
            default_capacity_grid(BetaVector([1.0]), points=4, grid_max=8.0)


class TestCapacityPdf:
    def test_single_user_matches_gm_closed_form(self):
        for beta in (0.2, 1.0, 5.0):
            b = BetaVector([beta])
            grid = default_capacity_grid(b, points=96)
            dens = capacity_pdf(b, grid)
            ref = gm_pdf(grid, LN2, 1.0 / beta)
            assert np.max(np.abs(dens - ref)) < 1e-4, beta

    def test_single_user_default_table_accuracy(self):
        # the default 512-point table against the exact density
        # ln2 2^t / beta exp(-(2^t - 1)/beta); the worst error on this grid
        # is 1.3e-10 of the peak (1.02e-8 with the Euler sum's 56 nodes)
        for beta in np.logspace(-2.0, 2.0, 17):
            b = BetaVector([beta])
            grid = default_capacity_grid(b)
            exact = gm_pdf(grid, LN2, 1.0 / beta)
            error = np.max(np.abs(capacity_pdf(b, grid) - exact))
            assert error <= 2e-8 * np.max(exact), beta

    def test_one_user_sweep_to_the_largest_accepted_beta(self):
        # the stated accuracy of a table: within 1e-6 of its peak, here for
        # one user against the exact law, ten betas a decade from 1e-2 to
        # the largest that capacity_pdf accepts (about 1.84e25), each on
        # its default 512-point grid.  The worst reads 4.5e-9, at 1.3e18; the
        # Euler sum read 7e-7 at 1e4, 3e-4 at 1e8 and 0.55 at 1e24
        largest = np.expm1(LN2 * GRID_MAX_BITS) / -np.log1p(-1e-6) * (1.0 - 1e-12)
        worst = 0.0
        for beta in np.geomspace(1e-2, largest, 275):
            b = BetaVector([beta])
            grid = default_capacity_grid(b)
            exact = gm_pdf(grid, LN2, 1.0 / beta)
            error = np.max(np.abs(capacity_pdf(b, grid) - exact)) / np.max(exact)
            worst = max(worst, error)
        assert worst <= 1e-6

    def test_nodes_do_not_grow_with_the_grid(self, monkeypatch):
        # one transform call per table, on nodes shared by each window of
        # the grid: the Euler sum took 56 per point, 2,240 at 40 points and
        # 28,672 at 512
        counts = []
        factory = analytic._density_transform

        def counting(b):
            transform = factory(b)

            def counted(s):
                counts.append(np.size(s))
                return transform(s)

            return counted

        monkeypatch.setattr(analytic, "_density_transform", counting)
        b = BetaVector(BETAS_10DB)
        for points, most in ((40, 500), (512, 1000)):
            counts.clear()
            capacity_pdf(b, default_capacity_grid(b, points=points))
            assert len(counts) == 1 and counts[0] <= most, points

    def test_ten_db_tables_against_the_convolution_oracle(self):
        # the stated accuracy, 1e-6 of the peak, for several users on the
        # benchmark's 10 dB betas and default grids.  Both tables read
        # 7.4e-9 against the oracle at step 5e-4, which moves by 5.5e-9 of
        # the peak when the step halves.  32 users of beta 8.5 sit near the
        # Chernoff limit, with 7e-4 of their mass below 64 bits; their table
        # reads 9.1e-8 (2.3e-8 against the oracle at step 2.5e-4)
        for betas, points in ((BETAS_10DB, 40), (BETAS_10DB, 512), ((8.5,) * 32, 40)):
            b = BetaVector(betas)
            grid = default_capacity_grid(b, points=points)
            dens = capacity_pdf(b, grid)
            oracle = convolution_pdf(b.betas, grid, 5e-4)
            assert np.max(np.abs(dens - oracle)) <= 1e-6 * np.max(dens), (b.n_users, points)

    @pytest.mark.parametrize(
        "betas",
        [
            (0.05,) * 8,
            (0.5, 2.0, 8.0),
            (100.0, 0.1),
            (1.0,) * 16,
            (30.0, 3.0, 0.3, 0.03),
            (1e4, 1.0),
            (0.01, 0.01),
            (0.2,) * 64,
        ],
    )
    def test_spread_tables_against_the_convolution_oracle(self, betas):
        # the stated accuracy, 1e-6 of the peak, off the 10 dB betas.  The
        # oracle's own error at a fixed step of 5e-4 reads 8.0e-6 of the peak
        # for eight users of beta 0.05, so it runs at steps h = top/2e4 and
        # h/2 and their Richardson value is used.  The worst table reads
        # 2.4e-7, (0.01, 0.01) at 512 points; the others read at most 1.3e-7.
        # Those are the oracle's interpolation between cells: on cells of
        # grid[0]/40, which hold every point of the 512-point grids, every
        # table reads at most 4.3e-10 (64 users of beta 0.2)
        b = BetaVector(betas)
        for points in (40, 512):
            grid = default_capacity_grid(b, points=points)
            dens = capacity_pdf(b, grid)
            step = grid[-1] / 2e4
            coarse = convolution_pdf(b.betas, grid, step)
            fine = convolution_pdf(b.betas, grid, step / 2.0)
            oracle = (4.0 * fine - coarse) / 3.0
            assert np.max(np.abs(dens - oracle)) <= 1e-6 * np.max(dens), points

    def test_two_users_match_self_convolution(self):
        b = BetaVector([1.0, 1.0])
        grid = np.linspace(0.05, 10.0, 160)
        dens = capacity_pdf(b, grid)
        dx = 0.001
        x = np.arange(0.0, 16.0, dx)
        f = gm_pdf(x, LN2, 1.0)
        # trapezoid-corrected discrete self-convolution
        conv = (fftconvolve(f, f)[: x.size] - f[0] * f) * dx
        ref = np.interp(grid, x, conv)
        assert np.max(np.abs(dens - ref)) < 1e-3

    def test_normalization_and_mean(self):
        rng = np.random.default_rng(73)
        for _ in range(3):
            b = BetaVector(rng.uniform(0.5, 20.0, size=rng.integers(1, 5)))
            coarse = default_capacity_grid(b)
            # wide grid: reuse the automatic upper edge but start near zero
            grid = np.linspace(1e-3, coarse[-1], 600)
            dens = capacity_pdf(b, grid)
            assert np.min(dens) > -1e-4
            mass = np.trapezoid(dens, grid)
            assert 0.999 <= mass <= 1.001
            mean = np.trapezoid(grid * dens, grid)
            assert mean == pytest.approx(esrc_closed_form(b), rel=1e-2)

    def test_tiny_point_approaches_the_origin_value(self):
        # one user's density is ln2/beta * 2^t exp(-(2^t - 1)/beta), so ln2/2
        # at t -> 0; t = 1e-20 and 1e-250 give it
        got = capacity_pdf(BetaVector([2.0]), np.array([1e-100]))
        assert got[0] == pytest.approx(LN2 / 2.0, rel=1e-6)

    def test_tiny_points_match_the_closed_form(self):
        # t = 10^-e, e = 1, 4, ..., 304, each point a window of its own: the
        # real node's order nu = 1 - gamma/ln 2 reaches -1.3e305 and the
        # complex ones |nu| of 4.5e306
        grid = 10.0 ** -np.arange(304, 0, -3)
        got = capacity_pdf(BetaVector([2.0]), grid)
        np.testing.assert_allclose(got, gm_pdf(grid, LN2, 0.5), rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("beta", [8.0, 0.01, 1e-3])
    def test_one_user_long_grid_peaks_below_20_mb(self, beta):
        # each block's per-node arrays are counted: sized by (user, node)
        # pairs alone, one user's 8,192 points peaked at 70 MB in one call.
        # At beta 0.01 and 1e-3 thousands of orders take the continued
        # fraction (z = 100 and 1000), whose level terms are held in blocks
        b = BetaVector([beta])
        grid = np.linspace(0.01, 40.0, 8192)
        tracemalloc.start()
        try:
            capacity_pdf(b, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20e6

    def test_rejects_bad_grids(self):
        b = BetaVector([1.0])
        with pytest.raises(ValueError):
            capacity_pdf(b, np.array([0.0, 1.0]))
        # the nodes of t = 1e-307 overflow
        with pytest.raises(ValueError, match="below the supported 1e-305"):
            capacity_pdf(b, np.array([1e-307, 1.0]))
        with pytest.raises(ValueError):
            capacity_pdf(b, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            capacity_pdf(b, np.array([1.0, 65.0]))
        with pytest.raises(ValueError):
            capacity_pdf(b, np.ones((2, 2)))

    def test_rejects_betas_with_no_mass_below_the_cap(self):
        # P(C <= 64 bits) <= 1 - exp(-(2^64 - 1)/beta), below 1e-6 past 1.8e25;
        # for many users of beta 8.5 that reads 1, and Chernoff's
        # e^{64 s} M(-s) bounds it instead: log10 -6.9 for 40 users and
        # -2.2 for 32
        grid = np.linspace(1.0, 8.0, 8)
        for betas in ([1e300], [1.0, 1e26], [8.5] * 40):
            with pytest.raises(ValueError, match="less than 1e-06 of the capacity mass"):
                capacity_pdf(BetaVector(betas), grid)
        for betas in ([1e25], [8.5] * 32):
            assert np.all(np.isfinite(capacity_pdf(BetaVector(betas), grid)))


def _check_against_scalar_engine(b, grid):
    """The array transform against the scalar engine, the density against oracles.

    At every node the inversion asks for, the array transform's log L
    agrees with the scalar engine it replaced to 1e-12 relative.  One
    user's density is held to the exact law, within 1e-8 of the peak.
    Several users' density is held to the convolution oracle, within that
    oracle's change between steps 2h and h, which is about three times its
    own error; where every beta is at most 1e2 it is also held to the
    scalar Euler inversion, within 3e-8 of the peak, about three times
    Euler's own error there.
    """
    asked, answered = [], []
    transform = _density_transform(b)

    def record(s):
        asked.append(s)
        answered.append(transform(s))
        return answered[-1]

    dens = invert_laplace(record, grid)
    nodes = asked[0]
    ref = np.array([scalar_log_mgf(-s, b) for s in nodes.ravel()]).reshape(nodes.shape)
    assert np.max(np.abs(np.exp(answered[0] - ref) - 1.0)) <= 1e-12
    assert np.array_equal(dens, capacity_pdf(b, grid))
    if b.n_users == 1:
        exact = gm_pdf(grid, LN2, 1.0 / b.betas[0])
        assert np.max(np.abs(dens - exact)) <= 1e-8 * np.max(exact)
        return
    peak = np.max(dens)
    if max(b.betas) <= 1e2:
        euler = scalar_invert_laplace(scalar_density_transform(b), grid)
        assert np.max(np.abs(dens - euler)) <= 3e-8 * peak
    # cells resolve the narrowest user, of width about min(beta, 1)/ln 2,
    # and number at most 2^18
    step = max(min(1e-3, min(b.betas) / 8.0), np.max(grid) / 2**18)
    fine = convolution_pdf(b.betas, grid, step)
    coarse = convolution_pdf(b.betas, grid, 2.0 * step)
    assert np.max(np.abs(dens - fine)) <= np.max(np.abs(fine - coarse)) + 1e-10 * peak


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=8.0), min_size=1, max_size=8))
def test_array_engine_matches_scalar_engine(log10_betas):
    b = BetaVector(10.0 ** np.array(log10_betas))
    _check_against_scalar_engine(b, default_capacity_grid(b, points=8))


# criterion 8's grids: from 1e-4 to the automatic upper edge, and the
# two-user convolution grid
@pytest.mark.parametrize(
    "betas, points", [([0.5], 500), ([1.0], 500), ([5.0], 500), ([1.0, 1.0], 600)]
)
def test_array_engine_matches_scalar_engine_on_criterion_8_wide_grids(betas, points):
    b = BetaVector(betas)
    _check_against_scalar_engine(b, np.linspace(1e-4, default_capacity_grid(b)[-1], points))


def test_array_engine_matches_scalar_engine_on_criterion_8_pair_grid():
    _check_against_scalar_engine(BetaVector([1.0, 1.0]), np.linspace(0.05, 10.0, 160))
