"""Tests for banded correlation construction, PSD gating, and matrix roots."""

import numpy as np
import pytest

from esrc.correlation import (
    PSD_TOL,
    CorrelationSpec,
    NotPositiveSemidefiniteError,
    build_banded_correlation,
    matrix_sqrt,
)


def min_eigenvalue(error):
    """The smallest eigenvalue that a NotPositiveSemidefiniteError's message reports."""
    return float(str(error).rsplit("min eigenvalue ", 1)[1])


class TestCorrelationSpec:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            CorrelationSpec(n=0, rho=0.3, l_band=0)
        with pytest.raises(ValueError):
            CorrelationSpec(n=2.5, rho=0.3, l_band=1)

    def test_rejects_rho_out_of_range(self):
        with pytest.raises(ValueError):
            CorrelationSpec(n=4, rho=1.0, l_band=1)
        with pytest.raises(ValueError):
            CorrelationSpec(n=4, rho=-0.1, l_band=1)

    def test_rejects_bad_l_band(self):
        with pytest.raises(ValueError):
            CorrelationSpec(n=4, rho=0.3, l_band=4)
        with pytest.raises(ValueError):
            CorrelationSpec(n=4, rho=0.3, l_band=-1)


class TestBuildBandedCorrelation:
    def test_zero_rho_is_identity(self):
        r = build_banded_correlation(CorrelationSpec(n=5, rho=0.0, l_band=4))
        assert np.array_equal(r, np.eye(5))

    def test_zero_band_is_identity(self):
        r = build_banded_correlation(CorrelationSpec(n=5, rho=0.45, l_band=0))
        assert np.array_equal(r, np.eye(5))

    def test_tridiagonal_layout(self):
        r = build_banded_correlation(CorrelationSpec(n=4, rho=0.5, l_band=1))
        expected = np.array(
            [
                [1.0, 0.5, 0.0, 0.0],
                [0.5, 1.0, 0.5, 0.0],
                [0.0, 0.5, 1.0, 0.5],
                [0.0, 0.0, 0.5, 1.0],
            ]
        )
        assert np.array_equal(r, expected)

    def test_outside_band_exactly_zero(self):
        for l_band in range(8):
            r = build_banded_correlation(CorrelationSpec(n=8, rho=0.49, l_band=l_band))
            idx = np.arange(8)
            lag = np.abs(idx[:, None] - idx[None, :])
            assert np.all(r[lag > l_band] == 0.0)
            assert np.all(r[lag <= l_band] != 0.0)

    def test_full_band_matches_exponential_profile(self):
        idx = np.arange(8)
        lag = np.abs(idx[:, None] - idx[None, :]).astype(float)
        r = build_banded_correlation(CorrelationSpec(n=8, rho=0.37, l_band=7))
        assert np.array_equal(r, 0.37**lag)

    def test_symmetric_unit_diagonal(self):
        r = build_banded_correlation(CorrelationSpec(n=6, rho=0.5, l_band=2))
        assert np.array_equal(r, r.T)
        assert np.array_equal(np.diag(r), np.ones(6))


class TestPsdCheck:
    """The gate matrix_sqrt applies to the eigenvalues of its own eigh."""

    def test_identity(self):
        assert np.array_equal(matrix_sqrt(np.eye(4)), np.eye(4))

    def test_tridiagonal_min_eigenvalue(self):
        # symmetric tridiagonal Toeplitz: eigenvalues 1 + 2*rho*cos(k*pi/(n+1)),
        # so shifting by the smallest one puts it at 0 (passes) or just
        # below -PSD_TOL (reported in the message)
        r = build_banded_correlation(CorrelationSpec(n=8, rho=0.5, l_band=1))
        lo = 1.0 - np.cos(np.pi / 9.0)
        assert lo == pytest.approx(0.0603073792140917, abs=1e-13)
        matrix_sqrt(r - lo * np.eye(8))
        with pytest.raises(NotPositiveSemidefiniteError) as excinfo:
            matrix_sqrt(r - (lo + 1e-9) * np.eye(8))
        assert min_eigenvalue(excinfo.value) == pytest.approx(-1e-9, abs=1e-13)

    def test_detects_indefinite(self):
        # aggressive truncation at large rho leaves the PSD cone
        r = build_banded_correlation(CorrelationSpec(n=8, rho=0.9, l_band=1))
        with pytest.raises(NotPositiveSemidefiniteError) as excinfo:
            matrix_sqrt(r)
        assert min_eigenvalue(excinfo.value) < -0.5
        assert isinstance(excinfo.value, ValueError)

    def test_tolerance_absorbs_roundoff(self):
        x = np.ones(3)
        m = np.outer(x, x)
        # the rank-one matrix's zero eigenvalues come out slightly negative
        assert np.linalg.eigh(m)[0][0] < 0.0
        s = matrix_sqrt(m)
        assert np.allclose(s @ s, m, atol=1e-12)

    def test_sweep_grid_is_psd(self):
        # every operating point of the nominal sweeps must pass the gate
        for rho in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            for l_band in range(1, 8):
                spec = CorrelationSpec(n=8, rho=rho, l_band=l_band)
                matrix_sqrt(build_banded_correlation(spec), spec=spec)

    def test_eigensolver_failure_fingerprint_is_reproducible(self, monkeypatch):
        # blake2b of the matrix bytes, so the same matrix names the same
        # fingerprint under every PYTHONHASHSEED
        def fail(arr):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ArithmeticError, match=r"3x3 matrix \(fingerprint 14095978\)"):
            matrix_sqrt(np.eye(3))


class TestMatrixSqrt:
    def test_two_by_two_closed_form(self):
        # eigenvalues 1 +/- rho give sqrt entries (sqrt(1.5) +/- sqrt(0.5)) / 2
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        s = matrix_sqrt(m)
        a = 0.5 * (np.sqrt(1.5) + np.sqrt(0.5))
        b = 0.5 * (np.sqrt(1.5) - np.sqrt(0.5))
        assert s == pytest.approx(np.array([[a, b], [b, a]]), abs=1e-14)
        assert a == pytest.approx(0.9659258262890683, abs=1e-15)
        assert b == pytest.approx(0.2588190451025208, abs=1e-15)

    def test_diagonal(self):
        s = matrix_sqrt(np.diag([4.0, 9.0, 0.25]))
        assert s == pytest.approx(np.diag([2.0, 3.0, 0.5]), abs=1e-14)

    def test_round_trip_over_sweep_grid(self):
        for n in range(2, 9):
            for rho in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
                for l_band in range(n):
                    spec = CorrelationSpec(n=n, rho=rho, l_band=l_band)
                    r = build_banded_correlation(spec)
                    s = matrix_sqrt(r, spec=spec)
                    err = np.linalg.norm(s @ s - r, ord="fro")
                    assert err <= 1e-10 * n, (spec, err)

    def test_result_is_hermitian_and_psd(self):
        r = build_banded_correlation(CorrelationSpec(n=8, rho=0.5, l_band=3))
        s = matrix_sqrt(r)
        assert np.array_equal(s, s.conj().T)
        assert np.linalg.eigvalsh(s)[0] >= -PSD_TOL

    def test_rank_deficient_clamps_roundoff(self):
        x = np.array([1.0, 2.0, 3.0])
        m = np.outer(x, x)
        s = matrix_sqrt(m)
        assert np.allclose(s @ s, m, atol=1e-12)

    def test_indefinite_raises_with_min_eig(self):
        spec = CorrelationSpec(n=8, rho=0.9, l_band=1)
        r = build_banded_correlation(spec)
        with pytest.raises(NotPositiveSemidefiniteError) as excinfo:
            matrix_sqrt(r, spec=spec)
        assert min_eigenvalue(excinfo.value) < -0.5
        assert "CorrelationSpec" in str(excinfo.value)
