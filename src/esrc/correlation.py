"""Banded exponential antenna correlation matrices.

The spatial correlation between antenna elements i and j is modeled as
rho^|i-j| and then truncated to a band: entries with |i - j| beyond the
band limit are set to zero.  A band limit of 1 keeps a tridiagonal
matrix, 2 a pentadiagonal one, and n - 1 the full exponential profile.
(Descriptions of the truncation in terms of a "threshold of k elements"
map to l_band = k - 1: a threshold of 2 elements is tridiagonal.)
Truncation can push the matrix out of the positive-semidefinite cone for
large rho, which is why the square root checks the eigenvalues it is built
from before building it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# eigenvalues down to -PSD_TOL count as round-off on a PSD matrix
PSD_TOL = 1e-12


class NotPositiveSemidefiniteError(ValueError):
    """Raised when a matrix fails the PSD gate; the message gives its smallest eigenvalue."""


@dataclass(frozen=True)
class CorrelationSpec:
    """Size n, coefficient rho in [0, 1), and band half-width l_band.

    l_band counts off-diagonals kept on each side of the main diagonal,
    so l_band = 0 is the identity and l_band = n - 1 is untruncated.
    """

    n: int
    rho: float
    l_band: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho out of range [0, 1), got {self.rho!r}")
        if int(self.l_band) != self.l_band:
            raise ValueError(f"l_band must be an integer, got {self.l_band!r}")
        if self.l_band > self.n - 1:
            raise ValueError(f"l_band exceeds n-1 (n={self.n}, got {self.l_band})")
        if self.l_band < 0:
            raise ValueError(f"l_band out of range [0, {self.n - 1}], got {self.l_band}")


def build_banded_correlation(spec):
    """Real symmetric Toeplitz matrix with entries rho^|i-j| inside the band."""
    idx = np.arange(spec.n)
    lag = np.abs(idx[:, None] - idx[None, :])
    return np.where(lag <= spec.l_band, np.power(spec.rho, lag.astype(float)), 0.0)


def matrix_sqrt(matrix, spec=None):
    """Hermitian square root of a Hermitian positive semidefinite matrix.

    One eigendecomposition both gates the matrix and builds the root.  A
    matrix that is not square or not Hermitian raises ValueError, and an
    eigensolver failure raises ArithmeticError naming a blake2b fingerprint
    of the matrix bytes.  A smallest eigenvalue below -PSD_TOL raises
    NotPositiveSemidefiniteError, whose message gives that eigenvalue and
    spec, if given.  Eigenvalues in [-PSD_TOL, 0) are eigensolver round-off
    on a PSD matrix and are clamped to zero.
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.allclose(arr, arr.conj().T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix is not Hermitian")
    try:
        eigvals, eigvecs = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            f"eigendecomposition failed for {arr.shape[0]}x{arr.shape[1]} matrix "
            f"(fingerprint {hashlib.blake2b(arr.tobytes(), digest_size=4).hexdigest()})"
        ) from exc
    lowest = float(eigvals[0])
    if not lowest >= -PSD_TOL:
        origin = f" for {spec!r}" if spec is not None else ""
        raise NotPositiveSemidefiniteError(
            f"matrix is not positive semidefinite{origin}: min eigenvalue {lowest:.6e}"
        )
    eigvals = np.clip(eigvals, 0.0, None)
    root = (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T
    # exact Hermitian symmetry by construction
    return 0.5 * (root + root.conj().T)
