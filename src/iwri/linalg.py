"""Sparse complex linear algebra: normal-matrix assembly, Hermitian
factorization with repeated multi-right-hand-side solves, general LU for
the forward operator, and the power iteration estimating the largest
eigenvalue of the data-resolution operator.

The Hermitian path factors the matrix with LAPACK's banded Cholesky after
a bandwidth-reducing reordering; when the band would be too wide to store
it falls back to a general sparse LU (SuperLU).  Both backends honor the
same contract: small relative residuals on repeated solves against an
immutable factorization.
"""

import re
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationError, ParameterError, ShapeError

# Banded storage is used when (bandwidth+1) * n complex entries fit here.
_MAX_BAND_BYTES = 512 * 2**20


def assemble_normal_matrix(A, P, lam):
    """H = P^H P + lam * A^H A, Hermitian positive definite for lam > 0
    and invertible A."""
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"A must be square, got {A.shape}")
    if P.shape[1] != A.shape[0]:
        raise ShapeError(f"P has {P.shape[1]} columns, A is {A.shape[0]}x{A.shape[0]}")
    if not lam > 0:
        raise ParameterError(f"penalty weight must be positive, got {lam}")
    A = sp.csr_matrix(A)
    P = sp.csr_matrix(P)
    H = (P.conjugate().T @ P) + lam * (A.conjugate().T @ A)
    H = sp.csr_matrix(H)
    H.sum_duplicates()
    return H


class SparseFactorization:
    """Immutable factorization of a sparse Hermitian positive definite
    matrix, reusable for any number of right-hand sides."""

    def __init__(self, backend, n, dtype, *, band=None, order=None, inv_order=None, lu=None):
        self._backend = backend
        self.n = n
        self.dtype = dtype
        self._band = band
        self._order = order
        self._inv_order = inv_order
        self._lu = lu
        self._lock = threading.Lock() if lu is not None else None

    def solve(self, rhs):
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.n:
            raise ShapeError(f"right-hand side has length {rhs.shape[0]}, expected {self.n}")
        if self._backend == "banded":
            b = rhs if self._order is None else rhs[self._order]
            x = sla.cho_solve_banded((self._band, True), b, check_finite=False)
            if self._order is not None:
                x = x[self._inv_order]
            return x
        with self._lock:
            return self._lu.solve(np.ascontiguousarray(rhs, dtype=np.complex128))


def factorize(H, ordering=None):
    """Factor a sparse Hermitian (numerically positive definite) matrix.

    ``ordering`` optionally supplies a bandwidth-reducing permutation
    (perm[new] = old), which the banded factor uses as given.  Falls back
    to sparse LU when banded storage would be too large.
    """
    H = sp.csr_matrix(H)
    if H.shape[0] != H.shape[1]:
        raise ShapeError(f"matrix must be square, got {H.shape}")
    n = H.shape[0]
    coo = H.tocoo()
    rows, cols = coo.row, coo.col
    inv = None
    if ordering is not None:
        ordering = np.asarray(ordering, dtype=np.int64)
        if ordering.size != n:
            raise ShapeError("ordering length does not match matrix dimension")
        inv = np.argsort(ordering)
        rows, cols = inv[rows], inv[cols]
    bw = int(np.max(np.abs(rows - cols))) if rows.size else 0

    real = not np.iscomplexobj(H.data)
    itemsize = 8 if real else 16
    if (bw + 1) * n * itemsize <= _MAX_BAND_BYTES:
        band = np.zeros((bw + 1, n), dtype=np.float64 if real else np.complex128)
        lower = rows >= cols
        band[rows[lower] - cols[lower], cols[lower]] = coo.data[lower]
        try:
            cb = sla.cholesky_banded(band, lower=True, overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            match = re.search(r"(\d+)", str(exc))
            pivot = int(match.group(1)) - 1 if match else None
            raise FactorizationError(f"banded Cholesky breakdown: {exc}", pivot_index=pivot) from exc
        return SparseFactorization("banded", n, band.dtype, band=cb, order=ordering,
                                   inv_order=inv)

    try:
        lu = spla.splu(H.tocsc().astype(np.complex128), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.01, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError(f"sparse LU breakdown: {exc}") from exc
    return SparseFactorization("splu", n, np.complex128, lu=lu)


class LuFactorization:
    """General sparse LU (for the non-Hermitian forward operator); solves
    both A x = b and A^H x = b from the same factors."""

    def __init__(self, lu, n):
        self._lu = lu
        self.n = n
        self._lock = threading.Lock()

    def solve(self, rhs, adjoint=False):
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.n:
            raise ShapeError(f"right-hand side has length {rhs.shape[0]}, expected {self.n}")
        with self._lock:
            return self._lu.solve(np.ascontiguousarray(rhs, dtype=np.complex128),
                                  trans="H" if adjoint else "N")


def lu_factorize(A):
    """Sparse LU of a general square complex matrix."""
    A = sp.csc_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"matrix must be square, got {A.shape}")
    try:
        lu = spla.splu(A.astype(np.complex128), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.1, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError(f"sparse LU breakdown: {exc}") from exc
    return LuFactorization(lu, A.shape[0])


@dataclass(frozen=True)
class PowerIterationResult:
    value: float
    converged: bool
    iterations: int


def power_iteration_mu1(a_factorization, P, tol=1e-4, max_it=200, seed=0):
    """Largest eigenvalue of A^{-H} P^T P A^{-1} by power iteration.

    The start vector is drawn from an explicitly seeded generator so the
    estimate is reproducible.  Convergence is declared when successive
    Rayleigh quotients agree to ``tol`` relative; hitting ``max_it`` is not
    an error, the best estimate is returned with ``converged=False``.
    """
    if tol <= 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    P = sp.csr_matrix(P)
    n = a_factorization.n
    if P.shape[1] != n:
        raise ShapeError(f"P has {P.shape[1]} columns, operator dimension is {n}")
    Pt = P.conjugate().T.tocsr()

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.sqrt(np.sum(np.abs(v) ** 2))

    mu = 0.0
    for it in range(1, max_it + 1):
        y = a_factorization.solve(Pt @ (P @ a_factorization.solve(v)), adjoint=True)
        mu_new = float(np.real(np.sum(np.conj(v) * y)))
        norm_y = float(np.sqrt(np.sum(np.abs(y) ** 2)))
        if norm_y == 0.0:
            return PowerIterationResult(0.0, True, it)
        converged = mu_new > 0 and abs(mu_new - mu) < tol * abs(mu_new)
        mu = mu_new
        v = y / norm_y
        if converged:
            return PowerIterationResult(mu, True, it)
    return PowerIterationResult(mu, False, max_it)
