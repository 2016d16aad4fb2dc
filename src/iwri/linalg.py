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


def assemble_normal_matrix(A, P, lam, *, gram=None):
    """H = P^H P + lam * A^H A, Hermitian positive definite for lam > 0
    and invertible A.  ``gram`` is P^H P when the caller holds it.  H keeps
    the format and index order the sparse product gives it."""
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"A must be square, got {A.shape}")
    if P.shape[1] != A.shape[0]:
        raise ShapeError(f"P has {P.shape[1]} columns, A is {A.shape[0]}x{A.shape[0]}")
    if not lam > 0:
        raise ParameterError(f"penalty weight must be positive, got {lam}")
    A = sp.csr_matrix(A)
    if gram is None:
        P = sp.csr_matrix(P)
        gram = P.conjugate().T @ P
    return gram + lam * (A.conjugate().T @ A)


class BandLayout:
    """Symbolic half of a banded Cholesky for one ordering (perm[new] = old):
    the inverse permutation and, for the first sparsity pattern it is used
    on, the bandwidth and the band position of each lower-triangle entry of
    ``H.data``.  ``np.asarray(layout)`` is the ordering."""

    def __init__(self, n, ordering=None):
        self.n = n
        self.order = np.arange(n) if ordering is None else np.asarray(ordering, dtype=np.int64)
        if self.order.size != n:
            raise ShapeError("ordering length does not match matrix dimension")
        self.inv = np.argsort(self.order)
        self._pattern = None  # (format, indptr, indices, positions) once bound

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.order, dtype=dtype)

    def positions(self, H):
        """(bandwidth, src, dst) with ``band.ravel("F")[dst] = H.data[src]``
        for a csr or csc ``H``: the stored ones when ``H`` has the bound
        pattern, else computed for ``H`` (and stored if none is bound)."""
        pattern = self._pattern
        if (pattern is not None and H.format == pattern[0]
                and np.array_equal(H.indptr, pattern[1]) and np.array_equal(H.indices, pattern[2])):
            return pattern[3]
        major = np.repeat(np.arange(self.n), np.diff(H.indptr))
        rows, cols = (major, H.indices) if H.format == "csr" else (H.indices, major)
        rows, cols = self.inv[rows], self.inv[cols]
        bandwidth = int(np.max(np.abs(rows - cols))) if rows.size else 0
        src = np.flatnonzero(rows >= cols)
        dst = cols[src] * (bandwidth + 1) + rows[src] - cols[src]
        index = np.int32 if 2 * (bandwidth + 1) * self.n < 2**31 else np.int64  # > nnz, > dst
        positions = (bandwidth, src.astype(index), dst.astype(index))
        if pattern is None:
            self._pattern = (H.format, H.indptr.copy(), H.indices.copy(), positions)
        return positions


class SparseFactorization:
    """Immutable factorization of a sparse Hermitian positive definite
    matrix, reusable for any number of right-hand sides."""

    def __init__(self, backend, n, *, band=None, layout=None, lu=None, dtype=None):
        self._backend = backend
        self.n = n
        self._band = band
        self._layout = layout
        self._lu = lu
        self._dtype = dtype  # of the SuperLU factors, which do not expose it
        self._lock = threading.Lock() if lu is not None else None

    def solve(self, rhs):
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.n:
            raise ShapeError(f"right-hand side has length {rhs.shape[0]}, expected {self.n}")
        if self._backend == "banded":
            x = sla.cho_solve_banded((self._band, True), rhs[self._layout.order],
                                     check_finite=False)
            return x[self._layout.inv]
        split = np.iscomplexobj(rhs) and self._dtype.kind != "c"  # real factor: Re, Im apart
        with self._lock:
            x = [self._lu.solve(np.ascontiguousarray(part, dtype=self._dtype))
                 for part in ((rhs.real, rhs.imag) if split else (rhs,))]
        return x[0] + 1j * x[1] if split else x[0]


def factorize(H, ordering=None):
    """Factor a sparse Hermitian (numerically positive definite) matrix.

    ``ordering`` optionally supplies a bandwidth-reducing permutation
    (perm[new] = old), which the banded factor uses as given, or a
    ``BandLayout`` holding one.  Falls back to sparse LU when banded
    storage would be too large.
    """
    H = H if sp.issparse(H) and H.format == "csc" else sp.csr_matrix(H)
    if H.shape[0] != H.shape[1]:
        raise ShapeError(f"matrix must be square, got {H.shape}")
    n = H.shape[0]
    layout = ordering
    if not (isinstance(layout, BandLayout) and layout.n == n):
        layout = BandLayout(n, ordering)
    bandwidth, src, dst = layout.positions(H)

    dtype = np.dtype(complex if np.iscomplexobj(H.data) else float)
    if (bandwidth + 1) * n * dtype.itemsize <= _MAX_BAND_BYTES:
        flat = np.zeros((bandwidth + 1) * n, dtype=dtype)  # a fresh band per factorization
        flat[dst] = H.data[src]
        band = flat.reshape((bandwidth + 1, n), order="F")  # the layout LAPACK reads
        try:
            cb = sla.cholesky_banded(band, lower=True, overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            match = re.search(r"(\d+)", str(exc))
            pivot = int(match.group(1)) - 1 if match else None
            raise FactorizationError(f"banded Cholesky breakdown: {exc}", pivot_index=pivot) from exc
        return SparseFactorization("banded", n, band=cb, layout=layout)

    try:
        lu = spla.splu(H.tocsc().astype(dtype), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.01, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError(f"sparse LU breakdown: {exc}") from exc
    return SparseFactorization("splu", n, lu=lu, dtype=dtype)


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

    The operator is X X^H with X = A^{-H} P^H, which one block adjoint solve
    gives (one column per receiver).  The iterates v <- X X^H v / ||.|| are
    carried as z = X^H v in receiver space: mu = ||z||^2 and
    z <- M z / sqrt(z^H M z) with M = X^H X, so each step is a product with
    the small matrix M instead of two sparse solves.  The start vector is
    drawn from an explicitly seeded generator so the estimate is
    reproducible.  Convergence is declared when successive Rayleigh
    quotients agree to ``tol`` relative; hitting ``max_it`` is not an error,
    the best estimate is returned with ``converged=False``.
    """
    if tol <= 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    P = sp.csr_matrix(P)
    n = a_factorization.n
    if P.shape[1] != n:
        raise ShapeError(f"P has {P.shape[1]} columns, operator dimension is {n}")
    X = a_factorization.solve(P.conjugate().T.toarray(), adjoint=True)
    M = X.conjugate().T @ X

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.sqrt(np.sum(np.abs(v) ** 2))
    z = X.conjugate().T @ v

    mu = 0.0
    for it in range(1, max_it + 1):
        mu_new = float(np.sum(np.abs(z) ** 2))
        Mz = M @ z
        norm_y = float(np.sqrt(max(np.vdot(z, Mz).real, 0.0)))
        if norm_y == 0.0:
            return PowerIterationResult(0.0, True, it)
        converged = mu_new > 0 and abs(mu_new - mu) < tol * abs(mu_new)
        mu = mu_new
        z = Mz / norm_y
        if converged:
            return PowerIterationResult(mu, True, it)
    return PowerIterationResult(mu, False, max_it)
