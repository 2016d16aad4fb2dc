"""Sparse complex linear algebra: normal-matrix assembly, one
factorization type with repeated multi-right-hand-side solves, and the
largest eigenvalue of the data-resolution operator.

``factorize`` factors a Hermitian matrix with LAPACK's banded Cholesky
after a bandwidth-reducing reordering; when the band would be too wide to
store it falls back to a general sparse LU (SuperLU).  ``lu_factorize``
takes that SuperLU path directly for a general complex matrix, such as the
non-Hermitian forward operator A or A^H.  Both backends honor the
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
    and invertible A.  H keeps the format and index order the sparse
    product gives it."""
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"A must be square, got {A.shape}")
    if P.shape[1] != A.shape[0]:
        raise ShapeError(f"P has {P.shape[1]} columns, A is {A.shape[0]}x{A.shape[0]}")
    if not lam > 0:
        raise ParameterError(f"penalty weight must be positive, got {lam}")
    A, P = sp.csr_matrix(A), sp.csr_matrix(P)
    return P.conjugate().T @ P + lam * (A.conjugate().T @ A)


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
    """Immutable factorization of a sparse square matrix, reusable for any
    number of right-hand sides: a banded Cholesky of a Hermitian positive
    definite matrix, or SuperLU factors of any invertible one."""

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
        with self._lock:  # SuperLU casts each part to its dtype in its own Fortran-order copy
            x = [self._lu.solve(part) for part in ((rhs.real, rhs.imag) if split else (rhs,))]
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

    return SparseFactorization("splu", n, lu=_splu(H, dtype, 0.01), dtype=dtype)


def _splu(M, dtype, diag_pivot_thresh):
    """SuperLU factors of ``M`` cast to ``dtype``, on a symmetric-pattern
    ordering with the given diagonal pivot threshold."""
    try:
        return spla.splu(M.tocsc().astype(dtype), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=diag_pivot_thresh, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError(f"sparse LU breakdown: {exc}") from exc


def lu_factorize(A):
    """Sparse LU of a general square complex matrix (SuperLU backend)."""
    A = sp.csc_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"matrix must be square, got {A.shape}")
    dtype = np.dtype(np.complex128)
    return SparseFactorization("splu", A.shape[0], lu=_splu(A, dtype, 0.1), dtype=dtype)


@dataclass(frozen=True)
class PowerIterationResult:
    value: float
    iterations: int  # eigen-solves that gave ``value``: always 1


def power_iteration_mu1(A, P):
    """Largest eigenvalue mu1 of A^{-H} P^H P A^{-1}, exact to rounding.

    The operator is X X^H with X = A^{-H} P^H, which the LU of A^H and one
    solve give (one column per receiver).  Its nonzero eigenvalues are those
    of the small matrix M = X^H X (receivers x receivers), so mu1 is the
    largest eigenvalue of M.  Raises ``FactorizationError`` when X is not
    finite.

    The name and the ``iterations`` field are those of the power iteration
    this replaced: the benchmark's tracer wraps the function by this name
    and counts ``iterations``, one per mu1 evaluation.
    """
    P = sp.csr_matrix(P)
    if P.shape[1] != A.shape[0]:
        raise ShapeError(f"P has {P.shape[1]} columns, operator dimension is {A.shape[0]}")
    X = lu_factorize(A.conjugate().T).solve(P.conjugate().T.toarray())
    if not np.all(np.isfinite(X)):
        raise FactorizationError("solve for mu1 is not finite")
    M = sla.blas.zherk(1.0, X, trans=2)  # X^H X, upper triangle, without a copy of X
    return PowerIterationResult(float(np.linalg.eigvalsh(M, UPLO="U")[-1]), 1)
