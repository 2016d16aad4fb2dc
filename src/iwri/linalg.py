"""Sparse complex linear algebra: normal-matrix assembly, one
factorization type with repeated multi-right-hand-side solves, and the
largest eigenvalue of the data-resolution operator.

``factorize`` factors a Hermitian matrix by banded Cholesky after a
bandwidth-reducing reordering.  The band is split into two half-bands and
a separator as wide as the band (the two-block partition of SPIKE:
Polizzi and Sameh 2006, Parallel Computing 32(2)); LAPACK factors and
solves the two half-bands at once, one on the calling thread and one on a
single worker thread.  When the band would be too wide to store it falls
back to a general sparse LU (SuperLU).  ``lu_factorize`` takes that
SuperLU path directly for a general complex matrix, such as the
non-Hermitian forward operator A or A^H.  Both backends honor the same
contract: small relative residuals on repeated solves against an
immutable factorization.
"""

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.linalg.cython_lapack as cython_lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationError, ParameterError, ShapeError

# Banded storage is used when the split band's entries fit here.
_MAX_BAND_BYTES = 512 * 2**20


def _start_worker():
    """The one worker thread: it factors and solves the second half-band of
    every banded system while the calling thread does the first.  Its thread
    starts on the first submission; it runs LAPACK calls only, never code
    that waits on it.  A forked child gets a fresh one, since the parent's
    thread does not exist there."""
    global _WORKER
    _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="iwri-band")


_start_worker()
os.register_at_fork(after_in_child=_start_worker)


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


def _capsule_function(name, argtypes):
    """ctypes binding of the LAPACK routine ``name`` that scipy exports
    through ``cython_lapack``.  A call through it releases the GIL."""
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    capsule = cython_lapack.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


class _BandRoutines:
    """``?pbtrf`` and ``?tbtrs`` of one dtype on lower band storage.  Each
    operand is a Fortran-order array and the flat offset its LAPACK
    argument starts at."""

    def __init__(self, dtype, prefix):
        char, num, ptr = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
        self.dtype = np.dtype(dtype)
        self._pbtrf = _capsule_function(prefix + "pbtrf", (char, num, num, ptr, num, num))
        self._tbtrs = _capsule_function(prefix + "tbtrs",
                                        (char, char, char, num, num, num, ptr, num, ptr, num, num))

    def _at(self, a, offset, extent):
        """Address of ``a``'s flat entry ``offset``, once the ``extent``
        entries LAPACK may touch from there are known to lie inside ``a``."""
        if not (a.dtype == self.dtype and a.flags.f_contiguous
                and 0 <= offset and offset + extent <= a.size):
            raise ValueError("LAPACK operand does not fit its buffer")
        return ctypes.c_void_p(a.ctypes.data + offset * a.itemsize)

    def pbtrf(self, band, offset, n, b):
        """Overwrite the n-column band of width b stored from ``band[offset]``
        with its Cholesky factor L; returns LAPACK's info (k > 0: the
        leading minor of order k is not positive definite)."""
        info = ctypes.c_int()
        self._pbtrf(b"L", _ref(n), _ref(b), self._at(band, offset, (b + 1) * n), _ref(b + 1),
                    ctypes.byref(info))
        return _checked("pbtrf", info)

    def tbtrs(self, trans, band, offset, n, b, rhs, row, nrhs, ld):
        """Overwrite the n rows from ``row`` of the ``nrhs`` columns of
        ``rhs`` (leading dimension ``ld``) with op(L)^{-1} times them, L the
        band factor from ``band[offset]``; op is L itself for b"N" and L^H
        for b"C"."""
        info = ctypes.c_int()
        self._tbtrs(b"L", trans, b"N", _ref(n), _ref(b), _ref(nrhs),
                    self._at(band, offset, (b + 1) * n), _ref(b + 1),
                    self._at(rhs, row, ld * (nrhs - 1) + n), _ref(ld), ctypes.byref(info))
        return _checked("tbtrs", info)


def _ref(value):
    return ctypes.byref(ctypes.c_int(value))


def _checked(name, info):
    if info.value < 0:
        raise ValueError(f"{name}: argument {-info.value} is invalid")
    return info.value


_ROUTINES = {np.dtype(float): _BandRoutines(float, "d"), np.dtype(complex): _BandRoutines(complex, "z")}


class BandSplit:
    """Two-block partition of an n-unknown band of width b in band order:
    block 1 is the first s = (n - b) // 2 unknowns, the separator the next
    b, block 2 the remaining n2 in reverse order.  No entry couples the two
    blocks, and each touches the separator only through its last
    ``tail = min(b, size)`` rows.

    In the block layout (block 1, reversed block 2, separator) the Cholesky
    factor is [[L1, 0, 0], [0, L2, 0], [W1^H, W2^H, Ls]].  One flat buffer
    of ``size`` entries holds, in place: the two half-bands (LAPACK's lower
    band storage, one after the other), the coupling blocks C_k = H[tail_k,
    sep] (tail x b, overwritten by W_k = L_k,tail^{-1} C_k) and the
    separator block H_ss (b x b, overwritten by the factor Ls of
    S = H_ss - W1^H W1 - W2^H W2)."""

    def __init__(self, n, b):
        self.n, self.b = n, b
        s = (n - b) // 2
        self.sep = n - b  # first separator unknown in the block layout
        blocks, coupling = [], (b + 1) * self.sep
        for start, size in ((0, s), (s, self.sep - s)):
            tail = min(b, size)
            blocks.append((start, size, tail, coupling))
            coupling += tail * b
        self.blocks = tuple(blocks)  # (first unknown, unknowns, tail rows, coupling offset)
        self.sep_offset = coupling
        self.size = coupling + b * b

    def band_index(self):
        """Band-order index of each block-layout unknown."""
        s, n, b = self.blocks[1][0], self.n, self.b
        return np.concatenate((np.arange(s), np.arange(n - 1, s + b - 1, -1), np.arange(s, s + b)))

    def positions(self, rows, cols):
        """(src, dst) with ``flat[dst] = values[src]`` for matrix entries at
        block-layout ``rows`` and ``cols``: the lower triangle within the
        blocks and the separator, and the block rows of the coupling."""
        b, sep = self.b, self.sep
        sep_row, sep_col = rows >= sep, cols >= sep
        src = np.flatnonzero(np.where(sep_row == sep_col, rows >= cols, sep_col))
        rows, cols = rows[src], cols[src]
        dst = cols * b + rows  # half-band entry: (b + 1) * col + (row - col)
        coupled = cols >= sep
        r, c = rows[coupled], cols[coupled] - sep
        d = self.sep_offset + c * b + r - sep
        for start, size, tail, offset in self.blocks:
            mine = (r >= start) & (r < start + size)
            d[mine] = offset + c[mine] * tail + r[mine] - (start + size - tail)
        dst[coupled] = d
        return src, dst

    def _on_both_blocks(self, fn):
        """``fn(*block)`` for both blocks: block 2 on the worker thread while
        this thread does block 1.  Returns both results once both are done."""
        pending = _WORKER.submit(fn, *self.blocks[1])
        try:
            first = fn(*self.blocks[0])
        finally:
            second = pending.result()
        return first, second

    def _parts(self, flat):
        """The coupling blocks W_k (tail x b) and the separator block, as
        Fortran-order views of ``flat``."""
        b = self.b
        couplings = [flat[offset:offset + tail * b].reshape((tail, b), order="F")
                     for _, _, tail, offset in self.blocks]
        return couplings, flat[self.sep_offset:].reshape((b, b), order="F")

    def factor(self, flat):
        """Factor the gathered system in place.  Returns None, or the
        block-layout index of the first pivot that is not positive."""
        lapack, b = _ROUTINES[flat.dtype], self.b

        def half(start, size, tail, coupling):
            info = lapack.pbtrf(flat, start * (b + 1), size, b)
            if info:
                return start + info - 1
            if tail:
                lapack.tbtrs(b"N", flat, (start + size - tail) * (b + 1), tail, b,
                             flat, coupling, b, tail)
            return None

        pivots = self._on_both_blocks(half)
        if pivots != (None, None) or b == 0:
            return next((p for p in pivots if p is not None), None)
        couplings, separator = self._parts(flat)
        update = sla.blas.zherk if flat.dtype.kind == "c" else sla.blas.dsyrk
        for W in couplings:  # S = H_ss - W1^H W1 - W2^H W2, lower triangle, in place
            if W.size:
                update(-1.0, W, beta=1.0, c=separator, trans=2, lower=1, overwrite_c=1)
        potrf = sla.lapack.zpotrf if flat.dtype.kind == "c" else sla.lapack.dpotrf
        info = potrf(separator, lower=1, overwrite_a=1, clean=0)[1]
        return self.sep + info - 1 if info else None

    def solve(self, flat, work):
        """Overwrite ``work`` (block layout, Fortran order) with the solution
        of the factored system."""
        lapack, b, n = _ROUTINES[flat.dtype], self.b, self.n

        def sweep(trans):  # op(L_k)^{-1} on both blocks at once
            self._on_both_blocks(lambda start, size, *_: lapack.tbtrs(
                trans, flat, start * (b + 1), size, b, work, start, work.shape[1], n))

        sweep(b"N")
        if b:
            couplings, separator = self._parts(flat)
            tails = [work[start + size - tail:start + size] for start, size, tail, _ in self.blocks]
            x_sep = work[self.sep:]
            for W, y in zip(couplings, tails):
                x_sep -= W.conj().T @ y
            x_sep[...] = sla.cho_solve((separator, True), x_sep, check_finite=False)
            for W, y in zip(couplings, tails):
                y -= W @ x_sep
        sweep(b"C")


class BandLayout:
    """Symbolic half of a banded Cholesky for one ordering (perm[new] = old):
    the inverse permutation and, for the first sparsity pattern it is used
    on, the band split and the flat position of each entry of ``H.data``
    that the factor reads.  ``np.asarray(layout)`` is the ordering."""

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
        """(split, src, dst) with ``flat[dst] = H.data[src]`` for a csr or
        csc ``H``, ``split`` its ``BandSplit``: the stored ones when ``H``
        has the bound pattern, else computed for ``H`` (and stored if none
        is bound)."""
        pattern = self._pattern
        if (pattern is not None and H.format == pattern[0]
                and np.array_equal(H.indptr, pattern[1]) and np.array_equal(H.indices, pattern[2])):
            return pattern[3]
        major = np.repeat(np.arange(self.n), np.diff(H.indptr))
        rows, cols = (major, H.indices) if H.format == "csr" else (H.indices, major)
        rows, cols = self.inv[rows], self.inv[cols]
        split = BandSplit(self.n, int(np.max(np.abs(rows - cols))) if rows.size else 0)
        block = np.empty(self.n, dtype=np.int64)
        block[split.band_index()] = np.arange(self.n)
        src, dst = split.positions(block[rows], block[cols])
        index = np.int32 if max(H.nnz, split.size) < 2**31 else np.int64
        positions = (split, src.astype(index), dst.astype(index))
        if pattern is None:
            self._pattern = (H.format, H.indptr.copy(), H.indices.copy(), positions)
        return positions


class SparseFactorization:
    """Immutable factorization of a sparse square matrix, reusable for any
    number of right-hand sides: a split banded Cholesky of a Hermitian
    positive definite matrix, or SuperLU factors of any invertible one."""

    def __init__(self, backend, n, dtype, *, split=None, factor=None, order=None, lu=None):
        self._backend = backend
        self.n = n
        self._dtype = dtype
        self._split = split
        self._factor = factor  # the split's flat buffer
        self._order = order  # matrix index of each block-layout unknown
        self._lu = lu
        self._lock = threading.Lock() if lu is not None else None

    def solve(self, rhs):
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.n:
            raise ShapeError(f"right-hand side has length {rhs.shape[0]}, expected {self.n}")
        cols = rhs.reshape(self.n, -1)
        k = cols.shape[1]
        re_im = np.iscomplexobj(rhs) and self._dtype.kind != "c"  # real factor: Re, Im apart
        if re_im:
            cols = np.concatenate((cols.real, cols.imag), axis=1)
        if self._backend == "banded":
            work = np.asarray(cols[self._order], dtype=self._dtype, order="F")
            self._split.solve(self._factor, work)
            x = np.empty_like(work)
            x[self._order] = work
        else:
            with self._lock:  # SuperLU casts the columns to its dtype in a Fortran-order copy
                x = self._lu.solve(cols)
        if re_im:
            x = x[:, :k] + 1j * x[:, k:]
        return x.reshape(rhs.shape)


def factorize(H, ordering=None):
    """Factor a sparse Hermitian (numerically positive definite) matrix.

    ``ordering`` optionally supplies a bandwidth-reducing permutation
    (perm[new] = old), which the banded factor uses as given, or a
    ``BandLayout`` holding one.  Falls back to sparse LU when banded
    storage would be too large.  A breakdown's ``pivot_index`` is the
    index in H of the first pivot that is not positive.
    """
    H = H if sp.issparse(H) and H.format == "csc" else sp.csr_matrix(H)
    if H.shape[0] != H.shape[1]:
        raise ShapeError(f"matrix must be square, got {H.shape}")
    n = H.shape[0]
    layout = ordering
    if not (isinstance(layout, BandLayout) and layout.n == n):
        layout = BandLayout(n, ordering)
    split, src, dst = layout.positions(H)

    dtype = np.dtype(complex if np.iscomplexobj(H.data) else float)
    if split.size * dtype.itemsize <= _MAX_BAND_BYTES:
        flat = np.zeros(split.size, dtype=dtype)  # a fresh buffer per factorization
        flat[dst] = H.data[src]
        order = layout.order[split.band_index()]
        pivot = split.factor(flat)
        if pivot is not None:
            raise FactorizationError(f"banded Cholesky breakdown at pivot {order[pivot]}",
                                     pivot_index=int(order[pivot]))
        return SparseFactorization("banded", n, dtype, split=split, factor=flat, order=order)

    return SparseFactorization("splu", n, dtype, lu=_splu(H, dtype, 0.01))


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
    return SparseFactorization("splu", A.shape[0], dtype, lu=_splu(A, dtype, 0.1))


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
