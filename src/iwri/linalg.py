"""Sparse complex linear algebra: normal-matrix assembly from one Gram
kernel, one factorization type with repeated multi-right-hand-side
solves, and the largest eigenvalue of the data-resolution operator.

``factorize`` factors a Hermitian matrix, given in a bandwidth-reducing
order, by banded Cholesky.  The band is split into two half-bands and
a separator as wide as the band (the two-block partition of SPIKE:
Polizzi and Sameh 2006, Parallel Computing 32(2)); LAPACK factors and
solves the two half-bands at once, one on the calling thread and one on a
single worker thread (or both on the calling thread on one CPU), each
thread writing its half-band and coupling block from the matrix's
diagonals first.  When the
band would be too wide to store it falls back to a general sparse LU
(SuperLU).  ``lu_factorize`` takes that
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
import scipy.linalg.cython_blas as cython_blas
import scipy.linalg.cython_lapack as cython_lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FactorizationError, ParameterError, ShapeError

# Banded storage is used when the split band's entries fit here.
_MAX_BAND_BYTES = 512 * 2**20


def _start_worker():
    """The one worker thread: it fills, factors and solves the second
    half-band of every banded system while the calling thread does the
    first.  Its thread starts on the first submission; it runs BLAS and
    LAPACK calls and numpy on arrays it is handed, never code that waits on
    it.  A forked child gets a fresh one, since the parent's
    thread does not exist there."""
    global _WORKER
    _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="iwri-band")


_start_worker()
os.register_at_fork(after_in_child=_start_worker)


def assemble_normal_matrix(A, P, lam):
    """H = P^H P + lam * A^H A as a ``dia_matrix`` in the index order of A
    and P, Hermitian positive definite for lam > 0 and invertible A (a
    ``dia_matrix`` A is read as stored, zero outside A).  P samples: it
    holds at most one entry in each row, so P^H P is H's main diagonal."""
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"A must be square, got {A.shape}")
    if P.shape[1] != A.shape[0]:
        raise ShapeError(f"P has {P.shape[1]} columns, A is {A.shape[0]}x{A.shape[0]}")
    if not lam > 0:
        raise ParameterError(f"penalty weight must be positive, got {lam}")
    n, P, A = A.shape[0], sp.csr_matrix(P), _diagonals(A)
    if np.any(np.diff(P.indptr) > 1):
        raise ShapeError("P must sample: at most one entry in each row, so P^H P is diagonal")
    offsets, data = _gram(A.data[None], A.offsets)
    data *= lam
    data[offsets.size // 2] += np.bincount(P.indices, weights=np.abs(P.data) ** 2, minlength=n)
    return sp.dia_matrix((data, offsets), shape=(n, n))


def _gram(x, offsets):
    """The Gram matrix G = sum_s X_s^H X_s of n x n matrices X_s as
    ``dia_matrix`` parts (offsets, data), from their diagonals x[s, k, j] =
    X_s[j - offsets[k], j].  With x_k the diagonal at offset k,
    G[j + d, j] is the sum over s and k of conj(x_{k+d}[j + d]) x_k[j]: a
    sum of products of shifted slices.  G holds every difference of two
    offsets below n in size, the upper diagonals conjugate to the lower."""
    n = x.shape[-1]
    row = {int(k): i for i, k in enumerate(offsets)}
    lags = np.unique(np.subtract.outer(offsets, offsets))
    lags = lags[(lags >= 0) & (lags < n)]
    m = lags.size  # data rows m - 1 - i and m - 1 + i hold the diagonals -lags[i] and +lags[i]
    data = np.zeros((2 * m - 1, n), dtype=np.result_type(x, float))
    term = np.empty(n, dtype=data.dtype)
    for xs in x:
        xc = xs.conj()
        for i, d in enumerate(lags):
            lower = data[m - 1 - i, :n - d]
            for k, r in row.items():
                if k + d in row:
                    np.add(lower, np.multiply(xc[row[k + d], d:], xs[r, :n - d], out=term[:n - d]), out=lower)
    for i, d in enumerate(lags[1:], 1):
        np.conjugate(data[m - 1 - i, :n - d], out=data[m - 1 + i, d:])
    return np.concatenate((-lags[::-1], lags[1:])), data


def _permutation(perm, n):
    """``perm`` as an int64 array, once it is known to hold each index below
    n exactly once (a bincount, not a sort: ``factorize`` checks one per call)."""
    perm = np.asarray(perm, dtype=np.int64)
    if (perm.shape != (n,) or np.any(perm < 0)
            or not np.array_equal(np.bincount(perm, minlength=n), np.ones(n))):
        raise ShapeError(f"ordering must be a permutation of the {n} indices")
    return perm


def _transpose(A):
    """A^T; for a square ``dia_matrix`` A, A's diagonals rolled, with
    ascending offsets, so a product sums each entry in A's row order
    (scipy's transpose stores them descending, and is slower)."""
    if not (A.format == "dia" and A.data.shape[1] == A.shape[0] == A.shape[1]):
        return A.T
    data = np.stack([np.roll(d, -k) for k, d in zip(A.offsets[::-1], A.data[::-1])])
    return sp.dia_matrix((data, -A.offsets[::-1]), shape=A.shape)


def _diagonals(M):
    """The square matrix M as a ``dia_matrix`` that stores the main
    diagonal: M itself when it is a full-width one, else read from a sparse
    matrix of any format; duplicate entries add up."""
    n = M.shape[0]
    if M.format == "dia" and M.data.shape[1] == n and 0 in M.offsets:
        return M
    M = sp.coo_matrix(M)
    offsets, k = np.unique(np.append(M.col - M.row, 0), return_inverse=True)
    data = np.zeros((offsets.size, n), dtype=M.dtype)
    np.add.at(data, (k[:-1], M.col), M.data)
    return sp.dia_matrix((data, offsets), shape=M.shape)


def _capsule_function(module, name, argtypes):
    """ctypes binding of the BLAS or LAPACK routine ``name`` that scipy
    exports through ``module``.  A call through it releases the GIL."""
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    capsule = module.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


class _BandRoutines:
    """``?pbtrf`` and ``?tbtrs`` of one dtype on lower band storage,
    ``?trsm``, and ``?herk`` (``dsyrk`` for real data).  Each operand is a
    Fortran-order array and the flat offset its BLAS or LAPACK argument
    starts at."""

    def __init__(self, dtype, prefix):
        char, num, ptr = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
        real = ctypes.POINTER(ctypes.c_double)
        self.dtype = np.dtype(dtype)
        self._pbtrf = _capsule_function(cython_lapack, prefix + "pbtrf", (char, num, num, ptr, num, num))
        self._tbtrs = _capsule_function(cython_lapack, prefix + "tbtrs",
                                        (char, char, char, num, num, num, ptr, num, ptr, num, num))
        self._herk = _capsule_function(cython_blas, "zherk" if prefix == "z" else "dsyrk",
                                       (char, char, num, num, real, ptr, num, real, ptr, num))
        self._trsm = _capsule_function(cython_blas, prefix + "trsm",
                                       (char, char, char, char, num, num, ptr, ptr, num, ptr, num))
        self._adjoint = b"C" if prefix == "z" else b"T"
        self._one = np.ones(1, dtype=dtype)  # ?trsm's alpha

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

    def trsm(self, a, offset, n, lda, b, b_offset, nrhs):
        """Overwrite the n x nrhs block from ``b[b_offset]`` (leading
        dimension n) with L^{-1} times it, L the lower triangle of the n x n
        block from ``a[offset]`` (leading dimension ``lda``)."""
        self._trsm(b"L", b"L", b"N", b"N", _ref(n), _ref(nrhs), ctypes.c_void_p(self._one.ctypes.data),
                   self._at(a, offset, lda * (n - 1) + n), _ref(lda),
                   self._at(b, b_offset, n * nrhs), _ref(n))

    def herk(self, alpha, a, offset, k, n, beta, c, c_offset):
        """Overwrite the lower triangle of the n x n block from ``c[c_offset]``
        with alpha W^H W + beta times it, W the k x n block from ``a[offset]``."""
        self._herk(b"L", self._adjoint, _ref(n), _ref(k), ctypes.byref(ctypes.c_double(alpha)),
                   self._at(a, offset, k * n), _ref(k), ctypes.byref(ctypes.c_double(beta)),
                   self._at(c, c_offset, n * n), _ref(n))


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
        (_, s1, t1, c1), (_, s2, t2, c2) = blocks
        # Part k (block 1, block 2, the separator) as rectangles (first, count,
        # base, rows, cols, row step, col step, i0, j0, lo, hi): ``fill`` zeroes
        # flat[first:first + count] and writes flat[base + r * row step + c *
        # col step] = H[i0 + r, j0 + c] (band order) on the diagonals
        # lo <= c - r <= hi of a rows x cols block.  A half-band in LAPACK's
        # lower band storage is such a block with column step b; block 2 and
        # its coupling rows run backwards.
        self._writes = (
            ((0, s1 * (b + 1), 0, s1, s1, 1, b, 0, 0, -b, 0),
             (c1, t1 * b, c1, t1, b, 1, t1, s - t1, s, 1 - t1, b - 1)),
            ((s * (b + 1), s2 * (b + 1), (s + s2 - 1) * (b + 1), s2, s2, -1, -b, s + b, s + b, 0, b),
             (c2, t2 * b, c2 + t2 - 1, t2, b, -1, t2, s + b, s, 1 - t2, b - 1)),
            ((coupling, b * b, coupling, b, b, 1, b, s, s, 1 - b, 0),))

    def band_index(self):
        """Band-order index of each block-layout unknown."""
        s, n, b = self.blocks[1][0], self.n, self.b
        return np.concatenate((np.arange(s), np.arange(n - 1, s + b - 1, -1), np.arange(s, s + b)))

    def fill(self, flat, k, offsets, data):
        """Zero part k of ``flat`` and write into it the matrix whose
        band-order diagonals are ``data`` (``dia_matrix`` layout, diagonal
        offsets[i] in data[i]): block k's half-band and coupling block for
        k = 0, 1, the separator block's lower triangle for k = 2."""
        size = flat.itemsize
        for first, count, base, rows, cols, row_step, col_step, i0, j0, lo, hi in self._writes[k]:
            ctypes.memset(flat.ctypes.data + first * size, 0, count * size)  # half the time of numpy's fill
            for o, values in zip(offsets, data):
                d = o - j0 + i0  # the block's diagonal c - r holding H's diagonal o
                if max(lo, 1 - rows) <= d <= min(hi, cols - 1):
                    r = max(0, -d)
                    length = min(rows - r, cols - r - d)
                    np.ndarray(length, flat.dtype, flat, (base + r * row_step + (r + d) * col_step) * size,
                               ((row_step + col_step) * size,))[...] = values[j0 + r + d:j0 + r + d + length]

    def _on_both_blocks(self, fn):
        """``fn(k, *block)`` for both blocks k: block 2 on the worker thread
        while this thread does block 1, or after it on one CPU (``_parallel``,
        asked on each call).  Returns both results once both are done."""
        if not _parallel():
            return fn(0, *self.blocks[0]), fn(1, *self.blocks[1])
        pending = _WORKER.submit(fn, 1, *self.blocks[1])
        try:
            first = fn(0, *self.blocks[0])
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

    def factor(self, flat, offsets, data):
        """Write the matrix whose band-order diagonals are ``data`` into
        ``flat`` and factor it in place: the calling thread writes the
        separator block, and each block's thread writes its half-band and
        coupling block before it factors them.  Returns None, or the
        block-layout index of the first pivot that is not positive."""
        lapack, b = _ROUTINES[flat.dtype], self.b
        self.fill(flat, 2, offsets, data)
        separator = self._parts(flat)[1]
        term = np.zeros_like(separator)  # W2^H W2, apart, so S sums in one order

        def half(k, start, size, tail, coupling):
            self.fill(flat, k, offsets, data)
            info = lapack.pbtrf(flat, start * (b + 1), size, b)
            if info:
                return start + info - 1
            if tail:  # the trailing tail x tail triangle of L_k has leading dimension b in band storage
                lapack.trsm(flat, (start + size - tail) * (b + 1), tail, b, flat, coupling, b)
                if k == 0:  # H_ss - W1^H W1, in place
                    lapack.herk(-1.0, flat, coupling, tail, b, 1.0, flat, self.sep_offset)
                else:
                    lapack.herk(1.0, flat, coupling, tail, b, 0.0, term, 0)
            return None

        pivots = self._on_both_blocks(half)
        if pivots != (None, None) or b == 0:
            return next((p for p in pivots if p is not None), None)
        separator -= term  # S = H_ss - W1^H W1 - W2^H W2, lower triangle
        potrf = sla.lapack.zpotrf if flat.dtype.kind == "c" else sla.lapack.dpotrf
        info = potrf(separator, lower=1, overwrite_a=1, clean=0)[1]
        return self.sep + info - 1 if info else None

    def solve(self, flat, work):
        """Overwrite ``work`` (block layout, Fortran order) with the solution
        of the factored system."""
        lapack, b, n = _ROUTINES[flat.dtype], self.b, self.n

        def sweep(trans):  # op(L_k)^{-1} on both blocks at once
            self._on_both_blocks(lambda k, start, size, *_: lapack.tbtrs(
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


def _parallel():
    """Whether the process may run on more than one CPU, one for the worker."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return len(cpus) > 1


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
        self._order = np.arange(n) if order is None else order  # matrix index of each unknown
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
            y = np.asarray(cols[self._order], dtype=self._dtype, order="F")
            self._split.solve(self._factor, y)
        else:
            with self._lock:  # SuperLU casts the columns to its dtype in a Fortran-order copy
                y = self._lu.solve(cols[self._order])
        x = np.empty_like(y)
        x[self._order] = y
        if re_im:
            x = x[:, :k] + 1j * x[:, k:]
        return x.reshape(rhs.shape)


def factorize(H, ordering=None):
    """Factor a sparse Hermitian (numerically positive definite) matrix M
    given in band order: H = M[perm][:, perm] for the bandwidth-reducing
    ``ordering`` perm (perm[new] = old), H = M without one.

    ``solve`` takes and returns vectors in M's order, and a breakdown's
    ``pivot_index`` is the index in M of the first pivot that is not
    positive.  H is read as a ``dia_matrix`` (``_diagonals``), and every
    part of the split band is written from its diagonals.  Falls back to
    sparse LU of H, solved through the same ordering, when the split
    buffer would be larger than ``_MAX_BAND_BYTES``.
    """
    if H.shape[0] != H.shape[1]:
        raise ShapeError(f"matrix must be square, got {H.shape}")
    n = H.shape[0]
    dtype = np.dtype(complex if np.iscomplexobj(H.data) else float)
    perm = np.arange(n) if ordering is None else _permutation(ordering, n)
    band = _diagonals(H)
    split = BandSplit(n, int(np.max(np.abs(band.offsets), initial=0)))
    if split.size * dtype.itemsize > _MAX_BAND_BYTES:
        return SparseFactorization("splu", n, dtype, order=perm, lu=_splu(H, dtype, 0.01))
    flat = np.empty(split.size, dtype=dtype)
    pivot = split.factor(flat, band.offsets, band.data)
    order = perm[split.band_index()]
    if pivot is not None:
        raise FactorizationError(f"banded Cholesky breakdown at pivot {order[pivot]}",
                                 pivot_index=int(order[pivot]))
    return SparseFactorization("banded", n, dtype, split=split, factor=flat, order=order)


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
    X = lu_factorize(_transpose(A).conjugate()).solve(P.conjugate().T.toarray())
    if not np.all(np.isfinite(X)):
        raise FactorizationError("solve for mu1 is not finite")
    M = sla.blas.zherk(1.0, X, trans=2)  # X^H X, upper triangle, without a copy of X
    return PowerIterationResult(float(np.linalg.eigvalsh(M, UPLO="U")[-1]), 1)
