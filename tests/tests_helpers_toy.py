"""Tiny assembled systems and split-buffer oracles shared by several test
modules."""

import numpy as np
import scipy.sparse as sp

import iwri.linalg as la

from iwri.grid import Grid2D, VelocityModel, velocity_to_slowness_sq
from iwri.helmholtz import PmlConfig, StencilScheme, build_kernel
from iwri.acquisition import build_observation


def toy_helmholtz_system(nx=12, nz=9, n_receivers=3, f=6.0, n_layers=2, seed=42):
    """Small Helmholtz operator plus a receiver sampling matrix."""
    grid = Grid2D(nx, nz, 10.0, 10.0)
    rng = np.random.default_rng(seed)
    v = VelocityModel(grid, rng.uniform(1600.0, 2200.0, grid.n))
    m = velocity_to_slowness_sq(v)
    pml = PmlConfig(n_layers=n_layers).resolved(grid, 2200.0)
    kernel = build_kernel(grid, 2.0 * np.pi * f, pml, StencilScheme())
    rec_x = grid.width - 1.5 * grid.dx
    receivers = tuple((rec_x, (j + 0.5) * grid.depth / n_receivers)
                      for j in range(n_receivers))
    P = build_observation(kernel.topology, receivers)
    return kernel.assemble(m.values).tocsc(), P


def split_buffer_oracle(H, ordering, dtype):
    """The split buffer of H (band order H[ordering][:, ordering]) before
    factoring, read from H in block layout: each half-band's diagonals in
    LAPACK's lower band storage, the coupling blocks H[tail_k, sep] and the
    lower triangle of the separator block H_ss as dense arrays."""
    n = H.shape[0]
    perm = np.arange(n) if ordering is None else np.asarray(ordering)
    coo, inv = H.tocoo(), np.argsort(perm)
    split = la.BandSplit(n, int(np.max(np.abs(inv[coo.row] - inv[coo.col]), initial=0)))
    b, sep, order = split.b, split.sep, perm[split.band_index()]
    M = sp.csr_matrix(H)[order][:, order]
    flat = np.zeros(split.size, dtype=dtype)
    for start, size, tail, coupling in split.blocks:
        block = M[start:start + size, start:start + size]
        for d in range(min(b + 1, size)):
            flat[(start + np.arange(size - d)) * (b + 1) + d] = block.diagonal(-d)
        rows = M[start + size - tail:start + size, sep:].toarray()
        flat[coupling:coupling + tail * b] = rows.ravel(order="F")
    flat[split.sep_offset:] = np.tril(M[sep:, sep:].toarray()).ravel(order="F")
    return flat


def filled_split_buffer(H, dtype):
    """The split buffer that ``factorize`` writes from the diagonals of H
    (in band order) before it factors: both blocks and the separator.  An
    entry left unwritten stays NaN."""
    band = la._diagonals(H)
    split = la.BandSplit(H.shape[0], int(np.max(np.abs(band.offsets), initial=0)))
    flat = np.full(split.size, np.nan, dtype=dtype)
    for k in (0, 1, 2):
        split.fill(flat, k, band.offsets, band.data)
    return flat
