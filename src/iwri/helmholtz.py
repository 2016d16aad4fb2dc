"""Discrete 2D Helmholtz operator with PML absorbing layers.

The operator splits exactly into a wavefield part and a model part,

    A(m) = Lap + omega^2 * S * diag(m_pad),      S = B * diag(c),

where ``Lap`` is the complex-stretched Laplacian (PML factors folded in),
``B`` spreads the mass term over the stencil nodes (anti-lumped mass) and
``c`` holds the diagonal PML damping coefficients.  Because ``c`` does not
depend on the model, ``A(m) u = Lap u + L(u) m_pad`` holds to machine
precision with ``L(u) = omega^2 * S * diag(u)``, which keeps the model
subproblem of the inversion exactly linear.

The PML enters the equation in multiplied-through form: with per-axis
stretch factors ``s = 1 + i*sigma/omega`` the Laplacian coefficients carry
``s_z/s_x`` (x-direction) and ``s_x/s_z`` (z-direction) at cell faces, and
the mass term carries ``c = s_x*s_z`` per cell.  The outer boundary of the
padded grid is homogeneous Dirichlet.

The 9-point scheme blends the axis-aligned 5-point Laplacian with its
45-degree rotated counterpart and spreads the mass term over center and
edge neighbors (fixed classical weights).  The rotated part is exact only
for constant coefficients, so it is applied on cells whose full 3x3 patch
is undamped; inside the PML the scheme degrades to the stretched 5-point
form.  Setting the blend weight to 1 and the mass spreading to pure
lumping recovers the plain 5-point scheme everywhere.
"""

import hashlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, ShapeError
from .grid import Grid2D
from .linalg import lu_factorize

# Target round-trip amplitude attenuation through the layer.  Stronger than
# strictly needed for reflections so that the field reaching the outer
# Dirichlet ring (one-way, ~sqrt of this) stays below 1e-3 of the peak even
# for oblique paths.
_PML_ROUNDTRIP = 1e-8

_ALL_SIDES = frozenset({"top", "bottom", "left", "right"})

# Bytes of forward-solve solutions remembered per process (oldest evicted).
_FORWARD_MEMO_BYTES = 32 * 2**20
_forward_memo = OrderedDict()  # content digest of (A, b) -> solution
_forward_memo_lock = threading.Lock()


@dataclass(frozen=True)
class PmlConfig:
    """Absorbing-layer settings; ``max_damping=None`` selects the rule
    sigma_max = (p+1) v_ref ln(1/R)/(2 L) with R the round-trip target."""

    n_layers: int = 10
    profile_exponent: float = 2.0
    max_damping: float | None = None
    sides: frozenset = _ALL_SIDES

    def __post_init__(self):
        if self.n_layers < 0:
            raise ParameterError(f"n_layers must be nonnegative, got {self.n_layers}")
        if self.max_damping is not None and self.max_damping < 0:
            raise ParameterError(f"max_damping must be nonnegative, got {self.max_damping}")
        unknown = set(self.sides) - _ALL_SIDES
        if unknown:
            raise ParameterError(f"unknown PML sides: {sorted(unknown)}")

    def resolved(self, grid, v_ref):
        """Fix max_damping for a concrete grid and reference velocity."""
        if self.max_damping is not None:
            return self
        if self.n_layers == 0:
            return replace(self, max_damping=0.0)
        width = self.n_layers * min(grid.dx, grid.dz)
        sigma = (self.profile_exponent + 1.0) * v_ref * math.log(1.0 / _PML_ROUNDTRIP) / (2.0 * width)
        return replace(self, max_damping=sigma)


def resolve_pml(pml, grid, bounds, m_true):
    """Fix an unresolved PML config with the reference velocity of a run:
    the upper velocity bound, else the maximum of the true velocity model."""
    if pml.max_damping is not None:
        return pml
    if bounds is not None:
        v_ref = bounds.v_max
    elif m_true is not None:
        v_ref = float(np.max(m_true.values))
    else:
        raise ParameterError("unresolved PML config needs bounds or a true model "
                             "to fix the damping rule")
    return pml.resolved(grid, v_ref)


@dataclass(frozen=True)
class StencilScheme:
    """Blend weight of the axis-aligned Laplacian plus mass-spreading
    weights (center, the four edge neighbors, the four corners)."""

    laplacian_mix: float = 0.5461
    mass_center: float = 0.6248
    mass_edge: float = 0.0938
    mass_corner: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.laplacian_mix <= 1.0:
            raise ParameterError(f"laplacian_mix must be in (0, 1], got {self.laplacian_mix}")
        total = self.mass_center + 4 * self.mass_edge + 4 * self.mass_corner
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"mass weights must sum to 1, got {total}")

    @classmethod
    def five_point(cls):
        """Degenerate scheme: plain 5-point Laplacian, fully lumped mass."""
        return cls(laplacian_mix=1.0, mass_center=1.0, mass_edge=0.0, mass_corner=0.0)


@dataclass(frozen=True)
class PaddedTopology:
    """Index bookkeeping between the physical grid and the PML-padded grid."""

    grid: Grid2D
    grid_pad: Grid2D
    off_x: int
    off_z: int
    phys_of_pad: np.ndarray  # physical cell replicated into each padded cell
    pad_of_phys: np.ndarray  # padded index of each physical cell

    @property
    def n_pad(self):
        return self.grid_pad.n


def pad_topology(grid, pml):
    left = pml.n_layers if "left" in pml.sides else 0
    right = pml.n_layers if "right" in pml.sides else 0
    top = pml.n_layers if "top" in pml.sides else 0
    bottom = pml.n_layers if "bottom" in pml.sides else 0
    nx_pad, nz_pad = grid.nx + left + right, grid.nz + top + bottom
    grid_pad = Grid2D(nx_pad, nz_pad, grid.dx, grid.dz)

    ixp, izp = np.meshgrid(np.arange(nx_pad), np.arange(nz_pad), indexing="xy")
    ix = np.clip(ixp - left, 0, grid.nx - 1)
    iz = np.clip(izp - top, 0, grid.nz - 1)
    phys_of_pad = (iz * grid.nx + ix).ravel()

    ix, iz = np.meshgrid(np.arange(grid.nx), np.arange(grid.nz), indexing="xy")
    pad_of_phys = ((iz + top) * nx_pad + (ix + left)).ravel()
    return PaddedTopology(grid, grid_pad, left, top, phys_of_pad, pad_of_phys)


def _axis_damping(n_cells, spacing, n_layers, lo_on, hi_on, sigma_max, exponent):
    """Damping profile along one padded axis at cell centers and faces."""
    lo = n_layers if lo_on else 0
    width = n_layers * spacing
    centers = (np.arange(n_cells) + 0.5 - lo) * spacing
    faces = (np.arange(n_cells + 1) - lo) * spacing
    extent = (n_cells - lo - (n_layers if hi_on else 0)) * spacing

    def profile(x):
        depth = np.zeros_like(x)
        if lo_on:
            depth = np.maximum(depth, -x)
        if hi_on:
            depth = np.maximum(depth, x - extent)
        if width == 0:
            return np.zeros_like(x)
        return sigma_max * np.clip(depth / width, 0.0, 1.0) ** exponent

    return profile(centers), profile(faces)


class HelmholtzKernel:
    """Frequency-specific operator pieces on the padded grid.

    Holds the stretched Laplacian, the damped mass-spreading matrix S and
    the physical/padded index maps; assembling A(m) for a new model is a
    cheap column scaling plus a sparse add.
    """

    def __init__(self, grid, omega, pml, scheme):
        if omega <= 0:
            raise ParameterError(f"angular frequency must be positive, got {omega}")
        if pml.max_damping is None:
            raise ParameterError("PML config must be resolved (max_damping set) to build a kernel")
        self.grid = grid
        self.omega = float(omega)
        self.pml = pml
        self.scheme = scheme
        self.topology = pad_topology(grid, pml)

        gp = self.topology.grid_pad
        nxp, nzp = gp.nx, gp.nz
        sx_c, sx_f = _axis_damping(nxp, grid.dx, pml.n_layers, "left" in pml.sides,
                                   "right" in pml.sides, pml.max_damping, pml.profile_exponent)
        sz_c, sz_f = _axis_damping(nzp, grid.dz, pml.n_layers, "top" in pml.sides,
                                   "bottom" in pml.sides, pml.max_damping, pml.profile_exponent)
        stretch_x_c = 1.0 + 1j * sx_c / omega
        stretch_x_f = 1.0 + 1j * sx_f / omega
        stretch_z_c = 1.0 + 1j * sz_c / omega
        stretch_z_f = 1.0 + 1j * sz_f / omega

        self.damping = (stretch_x_c[np.newaxis, :] * stretch_z_c[:, np.newaxis]).ravel()
        self.laplacian = self._build_laplacian(stretch_x_c, stretch_x_f, stretch_z_c, stretch_z_f,
                                               sx_c, sz_c)
        self.mass_basis = self._build_mass_basis()

    # -- construction -----------------------------------------------------

    def _build_laplacian(self, sx_c, sx_f, sz_c, sz_f, sigx_c, sigz_c):
        gp = self.topology.grid_pad
        nxp, nzp = gp.nx, gp.nz
        dx2, dz2 = gp.dx**2, gp.dz**2
        mix = self.scheme.laplacian_mix if gp.dx == gp.dz else 1.0

        a_xp = (sz_c[:, None] / sx_f[None, 1:]) * np.ones((nzp, nxp))
        a_xm = (sz_c[:, None] / sx_f[None, :-1]) * np.ones((nzp, nxp))
        a_zp = (sx_c[None, :] / sz_f[1:, None]) * np.ones((nzp, nxp))
        a_zm = (sx_c[None, :] / sz_f[:-1, None]) * np.ones((nzp, nxp))

        if mix < 1.0:
            col_ok = sigx_c == 0.0
            row_ok = sigz_c == 0.0
            patch_col = col_ok.copy()
            patch_col[1:-1] &= col_ok[:-2] & col_ok[2:]
            patch_col[[0, -1]] = False
            patch_row = row_ok.copy()
            patch_row[1:-1] &= row_ok[:-2] & row_ok[2:]
            patch_row[[0, -1]] = False
            mixed = patch_row[:, None] & patch_col[None, :]
            weight = np.where(mixed, mix, 1.0)
        else:
            mixed = np.zeros((nzp, nxp), dtype=bool)
            weight = np.ones((nzp, nxp))

        for a in (a_xp, a_xm, a_zp, a_zm):
            a *= weight

        idx = np.arange(nzp * nxp).reshape(nzp, nxp)
        rows, cols, vals = [], [], []

        def add(r, c, v):
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append(v.ravel())

        diag = -(a_xp + a_xm) / dx2 - (a_zp + a_zm) / dz2
        add(idx, idx, diag.astype(complex))
        add(idx[:, :-1], idx[:, 1:], (a_xp[:, :-1] / dx2).astype(complex))
        add(idx[:, 1:], idx[:, :-1], (a_xm[:, 1:] / dx2).astype(complex))
        add(idx[:-1, :], idx[1:, :], (a_zp[:-1, :] / dz2).astype(complex))
        add(idx[1:, :], idx[:-1, :], (a_zm[1:, :] / dz2).astype(complex))

        if mixed.any():
            rot = (1.0 - mix) / (2.0 * dx2)
            r = idx[mixed]
            zz, xx = np.nonzero(mixed)
            add(r, r, np.full(r.size, -4.0 * rot, dtype=complex))
            for dz_ in (-1, 1):
                for dx_ in (-1, 1):
                    add(r, idx[zz + dz_, xx + dx_], np.full(r.size, rot, dtype=complex))

        n = nzp * nxp
        lap = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(n, n))
        lap.sum_duplicates()
        return lap

    def _build_mass_basis(self):
        gp = self.topology.grid_pad
        nxp, nzp = gp.nx, gp.nz
        s = self.scheme
        weights = {(0, 0): s.mass_center}
        for off in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            weights[off] = s.mass_edge
        for off in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            weights[off] = s.mass_corner

        idx = np.arange(nzp * nxp).reshape(nzp, nxp)
        rows, cols, vals = [], [], []
        for (dz_, dx_), w in weights.items():
            if w == 0.0:
                continue
            r = idx[max(0, -dz_):nzp - max(0, dz_), max(0, -dx_):nxp - max(0, dx_)]
            c = idx[max(0, dz_):nzp - max(0, -dz_), max(0, dx_):nxp - max(0, -dx_)]
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append(np.full(r.size, w))
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals).astype(complex) * self.damping[cols]
        n = nzp * nxp
        S = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        S.sum_duplicates()
        return S

    # -- operations --------------------------------------------------------

    def pad_model(self, m_values):
        """Extend a physical squared-slowness vector into the PML by edge
        replication."""
        m_values = np.asarray(m_values)
        if m_values.shape[0] != self.grid.n:
            raise ShapeError(f"model has {m_values.shape[0]} cells, grid holds {self.grid.n}")
        return m_values[self.topology.phys_of_pad]

    def scaled_mass(self, coeff):
        """omega^2 * S * diag(coeff) as a sparse matrix; for a wavefield u this
        is the mass linearization L(u), with A(m) u = Lap u + L(u) m_pad."""
        coeff = np.asarray(coeff)
        if coeff.shape[0] != self.topology.n_pad:
            raise ShapeError(f"vector has length {coeff.shape[0]}, padded grid holds {self.topology.n_pad}")
        S = self.mass_basis
        scaled = sp.csr_matrix((self.omega**2 * S.data * coeff[S.indices], S.indices, S.indptr),
                               shape=S.shape)
        return scaled

    def assemble(self, m_values):
        """A(m) for a physical squared-slowness vector."""
        return (self.laplacian + self.scaled_mass(self.pad_model(m_values))).tocsr()


def build_kernel(grid, omega, pml, scheme):
    """Construct the frequency-specific kernel for a resolved PML config."""
    return HelmholtzKernel(grid, omega, pml, scheme)


def _digest(A, b):
    """Content key of a forward solve: A as CSR and b, with shapes and dtypes."""
    A = sp.csr_matrix(A)
    h = hashlib.sha256()
    for arr in (A.indptr, A.indices, A.data, b):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.shape}{arr.dtype.str};".encode())
        h.update(arr)
    h.update(f"{A.shape}".encode())
    return h.digest()


def forward_solve(A, b):
    """Direct solve A u = b (general sparse LU; A is non-Hermitian under PML).

    Solutions are remembered by the content of (A, b), up to
    ``_FORWARD_MEMO_BYTES``, oldest first out: a repeated solve in the same
    process (data synthesis, then the reference wavefields of an inversion
    on the same model) does no second factorization.  Callers get copies.
    """
    b = np.asarray(b)
    if b.shape[0] != A.shape[0]:
        raise ShapeError(f"source vector has length {b.shape[0]}, "
                         f"operator dimension is {A.shape[0]}")
    key = _digest(A, b)
    with _forward_memo_lock:
        u = _forward_memo.get(key)
    if u is None:
        u = lu_factorize(A).solve(b)
        with _forward_memo_lock:
            _forward_memo[key] = u
            while sum(v.nbytes for v in _forward_memo.values()) > _FORWARD_MEMO_BYTES:
                _forward_memo.popitem(last=False)
    return u.copy()


def analytic_green_2d(grid, src, omega, v0):
    """Homogeneous-medium reference field at all cell centers.

    Returns -(i/4) H0^(1)(k r), the outgoing-wave solution of
    (Lap + k^2) u = delta matching the unit-amplitude source convention
    (impulse scaled by 1/(dx*dz)).  The source cell itself is set to zero
    and must be excluded from comparisons.
    """
    if v0 <= 0 or omega <= 0:
        raise ParameterError("analytic field needs positive velocity and frequency")
    from scipy.special import hankel1  # imported here: slow, off the CLI path
    k = omega / v0
    xs, zs = src
    x = grid.x_centers()[np.newaxis, :] - xs
    z = grid.z_centers()[:, np.newaxis] - zs
    r = np.sqrt(x**2 + z**2)
    field = np.zeros((grid.nz, grid.nx), dtype=complex)
    far = r > 0.25 * min(grid.dx, grid.dz)
    field[far] = -0.25j * hankel1(0, k * r[far])
    return field.ravel()
