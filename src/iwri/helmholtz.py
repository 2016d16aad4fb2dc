"""Discrete 2D Helmholtz operator with PML absorbing layers.

The operator splits exactly into a wavefield part and a model part,

    A(m) = Lap + omega^2 * S * diag(m_pad),      S = B * diag(c),

where ``Lap`` is the complex-stretched Laplacian (PML factors folded in),
``B`` spreads the mass term over the stencil nodes (anti-lumped mass) and
``c`` holds the diagonal PML damping coefficients.  Because ``c`` does not
depend on the model, ``A(m) u = Lap u + L(u) m_pad`` holds to machine
precision with ``L(u) = omega^2 * S * diag(u)``, which keeps the model
subproblem of the inversion exactly linear.  S is formed per call, on B's
five diagonals: the corners take no mass weight.

The PML enters the equation in multiplied-through form: with per-axis
stretch factors ``s = 1 + i*sigma/omega`` the Laplacian coefficients carry
``s_z/s_x`` (x-direction) and ``s_x/s_z`` (z-direction) at cell faces, and
the mass term carries ``c = s_x*s_z`` per cell.  The outer boundary of the
padded grid is homogeneous Dirichlet.  The padded grid is numbered in band
order (``band_numbering``), so its operators come in their band factor's order.

The 9-point scheme blends the axis-aligned 5-point Laplacian with its
45-degree rotated counterpart and spreads the mass term over center and
edge neighbors, none on the corners (the fixed weights of Jo, Shin and Suh
1996).  The rotated part is exact only for constant coefficients, so it is
applied on cells whose full 3x3 patch is undamped; inside the PML the
scheme degrades to the stretched 5-point form.  Setting the blend weight
to 1 and the mass spreading to pure lumping recovers the plain 5-point
scheme everywhere.
"""

import functools
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
        # 0**0 = 1 would damp every cell at the full rate
        if not 0.0 < self.profile_exponent < math.inf:
            raise ParameterError(f"profile_exponent must be finite and positive, got {self.profile_exponent}")
        if self.max_damping is not None and not 0.0 <= self.max_damping < math.inf:
            raise ParameterError(f"max_damping must be finite and nonnegative, got {self.max_damping}")
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
    weights (center, the four edge neighbors; the corners take none)."""

    laplacian_mix: float = 0.5461
    mass_center: float = 0.6248
    mass_edge: float = 0.0938

    def __post_init__(self):
        if not 0.0 < self.laplacian_mix <= 1.0:
            raise ParameterError(f"laplacian_mix must be in (0, 1], got {self.laplacian_mix}")
        weights = (self.mass_center, self.mass_edge)
        if not all(map(math.isfinite, weights)):
            raise ParameterError(f"mass weights must be finite, got {weights}")
        total = self.mass_center + 4 * self.mass_edge
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"mass weights must sum to 1, got {total}")

    @classmethod
    def five_point(cls):
        """Degenerate scheme: plain 5-point Laplacian, fully lumped mass."""
        return cls(laplacian_mix=1.0, mass_center=1.0, mass_edge=0.0)


def band_numbering(nz, nx):
    """``np.ravel``'s order giving an nz x nx grid's stencils the narrower band: the
    shorter axis varies fastest, z ("F") when nz < nx, else x ("C", row-major)."""
    return "F" if nz < nx else "C"


@dataclass(frozen=True)
class PaddedTopology:
    """Index maps between the physical grid and the PML-padded grid."""

    grid: Grid2D
    grid_pad: Grid2D
    phys_of_pad: np.ndarray  # physical cell replicated into each padded cell
    pad_of_phys: np.ndarray  # padded index of each physical cell
    order: str  # the padded grid's numbering, ``band_numbering`` of its shape

    @property
    def n_pad(self):
        return self.grid_pad.n


def pad_topology(grid, pml):
    top, bottom, left, right = (pml.n_layers if side in pml.sides else 0
                                for side in ("top", "bottom", "left", "right"))
    # edge padding of the physical index grid is the PML's edge replication
    phys_of_pad = np.pad(np.arange(grid.n).reshape(grid.nz, grid.nx),
                         ((top, bottom), (left, right)), mode="edge")
    nz_pad, nx_pad = phys_of_pad.shape
    order = band_numbering(nz_pad, nx_pad)
    pad_index = np.arange(nz_pad * nx_pad).reshape((nz_pad, nx_pad), order=order)
    return PaddedTopology(grid, Grid2D(nx_pad, nz_pad, grid.dx, grid.dz), phys_of_pad.ravel(order),
                          pad_index[top:top + grid.nz, left:left + grid.nx].ravel(), order)


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


def _offset_matrix(topology, table):
    """``dia_matrix`` on the padded grid, in the topology's numbering, from
    ``((dz, dx), coefficient)`` pairs: row (iz, ix) holds the coefficient (a
    scalar, or an (nz, nx) array read at the row) in column (iz + dz, ix + dx).
    Neighbours in the Dirichlet ring outside the grid are dropped, repeated
    offsets add up and all-zero diagonals are not stored."""
    nzp, nxp = topology.grid_pad.nz, topology.grid_pad.nx
    s_z, s_x = (1, nzp) if topology.order == "F" else (nxp, 1)  # index steps down and right
    dtype = np.result_type(*(coef for _, coef in table))
    diagonals = {}  # offset -> its entries by column, as a dia_matrix stores them
    for (dz, dx), coef in table:
        at_row = np.s_[max(0, -dz):nzp - max(0, dz), max(0, -dx):nxp - max(0, dx)]
        at_col = np.s_[max(0, dz):nzp - max(0, -dz), max(0, dx):nxp - max(0, -dx)]
        column = diagonals.setdefault(dz * s_z + dx * s_x, np.zeros((nzp, nxp), dtype))
        column[at_col] += np.broadcast_to(coef, (nzp, nxp))[at_row]
    offsets = sorted(k for k, column in diagonals.items() if column.any())
    return sp.dia_matrix((np.stack([diagonals[k].ravel(topology.order) for k in offsets]), offsets),
                         shape=(nzp * nxp,) * 2)


@functools.lru_cache(maxsize=1)
def _grid_parts(grid, pml, scheme):
    """The padded topology and the mass-spreading stencil B.  Neither
    depends on the frequency, so every kernel on one grid, PML and scheme
    shares one build (read only)."""
    topology = pad_topology(grid, pml)
    stencil = _offset_matrix(topology, [((0, 0), scheme.mass_center)]
                             + [(off, scheme.mass_edge) for off in ((0, 1), (0, -1), (1, 0), (-1, 0))])
    return topology, stencil


def _undamped_patch(sigma):
    """Cells of one axis whose three-cell neighbourhood is undamped, never
    the first or last cell."""
    ok = np.zeros(sigma.shape, dtype=bool)
    ok[1:-1] = (sigma[:-2] == 0.0) & (sigma[1:-1] == 0.0) & (sigma[2:] == 0.0)
    return ok


class HelmholtzKernel:
    """Frequency-specific operator pieces on the padded grid.

    Holds the stretched Laplacian, the real mass-spreading stencil B
    (``stencil``), the PML damping c (``damping``) and the physical/padded
    index maps, the matrices as ``dia_matrix``es in the padded grid's band
    numbering.  A(m) has Lap's offsets, and B's five are among them; the
    mass matrix S = B diag(c) is formed per call on B's diagonals only.
    """

    def __init__(self, grid, omega, pml, scheme):
        if not 0 < omega < math.inf:
            raise ParameterError(f"angular frequency must be finite and positive, got {omega}")
        if pml.max_damping is None:
            raise ParameterError("PML config must be resolved (max_damping set) to build a kernel")
        self.grid = grid
        self.omega = float(omega)
        self.topology, self.stencil = _grid_parts(grid, pml, scheme)

        gp = self.topology.grid_pad
        sigx_c, sigx_f = _axis_damping(gp.nx, grid.dx, pml.n_layers, "left" in pml.sides,
                                       "right" in pml.sides, pml.max_damping, pml.profile_exponent)
        sigz_c, sigz_f = _axis_damping(gp.nz, grid.dz, pml.n_layers, "top" in pml.sides,
                                       "bottom" in pml.sides, pml.max_damping, pml.profile_exponent)
        sx_c, sx_f, sz_c, sz_f = (1.0 + 1j * sig / omega for sig in (sigx_c, sigx_f, sigz_c, sigz_f))

        self.damping = (sx_c[np.newaxis, :] * sz_c[:, np.newaxis]).ravel(self.topology.order)

        # 5-point part with the face factors; on cells whose 3x3 patch is
        # undamped it is blended with the 45-degree rotated Laplacian
        mix = scheme.laplacian_mix if gp.dx == gp.dz else 1.0
        mixed = _undamped_patch(sigz_c)[:, None] & _undamped_patch(sigx_c)[None, :] & (mix < 1.0)
        weight = np.where(mixed, mix, 1.0)
        a_xp = sz_c[:, None] / sx_f[None, 1:] * weight
        a_xm = sz_c[:, None] / sx_f[None, :-1] * weight
        a_zp = sx_c[None, :] / sz_f[1:, None] * weight
        a_zm = sx_c[None, :] / sz_f[:-1, None] * weight
        dx2, dz2 = gp.dx**2, gp.dz**2
        rot = np.where(mixed, (1.0 - mix) / (2.0 * dx2), 0.0)
        self.laplacian = _offset_matrix(self.topology, [
            ((0, 0), -(a_xp + a_xm) / dx2 - (a_zp + a_zm) / dz2), ((0, 0), -4.0 * rot),
            ((0, 1), a_xp / dx2), ((0, -1), a_xm / dx2), ((1, 0), a_zp / dz2), ((-1, 0), a_zm / dz2),
        ] + [((dz, dx), rot) for dz in (-1, 1) for dx in (-1, 1)])
        self._mass_rows = np.searchsorted(self.laplacian.offsets, self.stencil.offsets)  # B's among A's

    # -- operations --------------------------------------------------------

    def pad_model(self, m_values):
        """Extend a physical squared-slowness vector into the PML by edge
        replication."""
        m_values = np.asarray(m_values)
        if m_values.shape[0] != self.grid.n:
            raise ShapeError(f"model has {m_values.shape[0]} cells, grid holds {self.grid.n}")
        return m_values[self.topology.phys_of_pad]

    def scaled_mass(self, coeff):
        """omega^2 * B diag(c * coeff) on B's diagonals (c scales each column);
        for a wavefield u this is the mass linearization L(u), with
        A(m) u = Lap u + L(u) m_pad."""
        coeff = np.asarray(coeff)
        if coeff.shape[0] != self.topology.n_pad:
            raise ShapeError(f"vector has length {coeff.shape[0]}, padded grid holds {self.topology.n_pad}")
        B = self.stencil
        return sp.dia_matrix((self.omega**2 * (B.data * self.damping) * coeff, B.offsets), shape=B.shape)

    def assemble(self, m_values):
        """A(m) for a physical squared-slowness vector."""
        data = self.laplacian.data.copy()
        for row, mass in zip(self._mass_rows, self.scaled_mass(self.pad_model(m_values)).data):
            data[row] += mass  # row by row: no gathered copy of B's rows
        return sp.dia_matrix((data, self.laplacian.offsets), shape=self.laplacian.shape)


def build_kernel(grid, omega, pml, scheme):
    """Construct the frequency-specific kernel for a resolved PML config."""
    return HelmholtzKernel(grid, omega, pml, scheme)


def _digest(A, b):
    """Content key of a forward solve: A as COO and b, with shapes and dtypes."""
    A = sp.coo_matrix(A)
    h = hashlib.sha256()
    for arr in (A.row, A.col, A.data, b):
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
