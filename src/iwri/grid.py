"""Regular-grid subsurface models and parametrization conversions.

Fields are stored as flat float64 vectors in row-major order with x
fastest: cell (ix, iz) lives at index ``iz * nx + ix``.  Cell centers sit
at ``((ix + 0.5) * dx, (iz + 0.5) * dz)`` so a grid of nx cells spans
exactly ``nx * dx`` meters.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InvalidModelError


@dataclass(frozen=True)
class Grid2D:
    """Regular 2D grid: nx columns, nz rows, spacings in meters."""

    nx: int
    nz: int
    dx: float
    dz: float

    def __post_init__(self):
        if self.nx < 3 or self.nz < 3:
            raise InvalidModelError(f"grid must be at least 3x3, got {self.nx}x{self.nz}")
        if not (0 < self.dx < np.inf and 0 < self.dz < np.inf):
            raise InvalidModelError(f"grid spacings must be finite and positive, got {self.dx}, {self.dz}")

    @property
    def n(self):
        return self.nx * self.nz

    @property
    def width(self):
        return self.nx * self.dx

    @property
    def depth(self):
        return self.nz * self.dz

    def x_centers(self):
        return (np.arange(self.nx) + 0.5) * self.dx

    def z_centers(self):
        return (np.arange(self.nz) + 0.5) * self.dz

    def contains(self, x, z):
        return 0.0 <= x <= self.width and 0.0 <= z <= self.depth

    def nearest_cell(self, x, z):
        """(ix, iz) of the cell whose center is closest to (x, z)."""
        if not self.contains(x, z):
            raise GeometryError(f"position ({x}, {z}) outside grid "
                                f"[0, {self.width}] x [0, {self.depth}]")
        ix = min(self.nx - 1, max(0, int(np.floor(x / self.dx))))
        iz = min(self.nz - 1, max(0, int(np.floor(z / self.dz))))
        return ix, iz

    def flat_index(self, ix, iz):
        return iz * self.nx + ix


def _check_field(grid, values, what):
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size != grid.n:
        raise InvalidModelError(f"{what} has {values.size} values, grid holds {grid.n} cells")
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise InvalidModelError(f"{what} contains a non-finite value at index {bad}")
    if np.any(values <= 0.0):
        bad = int(np.flatnonzero(values <= 0.0)[0])
        raise InvalidModelError(f"{what} must be strictly positive, violated at index {bad}")
    return values


@dataclass
class _Field:
    """Checked field on a Grid2D, the body of both model types (``_what`` names one in errors)."""

    grid: Grid2D
    values: np.ndarray
    _what = "field"

    def __post_init__(self):
        self.values = _check_field(self.grid, self.values, self._what)

    def as_2d(self):
        return self.values.reshape(self.grid.nz, self.grid.nx)


class VelocityModel(_Field):
    """Velocity field in m/s on a Grid2D (the I/O and display parametrization)."""

    _what = "velocity model"


class SlownessSqModel(_Field):
    """Squared slowness (s^2/m^2), the optimization variable of the inversion."""

    _what = "squared-slowness model"


@dataclass(frozen=True)
class Bounds:
    """Velocity bounds in m/s; converted to a squared-slowness interval."""

    v_min: float
    v_max: float

    def __post_init__(self):
        if not 0.0 < self.v_min < self.v_max:
            raise InvalidModelError(f"bounds need 0 < v_min < v_max, got {self.v_min}, {self.v_max}")

    def slowness_sq_interval(self):
        """(lo, hi) admissible interval for squared slowness."""
        return 1.0 / self.v_max**2, 1.0 / self.v_min**2


def velocity_to_slowness_sq(v):
    """m = 1/v^2 elementwise."""
    return SlownessSqModel(v.grid, 1.0 / v.values**2)


def slowness_sq_to_velocity(m):
    """v = 1/sqrt(m) elementwise."""
    return VelocityModel(m.grid, 1.0 / np.sqrt(m.values))


def build_homogeneous(grid, v0):
    """Constant-velocity model."""
    if v0 <= 0:
        raise InvalidModelError(f"background velocity must be positive, got {v0}")
    return VelocityModel(grid, np.full(grid.n, float(v0)))


def embed_box(background, x0, z0, side, v_box):
    """Overwrite with v_box every cell whose center lies in the square
    [x0, x0+side) x [z0, z0+side) (closed-left/open-right rule)."""
    grid = background.grid
    if side < 0:
        raise GeometryError(f"box side must be nonnegative, got {side}")
    if not (0.0 <= x0 and x0 + side <= grid.width and 0.0 <= z0 and z0 + side <= grid.depth):
        raise GeometryError(f"box [{x0}, {x0 + side}] x [{z0}, {z0 + side}] "
                            f"outside grid [0, {grid.width}] x [0, {grid.depth}]")
    out = background.values.copy().reshape(grid.nz, grid.nx)
    in_x = (grid.x_centers() >= x0) & (grid.x_centers() < x0 + side)
    in_z = (grid.z_centers() >= z0) & (grid.z_centers() < z0 + side)
    out[np.ix_(in_z, in_x)] = v_box
    return VelocityModel(grid, out.ravel())


def build_linear_gradient(grid, v_top, v_bottom):
    """Velocity increasing linearly with row index: the first row is exactly
    v_top, the last exactly v_bottom, constant along x."""
    if v_top <= 0 or v_bottom <= 0:
        raise InvalidModelError("gradient endpoints must be positive")
    rows = v_top + (v_bottom - v_top) * np.arange(grid.nz) / (grid.nz - 1)
    return VelocityModel(grid, np.repeat(rows, grid.nx))


def gaussian_smooth(model, corr_x, corr_z):
    """Separable Gaussian smoothing with standard deviations in meters.

    Edges are handled by symmetric reflection, which keeps homogeneous
    models fixed, preserves the field mean, and keeps values inside
    [min(input), max(input)].  corr = 0 returns the input unchanged.
    """
    if corr_x < 0 or corr_z < 0:
        raise InvalidModelError("correlation lengths must be nonnegative")
    if corr_x == 0 and corr_z == 0:
        return VelocityModel(model.grid, model.values.copy())
    from scipy.ndimage import gaussian_filter  # imported here: slow, off the CLI path
    grid = model.grid
    sig = (corr_z / grid.dz, corr_x / grid.dx)
    smoothed = gaussian_filter(model.as_2d(), sigma=sig, mode="reflect")
    return VelocityModel(grid, smoothed.ravel())
