import os

# One BLAS thread, set before numpy loads OpenBLAS: the systems here are
# small, and two spinning OpenBLAS threads on a shared host turned
# criterion 01's 0.2 s of dense solves into 12-45 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from iwri.grid import Grid2D, VelocityModel, velocity_to_slowness_sq
from iwri.helmholtz import PmlConfig, StencilScheme, build_kernel
from iwri.acquisition import AcquisitionGeometry


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_model(grid, rng, v_lo=1500.0, v_hi=2500.0):
    return velocity_to_slowness_sq(
        VelocityModel(grid, rng.uniform(v_lo, v_hi, grid.n)))


def tiny_kernel(nx=8, nz=6, dx=10.0, f=6.0, n_layers=3, scheme=None, v_ref=2000.0):
    grid = Grid2D(nx, nz, dx, dx)
    pml = PmlConfig(n_layers=n_layers).resolved(grid, v_ref)
    return build_kernel(grid, 2.0 * np.pi * f, pml, scheme or StencilScheme())


def line_geometry(grid, n_receivers=3):
    """Source on the left, receiver column on the right."""
    z_mid = grid.depth / 2.0
    rec_x = grid.width - 1.5 * grid.dx
    zs = (np.arange(n_receivers) + 0.5) * grid.depth / n_receivers
    return AcquisitionGeometry(sources=((1.5 * grid.dx, z_mid),),
                               receivers=tuple((rec_x, float(z)) for z in zs))
