import numpy as np
import pytest

from iwri.errors import GeometryError, InvalidModelError
from iwri.grid import (Bounds, Grid2D, VelocityModel, build_homogeneous,
                       build_linear_gradient, embed_box, gaussian_smooth,
                       slowness_sq_to_velocity, velocity_to_slowness_sq)


def test_grid_validation():
    with pytest.raises(InvalidModelError):
        Grid2D(2, 5, 10.0, 10.0)
    with pytest.raises(InvalidModelError):
        Grid2D(5, 5, 0.0, 10.0)
    for dx, dz in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf), (-np.inf, 1.0)):
        with pytest.raises(InvalidModelError):
            Grid2D(4, 3, dx, dz)
    grid = Grid2D(4, 3, 10.0, 5.0)
    assert grid.n == 12
    assert grid.width == 40.0 and grid.depth == 15.0


def test_velocity_to_slowness_constant_1800():
    grid = Grid2D(5, 4, 10.0, 10.0)
    m = velocity_to_slowness_sq(build_homogeneous(grid, 1800.0))
    assert np.allclose(m.values, 3.0864e-7, rtol=1e-3)
    assert np.allclose(m.values, 1.0 / 1800.0**2, rtol=1e-15)


def test_velocity_to_slowness_round_numbers():
    grid = Grid2D(3, 3, 1.0, 1.0)
    m = velocity_to_slowness_sq(build_homogeneous(grid, 1000.0))
    assert np.allclose(m.values, 1e-6, rtol=1e-15)


def test_slowness_to_velocity():
    from iwri.grid import SlownessSqModel

    grid = Grid2D(3, 3, 1.0, 1.0)
    v = slowness_sq_to_velocity(SlownessSqModel(grid, np.full(grid.n, 1e-6)))
    assert np.allclose(v.values, 1000.0, rtol=1e-12)
    v = slowness_sq_to_velocity(SlownessSqModel(grid, np.full(grid.n, 3.0864e-7)))
    assert np.all(np.abs(v.values - 1800.0) < 0.01)


def test_round_trip_identity(rng):
    grid = Grid2D(9, 7, 10.0, 5.0)
    for _ in range(20):
        v = VelocityModel(grid, rng.uniform(100.0, 9000.0, grid.n))
        back = slowness_sq_to_velocity(velocity_to_slowness_sq(v))
        assert np.max(np.abs(back.values - v.values) / v.values) < 1e-12


def test_invalid_models_rejected():
    from iwri.grid import SlownessSqModel

    grid = Grid2D(3, 3, 1.0, 1.0)
    with pytest.raises(InvalidModelError):
        VelocityModel(grid, np.full(grid.n, -1.0))
    bad = np.ones(grid.n)
    bad[4] = np.nan
    with pytest.raises(InvalidModelError):
        VelocityModel(grid, bad)
    with pytest.raises(InvalidModelError):
        SlownessSqModel(grid, np.zeros(grid.n))


def test_build_homogeneous():
    grid = Grid2D(100, 70, 10.0, 10.0)
    v = build_homogeneous(grid, 1800.0)
    assert v.values.min() == v.values.max() == 1800.0
    tiny = build_homogeneous(Grid2D(3, 3, 1.0, 1.0), 1.0)
    assert np.array_equal(tiny.values, np.ones(9))


def brute_force_box_count(grid, x0, z0, side):
    count = 0
    for iz in range(grid.nz):
        for ix in range(grid.nx):
            cx, cz = (ix + 0.5) * grid.dx, (iz + 0.5) * grid.dz
            if x0 <= cx < x0 + side and z0 <= cz < z0 + side:
                count += 1
    return count


def test_embed_box_center_count():
    # experiment-scale box: 100 m side centered in a 1000 m x 700 m model, 10 m cells
    grid = Grid2D(100, 70, 10.0, 10.0)
    bg = build_homogeneous(grid, 1800.0)
    x0, z0, side = 450.0, 300.0, 100.0
    out = embed_box(bg, x0, z0, side, 2100.0)
    modified = int(np.sum(out.values != 1800.0))
    assert modified == brute_force_box_count(grid, x0, z0, side)
    assert modified == int(np.ceil(side / grid.dx) * np.ceil(side / grid.dz)) == 100


def test_embed_box_count_matches_brute_force(rng):
    grid = Grid2D(17, 13, 7.0, 9.0)
    bg = build_homogeneous(grid, 1000.0)
    for _ in range(25):
        side = float(rng.uniform(0.0, 40.0))
        x0 = float(rng.uniform(0.0, grid.width - side))
        z0 = float(rng.uniform(0.0, grid.depth - side))
        out = embed_box(bg, x0, z0, side, 1234.0)
        assert int(np.sum(out.values != 1000.0)) == brute_force_box_count(grid, x0, z0, side)


def test_embed_box_edge_cases():
    grid = Grid2D(10, 10, 10.0, 10.0)
    bg = build_homogeneous(grid, 1500.0)
    assert np.array_equal(embed_box(bg, 30.0, 30.0, 0.0, 9999.0).values, bg.values)
    same = embed_box(bg, 20.0, 20.0, 30.0, 1500.0)
    assert np.array_equal(same.values, bg.values)
    with pytest.raises(GeometryError):
        embed_box(bg, 80.0, 10.0, 30.0, 2000.0)


def test_linear_gradient():
    grid = Grid2D(6, 7, 10.0, 10.0)
    v = build_linear_gradient(grid, 1500.0, 3000.0)
    rows = v.as_2d()
    assert np.all(rows[0] == 1500.0)
    assert np.all(rows[-1] == 3000.0)
    assert np.allclose(rows[3], 2250.0)  # middle row of 7
    flat = build_linear_gradient(grid, 2000.0, 2000.0)
    assert np.all(flat.values == 2000.0)


def reference_smooth(field, sigma_z, sigma_x):
    """Dense separable Gaussian convolution with symmetric reflection."""

    def kernel(sigma):
        if sigma == 0:
            return np.array([1.0]), 0
        radius = int(4.0 * sigma + 0.5)
        t = np.arange(-radius, radius + 1)
        w = np.exp(-0.5 * (t / sigma) ** 2)
        return w / w.sum(), radius

    def reflect(idx, n):
        idx = np.mod(idx, 2 * n)
        return np.where(idx >= n, 2 * n - 1 - idx, idx)

    def convolve_axis(arr, sigma, axis):
        w, radius = kernel(sigma)
        if radius == 0:
            return arr.copy()
        moved = np.moveaxis(arr, axis, 0)
        n = moved.shape[0]
        out = np.zeros_like(moved)
        for j, t in enumerate(range(-radius, radius + 1)):
            out += w[j] * moved[reflect(np.arange(n) + t, n)]
        return np.moveaxis(out, 0, axis)

    return convolve_axis(convolve_axis(field, sigma_z, 0), sigma_x, 1)


def test_gaussian_smooth_identity_and_fixed_point(rng):
    grid = Grid2D(12, 9, 10.0, 10.0)
    v = VelocityModel(grid, rng.uniform(1500, 2500, grid.n))
    out = gaussian_smooth(v, 0.0, 0.0)
    assert np.array_equal(out.values, v.values)
    hom = build_homogeneous(grid, 1800.0)
    sm = gaussian_smooth(hom, 35.0, 20.0)
    assert np.max(np.abs(sm.values - 1800.0)) < 1e-9


def test_gaussian_smooth_spike_matches_dense_convolution():
    grid = Grid2D(21, 17, 10.0, 5.0)
    field = np.zeros((grid.nz, grid.nx))
    field[8, 10] = 100.0
    field += 1500.0
    v = VelocityModel(grid, field.ravel())
    corr_x, corr_z = 25.0, 12.0
    out = gaussian_smooth(v, corr_x, corr_z)
    ref = reference_smooth(field, corr_z / grid.dz, corr_x / grid.dx)
    assert np.max(np.abs(out.as_2d() - ref)) < 1e-9 * np.max(np.abs(ref))


def test_gaussian_smooth_preserves_mean_and_range(rng):
    grid = Grid2D(15, 11, 10.0, 10.0)
    for _ in range(10):
        v = VelocityModel(grid, rng.uniform(1400, 2600, grid.n))
        out = gaussian_smooth(v, rng.uniform(0, 40), rng.uniform(0, 40))
        assert abs(out.values.mean() - v.values.mean()) < 1e-10 * v.values.mean()
        assert out.values.min() >= v.values.min() - 1e-9
        assert out.values.max() <= v.values.max() + 1e-9


def test_bounds():
    with pytest.raises(InvalidModelError):
        Bounds(2000.0, 1500.0)
    lo, hi = Bounds(1800.0, 2100.0).slowness_sq_interval()
    assert lo == 1.0 / 2100.0**2 and hi == 1.0 / 1800.0**2
