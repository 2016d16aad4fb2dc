import math

import numpy as np
import pytest

from iwri.errors import GeometryError, ParameterError
from iwri.grid import Grid2D, build_homogeneous, velocity_to_slowness_sq
from iwri.helmholtz import PmlConfig, StencilScheme, analytic_green_2d, build_kernel
from iwri.acquisition import (AcquisitionGeometry, add_noise, build_observation,
                              build_source, ricker_spectrum, synthesize_data)


def make_topology(grid, n_layers=3):
    pml = PmlConfig(n_layers=n_layers).resolved(grid, 2000.0)
    return build_kernel(grid, 2 * np.pi * 5.0, pml, StencilScheme()).topology


def test_geometry_validation():
    grid = Grid2D(10, 8, 10.0, 10.0)
    with pytest.raises(GeometryError):
        AcquisitionGeometry(sources=(), receivers=((10.0, 10.0),))
    geo = AcquisitionGeometry(sources=((15.0, 15.0),), receivers=((200.0, 15.0),))
    with pytest.raises(GeometryError):
        geo.validate(grid)
    # receiver in the source cell is rejected
    geo = AcquisitionGeometry(sources=((15.0, 15.0),), receivers=((12.0, 12.0),))
    with pytest.raises(GeometryError):
        geo.validate(grid)
    AcquisitionGeometry(sources=((15.0, 15.0),),
                        receivers=((85.0, 15.0),)).validate(grid)


def test_observation_unit_rows():
    grid = Grid2D(8, 6, 10.0, 10.0)
    topo = make_topology(grid)
    # receiver exactly on a cell center: a unit basis vector row
    P = build_observation(topo, ((45.0, 25.0),))
    assert P.shape == (1, topo.n_pad)
    assert P.nnz == 1 and P.data[0] == 1.0
    expected_cell = topo.pad_of_phys[grid.flat_index(4, 2)]
    assert P.indices[0] == expected_cell
    # constant field samples to ones
    P3 = build_observation(topo, ((45.0, 25.0), (15.0, 35.0), (72.0, 48.0)))
    assert np.allclose(P3 @ np.ones(topo.n_pad), 1.0)


def test_observation_adjoint_dot_product(rng):
    grid = Grid2D(9, 7, 10.0, 10.0)
    topo = make_topology(grid)
    P = build_observation(topo, ((35.0, 25.0), (55.0, 45.0), (75.0, 15.0), (15.0, 55.0)))
    for _ in range(10):
        u = rng.standard_normal(topo.n_pad) + 1j * rng.standard_normal(topo.n_pad)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = np.vdot(w, P @ u)
        rhs = np.vdot(P.conjugate().T @ w, u)
        assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), 1.0)


def test_build_source_scaling():
    grid = Grid2D(8, 6, 10.0, 5.0)
    topo = make_topology(grid)
    b = build_source(topo, (35.0, 22.0), amplitude=2.0)
    nz = np.flatnonzero(b)
    assert nz.size == 1
    assert b[nz[0]] == 2.0 / (grid.dx * grid.dz)
    assert np.all(build_source(topo, (35.0, 22.0), amplitude=0.0) == 0.0)
    # halving the cell area doubles the stored coefficient
    fine = Grid2D(8, 6, 10.0, 2.5)
    bf = build_source(make_topology(fine), (35.0, 11.0), amplitude=2.0)
    assert np.max(np.abs(bf)) == 2.0 * np.max(np.abs(b))


def test_ricker_spectrum_values():
    assert ricker_spectrum(0.0, 5.0) == 0.0
    # peak at the dominant frequency (fine scan oracle)
    f = np.linspace(0.01, 30.0, 20000)
    w = np.array([ricker_spectrum(v, 5.0) for v in f])
    assert abs(f[np.argmax(w)] - 5.0) < 5e-3
    # closed-form ratio W(f0)/W(2 f0) = e^3 / 4
    ratio = ricker_spectrum(5.0, 5.0) / ricker_spectrum(10.0, 5.0)
    assert abs(ratio - math.exp(3.0) / 4.0) < 1e-6 * ratio
    for f, f0 in ((1.0, 0.0), (-1.0, 5.0), (1.0, math.nan), (math.nan, 5.0)):
        with pytest.raises(ParameterError):
            ricker_spectrum(f, f0)


def test_synthesize_data_linearity_and_determinism():
    grid = Grid2D(14, 10, 10.0, 10.0)
    m = velocity_to_slowness_sq(build_homogeneous(grid, 1800.0))
    geo = AcquisitionGeometry(sources=((15.0, 55.0),),
                              receivers=((125.0, 25.0), (125.0, 75.0)))
    pml = PmlConfig(n_layers=4)
    one = synthesize_data(m, geo, (4.0, 6.0), pml, StencilScheme(), f0=5.0)
    two = synthesize_data(m, geo, (4.0, 6.0), pml, StencilScheme(), f0=5.0)
    for a, b in zip(one.data, two.data):
        assert np.array_equal(a, b)
    assert one.noise_level.tolist() == [1e-5, 1e-5]
    # linearity in the source amplitude: scale the wavelet via f0 trick is
    # nonlinear, so scale through a manual source comparison instead
    m2 = velocity_to_slowness_sq(build_homogeneous(grid, 1800.0))
    kern = build_kernel(grid, 2 * np.pi * 4.0, pml.resolved(grid, 1800.0), StencilScheme())
    from iwri.helmholtz import forward_solve

    P = build_observation(kern.topology, geo.receivers)
    b1 = build_source(kern.topology, geo.sources[0], 1.0)
    u1 = forward_solve(kern.assemble(m2.values), b1)
    u2 = forward_solve(kern.assemble(m2.values), 2.0 * b1)
    assert np.allclose(P @ u2, 2.0 * (P @ u1), rtol=1e-12)


def test_synthesized_data_match_analytic_green_far_field():
    # homogeneous model: receiver data equal the analytic field to a few %
    grid = Grid2D(120, 90, 10.0, 10.0)
    v0, f = 1800.0, 5.0
    m = velocity_to_slowness_sq(build_homogeneous(grid, v0))
    src = (205.0, 455.0)
    receivers = ((1005.0, 255.0), (1065.0, 555.0), (905.0, 105.0))
    geo = AcquisitionGeometry(sources=(src,), receivers=receivers)
    data = synthesize_data(m, geo, (f,), PmlConfig(), StencilScheme(), f0=5.0)
    amp = ricker_spectrum(f, 5.0)
    ref_field = amp * analytic_green_2d(grid, src, 2 * np.pi * f, v0)
    ref = np.array([ref_field[grid.flat_index(*grid.nearest_cell(*r))] for r in receivers])
    got = data.data[0][:, 0]
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 0.02


def test_add_noise_exact_snr_and_determinism(rng):
    grid = Grid2D(10, 8, 10.0, 10.0)
    m = velocity_to_slowness_sq(build_homogeneous(grid, 1800.0))
    geo = AcquisitionGeometry(sources=((15.0, 45.0), (15.0, 25.0)),
                              receivers=tuple((85.0, (j + 0.5) * 10.0) for j in range(6)))
    clean = synthesize_data(m, geo, (4.0, 6.0, 8.0), PmlConfig(n_layers=3),
                            StencilScheme(), f0=5.0)
    noisy = add_noise(clean, 10.0, seed=77)
    for i, (c, n) in enumerate(zip(clean.data, noisy.data)):
        signal = np.sqrt(np.sum(np.abs(c) ** 2))
        noise = np.sqrt(np.sum(np.abs(n - c) ** 2))
        snr = 20.0 * np.log10(signal / noise)
        assert abs(snr - 10.0) < 1e-9
        assert abs(noisy.noise_level[i] - noise) < 1e-12 * noise
    again = add_noise(clean, 10.0, seed=77)
    for a, b in zip(noisy.data, again.data):
        assert np.array_equal(a, b)
    other = add_noise(clean, 10.0, seed=78)
    assert not np.array_equal(noisy.data[0], other.data[0])
    # same norm for different seeds (exact scaling)
    n1 = np.sqrt(np.sum(np.abs(noisy.data[0] - clean.data[0]) ** 2))
    n2 = np.sqrt(np.sum(np.abs(other.data[0] - clean.data[0]) ** 2))
    assert abs(n1 - n2) < 1e-12 * n1


def test_add_noise_infinite_snr_sentinel():
    grid = Grid2D(10, 8, 10.0, 10.0)
    m = velocity_to_slowness_sq(build_homogeneous(grid, 1800.0))
    geo = AcquisitionGeometry(sources=((15.0, 45.0),), receivers=((85.0, 45.0),))
    clean = synthesize_data(m, geo, (5.0,), PmlConfig(n_layers=3), StencilScheme())
    out = add_noise(clean, math.inf, seed=1)
    assert np.array_equal(out.data[0], clean.data[0])
    assert out.noise_level.tolist() == [1e-5]
    for snr_db in (math.nan, -math.inf):
        with pytest.raises(ParameterError):
            add_noise(clean, snr_db, seed=1)


def test_dataset_subset():
    grid = Grid2D(10, 8, 10.0, 10.0)
    m = velocity_to_slowness_sq(build_homogeneous(grid, 1800.0))
    geo = AcquisitionGeometry(sources=((15.0, 45.0),), receivers=((85.0, 45.0),))
    ds = synthesize_data(m, geo, (4.0, 6.0, 8.0), PmlConfig(n_layers=3), StencilScheme())
    sub = ds.subset([0, 2])
    assert sub.frequencies == (4.0, 8.0)
    assert np.array_equal(sub.data[1], ds.data[2])
    assert sub.source_scale == (ds.source_scale[0], ds.source_scale[2])
