import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from iwri.errors import ParameterError, ShapeError
from iwri.grid import Bounds, Grid2D, VelocityModel, build_homogeneous, velocity_to_slowness_sq
from iwri.helmholtz import (PmlConfig, StencilScheme, analytic_green_2d, build_kernel,
                            forward_solve, pad_topology, resolve_pml)
from iwri.acquisition import build_source
from tests_helpers_toy import toy_helmholtz_system


def test_pml_config_validation():
    with pytest.raises(ParameterError):
        PmlConfig(n_layers=-1)
    with pytest.raises(ParameterError):
        PmlConfig(sides=frozenset({"north"}))
    grid = Grid2D(10, 10, 10.0, 10.0)
    resolved = PmlConfig(n_layers=10).resolved(grid, 2000.0)
    # damping rule: (p+1) v ln(1/R) / (2 L)
    expected = 3.0 * 2000.0 * np.log(1e8) / (2.0 * 100.0)
    assert np.isclose(resolved.max_damping, expected)
    explicit = PmlConfig(max_damping=123.0).resolved(grid, 2000.0)
    assert explicit.max_damping == 123.0
    # a zero exponent damps every cell at the full rate (0**0 = 1); a
    # non-finite exponent or damping gives a non-finite operator
    for bad in ({"profile_exponent": 0.0}, {"profile_exponent": -1.0},
                {"profile_exponent": np.nan}, {"profile_exponent": np.inf},
                {"max_damping": np.nan}, {"max_damping": np.inf}):
        with pytest.raises(ParameterError):
            PmlConfig(**bad)


def test_resolve_pml_reference_velocity():
    grid = Grid2D(4, 3, 10.0, 10.0)
    v_true = VelocityModel(grid, np.linspace(1700.0, 1950.0, grid.n))
    pml = PmlConfig(n_layers=2)
    # the upper bound, else the true model's maximum; a given damping is kept
    assert resolve_pml(pml, grid, Bounds(1600.0, 2100.0), v_true) == pml.resolved(grid, 2100.0)
    assert resolve_pml(pml, grid, None, v_true) == pml.resolved(grid, 1950.0)
    fixed = PmlConfig(n_layers=2, max_damping=5.0)
    assert resolve_pml(fixed, grid, None, None) is fixed
    with pytest.raises(ParameterError):
        resolve_pml(pml, grid, None, None)
    with pytest.raises(ParameterError):  # kernels take resolved configs only
        build_kernel(grid, 1.0, pml, StencilScheme())


def test_scheme_validation():
    with pytest.raises(ParameterError):
        StencilScheme(mass_center=0.9, mass_edge=0.1)
    with pytest.raises(ParameterError):
        StencilScheme(laplacian_mix=0.0)
    for bad in ({"mass_center": np.nan, "mass_edge": 0.0},  # a NaN sum passes a sum check
                {"mass_center": np.inf, "mass_edge": -np.inf}, {"laplacian_mix": np.nan}):
        with pytest.raises(ParameterError):
            StencilScheme(**bad)
    five = StencilScheme.five_point()
    assert five.laplacian_mix == 1.0 and five.mass_center == 1.0


def test_pad_topology_maps():
    # a wide grid, a tall grid and a wide grid with a free top, whose padded
    # grids are numbered z fastest, x fastest and z fastest
    for nx, nz, sides, order in ((5, 4, {"top", "bottom", "left", "right"}, "F"),
                                 (4, 5, {"top", "bottom", "left", "right"}, "C"),
                                 (5, 4, {"bottom", "left", "right"}, "F")):
        grid = Grid2D(nx, nz, 10.0, 10.0)
        topo = pad_topology(grid, PmlConfig(n_layers=2, max_damping=50.0, sides=frozenset(sides)))
        top = 2 if "top" in sides else 0  # free-surface top: no rows added above
        nx_pad, nz_pad = nx + 4, nz + top + 2
        assert (topo.grid_pad.nx, topo.grid_pad.nz) == (nx_pad, nz_pad)
        assert topo.order == order  # the shorter padded axis varies fastest
        # replication: padded corner maps to physical corner cell
        assert topo.phys_of_pad[0] == 0
        assert topo.phys_of_pad[-1] == grid.n - 1
        # injection/restriction are mutually consistent
        assert np.array_equal(topo.phys_of_pad[topo.pad_of_phys], np.arange(grid.n))
        # the first physical cell sits at padded (ix=2, iz=top)
        assert topo.pad_of_phys[0] == (2 * nz_pad + top if order == "F" else top * nx_pad + 2)
    # every side set at 0, 3 and 10 layers against the clipped-index construction,
    # on the wide and the tall grid
    for grid, n_layers in itertools.product((Grid2D(5, 4, 10.0, 10.0), Grid2D(4, 5, 10.0, 10.0)),
                                            (0, 3, 10)):
        for k in range(5):
            for sides in itertools.combinations(("top", "bottom", "left", "right"), k):
                topo = pad_topology(grid, PmlConfig(n_layers=n_layers, max_damping=50.0,
                                                    sides=frozenset(sides)))
                top, bottom, left, right = (n_layers if s in sides else 0
                                            for s in ("top", "bottom", "left", "right"))
                nx_pad, nz_pad = grid.nx + left + right, grid.nz + top + bottom
                assert topo.grid_pad == Grid2D(nx_pad, nz_pad, 10.0, 10.0)
                iz, ix = np.divmod(np.arange(grid.n), grid.nx)
                if nz_pad < nx_pad:  # z fastest: padded cell (ix, iz) at ix * nz_pad + iz
                    assert topo.order == "F"
                    ixp, izp = np.divmod(np.arange(topo.n_pad), nz_pad)
                    pad = (ix + left) * nz_pad + iz + top
                else:  # x fastest: padded cell (ix, iz) at iz * nx_pad + ix
                    assert topo.order == "C"
                    izp, ixp = np.divmod(np.arange(topo.n_pad), nx_pad)
                    pad = (iz + top) * nx_pad + ix + left
                phys = (np.clip(izp - top, 0, grid.nz - 1) * grid.nx
                        + np.clip(ixp - left, 0, grid.nx - 1))
                for got, want in ((topo.phys_of_pad, phys), (topo.pad_of_phys, pad)):
                    assert got.dtype == want.dtype and np.array_equal(got, want), (grid, n_layers, sides)


@pytest.mark.parametrize("nx,nz", [(12, 7), (7, 12)], ids=["wide", "tall"])
def test_band_numbering_gives_the_narrower_band(nx, nz):
    # A(m) in the chosen numbering against A(m) renumbered the other way
    grid = Grid2D(nx, nz, 10.0, 10.0)
    kern = build_kernel(grid, 2 * np.pi * 6.0, PmlConfig(n_layers=3).resolved(grid, 2000.0),
                        StencilScheme())
    A = kern.assemble(np.full(grid.n, 1.0 / 2000.0**2))
    gp, order = kern.topology.grid_pad, kern.topology.order
    other = {"F": "C", "C": "F"}[order]
    to_other = np.empty(gp.n, dtype=int)
    to_other[np.arange(gp.n).reshape((gp.nz, gp.nx), order=order)] = \
        np.arange(gp.n).reshape((gp.nz, gp.nx), order=other)
    coo = A.tocoo()
    band = int(np.max(np.abs(coo.row - coo.col)))
    assert band == int(np.max(np.abs(A.offsets))) == min(gp.nz, gp.nx) + 1
    assert band < int(np.max(np.abs(to_other[coo.row] - to_other[coo.col]))) == max(gp.nz, gp.nx) + 1


def test_low_frequency_limit_reduces_to_laplacian():
    # without damping layers the mass term vanishes as omega -> 0
    grid = Grid2D(6, 5, 10.0, 10.0)
    m = velocity_to_slowness_sq(build_homogeneous(grid, 2000.0))
    pml = PmlConfig(n_layers=0, max_damping=0.0)
    scheme = StencilScheme()
    for omega in (1e-2, 1e-4):
        kern = build_kernel(grid, omega, pml, scheme)
        gap = abs((kern.assemble(m.values) - kern.laplacian).tocsr()).max()
        assert gap <= omega**2 * m.values.max() * 1.0000001
    for omega in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ParameterError):
            build_kernel(grid, omega, pml, scheme)


def test_five_point_matrix_matches_hand_assembly():
    # 3x3 grid, no PML, degenerate scheme: classical stencil, Dirichlet edges
    grid = Grid2D(3, 3, 10.0, 5.0)
    rng = np.random.default_rng(1)
    m = velocity_to_slowness_sq(VelocityModel(grid, rng.uniform(1500, 2500, grid.n)))
    omega = 2 * np.pi * 6.0
    pml = PmlConfig(n_layers=0, max_damping=0.0)
    A = build_kernel(grid, omega, pml, StencilScheme.five_point()).assemble(m.values).toarray()

    expected = np.zeros((9, 9), dtype=complex)
    dx2, dz2 = grid.dx**2, grid.dz**2
    for iz in range(3):
        for ix in range(3):
            i = iz * 3 + ix
            expected[i, i] = -2.0 / dx2 - 2.0 / dz2 + omega**2 * m.values[i]
            if ix > 0:
                expected[i, i - 1] = 1.0 / dx2
            if ix < 2:
                expected[i, i + 1] = 1.0 / dx2
            if iz > 0:
                expected[i, i - 3] = 1.0 / dz2
            if iz < 2:
                expected[i, i + 3] = 1.0 / dz2
    assert np.max(np.abs(A - expected)) < 1e-14


def test_sparsity_at_most_nine_per_row():
    A, _ = toy_helmholtz_system(nx=14, nz=11, n_receivers=2)
    per_row = np.diff(A.tocsr().indptr)
    assert per_row.max() <= 9


def test_linearization_identity(rng):
    grid = Grid2D(6, 5, 10.0, 10.0)
    pml = PmlConfig(n_layers=3).resolved(grid, 2500.0)
    kern = build_kernel(grid, 2 * np.pi * 7.0, pml, StencilScheme())
    n_pad = kern.topology.n_pad
    for _ in range(10):
        m = rng.uniform(1e-7, 5e-7, grid.n)
        u = rng.standard_normal(n_pad) + 1j * rng.standard_normal(n_pad)
        A = kern.assemble(m)
        L = kern.scaled_mass(u)
        residual = A @ u - kern.laplacian @ u - L @ kern.pad_model(m)
        assert np.abs(residual).max() < 1e-12 * np.abs(A @ u).max()


def test_mass_linearization_shapes_and_lumped_diagonal(rng):
    grid = Grid2D(6, 5, 10.0, 10.0)
    pml = PmlConfig(n_layers=2).resolved(grid, 2000.0)
    kern = build_kernel(grid, 2 * np.pi * 5.0, pml, StencilScheme.five_point())
    n_pad = kern.topology.n_pad
    L = kern.scaled_mass(np.zeros(n_pad, dtype=complex))
    assert L.nnz == 0 or np.abs(L.data).max() == 0.0
    u = rng.standard_normal(n_pad) + 1j * rng.standard_normal(n_pad)
    L = kern.scaled_mass(u)
    off_diag = L - __import__("scipy.sparse", fromlist=["diags"]).diags(L.diagonal())
    assert abs(off_diag.tocsr()).max() == 0.0  # lumped mass: L (hence L^H L) diagonal
    with pytest.raises(ShapeError):
        kern.scaled_mass(u[:-1])


def test_plane_wave_residual_small_at_ten_points_per_wavelength():
    v0, f = 1800.0, 5.0
    h = (v0 / f) / 10.0
    grid = Grid2D(48, 48, h, h)
    m = velocity_to_slowness_sq(build_homogeneous(grid, v0))
    pml = PmlConfig(n_layers=6).resolved(grid, v0)
    kern = build_kernel(grid, 2 * np.pi * f, pml, StencilScheme())
    gp = kern.topology.grid_pad
    k_abs = 2 * np.pi * f / v0
    for theta in (0.0, 0.31, np.pi / 4):
        kx, kz = k_abs * np.cos(theta), k_abs * np.sin(theta)
        x = (np.arange(gp.nx) + 0.5) * h
        z = (np.arange(gp.nz) + 0.5) * h
        u = np.exp(1j * (kx * x[None, :] + kz * z[:, None])).ravel()
        r = (kern.assemble(m.values) @ u).reshape(gp.nz, gp.nx)
        interior = np.abs(r[16:-16, 16:-16]).max()
        mass_scale = (2 * np.pi * f) ** 2 * m.values[0]
        assert interior < 1e-2 * mass_scale


def test_forward_solve_constructed_solution(rng):
    A, _ = toy_helmholtz_system(nx=10, nz=8)
    ones = np.ones(A.shape[0], dtype=complex)
    A = A.tocsr()
    u = forward_solve(A, A @ ones)
    assert np.linalg.norm(u - ones) / np.sqrt(u.size) < 1e-9
    with pytest.raises(ShapeError):
        forward_solve(A, ones[:-1])


@pytest.fixture
def lu_calls(monkeypatch):
    """Empty forward-solve memo plus a log of the LUs forward_solve makes."""
    from collections import OrderedDict

    import iwri.helmholtz as helmholtz

    calls = []

    def lu_spy(A):
        calls.append(A.shape)
        return real_lu(A)

    real_lu = helmholtz.lu_factorize
    monkeypatch.setattr(helmholtz, "_forward_memo", OrderedDict())
    monkeypatch.setattr(helmholtz, "lu_factorize", lu_spy)
    return calls


def test_forward_solve_memo_keys_on_content(lu_calls, rng):
    A, _ = toy_helmholtz_system(nx=10, nz=8)
    A = A.tocsr()
    b = rng.standard_normal((A.shape[0], 2)) + 0j
    u = forward_solve(A, b)
    assert np.array_equal(forward_solve(A.copy(), b.copy()), u)  # equal content: a hit
    assert len(lu_calls) == 1
    u[:] = 0.0  # the caller's copy; the memo keeps its own
    assert np.linalg.norm(A @ forward_solve(A, b) - b) < 1e-9 * np.linalg.norm(b)
    assert len(lu_calls) == 1
    A2 = A.copy()
    A2.data[5] *= 1.0 + 1e-12
    forward_solve(A2, b)
    assert len(lu_calls) == 2
    b2 = b.copy()
    b2[3, 1] += 1e-12
    forward_solve(A, b2)
    assert len(lu_calls) == 3
    forward_solve(A, b[:, :1])  # same first column, other shape
    assert len(lu_calls) == 4


def test_forward_solve_memo_evicts_oldest(lu_calls, rng, monkeypatch):
    import iwri.helmholtz as helmholtz

    A, _ = toy_helmholtz_system(nx=10, nz=8)
    bs = [rng.standard_normal(A.shape[0]) + 0j for _ in range(3)]
    monkeypatch.setattr(helmholtz, "_FORWARD_MEMO_BYTES", 2 * bs[0].nbytes)
    for b in bs:
        forward_solve(A, b)
    assert len(lu_calls) == 3
    forward_solve(A, bs[2])
    forward_solve(A, bs[1])
    assert len(lu_calls) == 3
    forward_solve(A, bs[0])  # evicted when the third entry came in
    assert len(lu_calls) == 4


def test_forward_solve_memo_under_threads(lu_calls, rng, monkeypatch):
    import sys
    import threading

    import iwri.helmholtz as helmholtz

    A, _ = toy_helmholtz_system(nx=6, nz=5)
    bs = [rng.standard_normal(A.shape[0]) + 0j for _ in range(40)]
    monkeypatch.setattr(helmholtz, "_FORWARD_MEMO_BYTES", 20 * bs[0].nbytes)
    errors = []

    def work(offset):
        try:
            for i in range(300):
                b = bs[(i + offset) % len(bs)]
                if np.linalg.norm(A @ forward_solve(A, b) - b) > 1e-9 * np.linalg.norm(b):
                    errors.append(i)
        except Exception as exc:  # a race shows as an exception in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert sum(v.nbytes for v in helmholtz._forward_memo.values()) <= 20 * bs[0].nbytes


def test_reference_wavefields_reuse_synthesis(lu_calls):
    from iwri.acquisition import synthesize_data
    from iwri.engine import InversionProblem
    from iwri.presets import box_anomaly_setup

    setup = box_anomaly_setup()
    pml, scheme = PmlConfig(), StencilScheme()
    dataset = synthesize_data(velocity_to_slowness_sq(setup.true_model), setup.geometry,
                              setup.frequencies, pml, scheme, f0=setup.f0)
    assert len(lu_calls) == 3
    InversionProblem(setup.true_model.grid, pml, scheme, dataset, bounds=setup.bounds,
                     m_true=setup.true_model)
    assert len(lu_calls) == 3


def _green_setup(h, radius_factor=2.2, n_layers=10):
    v0, f = 1800.0, 5.0
    wavelength = v0 / f
    half = radius_factor * wavelength
    n = int(round(2 * half / h))
    grid = Grid2D(n, n, h, h)
    m = velocity_to_slowness_sq(build_homogeneous(grid, v0))
    pml = PmlConfig(n_layers=n_layers).resolved(grid, v0)
    kern = build_kernel(grid, 2 * np.pi * f, pml, StencilScheme())
    src = (grid.width / 2 + h / 2, grid.depth / 2 + h / 2)
    u = forward_solve(kern.assemble(m.values), build_source(kern.topology, src, 1.0))
    u_phys = u[kern.topology.pad_of_phys]
    ref = analytic_green_2d(grid, src, 2 * np.pi * f, v0)
    X, Z = np.meshgrid(grid.x_centers(), grid.z_centers())
    r = np.sqrt((X - src[0]) ** 2 + (Z - src[1]) ** 2).ravel()
    return grid, u_phys, ref, r, wavelength


def test_forward_solve_matches_analytic_green():
    # accuracy annulus sits at one wavelength for this module-level check
    grid, u, ref, r, wl = _green_setup(h=10.0)
    ring = (r >= wl) & (r <= 1.5 * wl)
    amp = np.abs(np.abs(u[ring]) - np.abs(ref[ring])) / np.abs(ref[ring])
    phase = np.abs(np.angle(u[ring] / ref[ring]))
    assert amp.max() < 0.05
    assert phase.max() < 0.05


def test_reciprocity():
    # exact for the symmetric degenerate scheme; approximate with spread mass
    grid = Grid2D(40, 30, 10.0, 10.0)
    m = velocity_to_slowness_sq(build_homogeneous(grid, 1800.0))
    pml = PmlConfig(n_layers=8).resolved(grid, 1800.0)
    pa, pb = (105.0, 155.0), (305.0, 95.0)
    for scheme, tol in ((StencilScheme.five_point(), 1e-6), (StencilScheme(), 1e-3)):
        kern = build_kernel(grid, 2 * np.pi * 5.0, pml, scheme)
        A = kern.assemble(m.values)
        ua = forward_solve(A, build_source(kern.topology, pa, 1.0))
        ub = forward_solve(A, build_source(kern.topology, pb, 1.0))
        ia = kern.topology.pad_of_phys[grid.flat_index(*grid.nearest_cell(*pa))]
        ib = kern.topology.pad_of_phys[grid.flat_index(*grid.nearest_cell(*pb))]
        assert abs(ua[ib] - ub[ia]) / abs(ua[ib]) < tol


def test_analytic_green_asymptotics():
    grid = Grid2D(500, 3, 5.0, 5.0)
    v0, f = 1500.0, 15.0
    omega = 2 * np.pi * f
    src = (2.5, 7.5)
    field = analytic_green_2d(grid, src, omega, v0).reshape(3, 500)[1]
    x = grid.x_centers() - 2.5
    wavelength = v0 / f
    # amplitude decays like 1/sqrt(r)
    i1 = np.argmin(np.abs(x - 10 * wavelength))
    i2 = np.argmin(np.abs(x - 20 * wavelength))
    ratio = np.abs(field[i2]) / np.abs(field[i1])
    assert abs(ratio - 1 / np.sqrt(2)) < 0.05 / np.sqrt(2)
    # phase advances by 2 pi per wavelength
    per_cell = np.angle(field[i1 + 1:i2 + 1] / field[i1:i2])
    cells_per_wavelength = wavelength / grid.dx
    assert np.allclose(per_cell.sum(), 2 * np.pi * (i2 - i1) / cells_per_wavelength, rtol=0.01)


def test_green_error_decreases_with_refinement():
    errors = []
    for h in (20.0, 10.0):
        grid, u, ref, r, wl = _green_setup(h=h)
        ring = (r >= wl) & (r <= 1.5 * wl)
        errors.append(np.max(np.abs(u[ring] - ref[ring]) / np.abs(ref[ring])))
    assert errors[1] < errors[0]


def test_pml_efficacy_boundary_ring():
    grid = Grid2D(60, 50, 10.0, 10.0)
    m = velocity_to_slowness_sq(build_homogeneous(grid, 1800.0))
    kern = build_kernel(grid, 2 * np.pi * 5.0, PmlConfig().resolved(grid, 1800.0),
                        StencilScheme())
    src = (grid.width / 2 + 5.0, grid.depth / 2 + 5.0)
    u = forward_solve(kern.assemble(m.values), build_source(kern.topology, src, 1.0))
    gp = kern.topology.grid_pad
    U = np.abs(u.reshape((gp.nz, gp.nx), order=kern.topology.order))
    ring = np.concatenate([U[0, :], U[-1, :], U[:, 0], U[:, -1]])
    assert ring.max() < 1e-3 * U.max()


def _csr_of_offset_table(topology, table):
    """Oracle: the CSR matrix whose row (iz, ix) holds each coefficient (a
    scalar, or an (nz, nx) array read at the row) in column (iz + dz,
    ix + dx) inside the padded grid, in the topology's numbering, exact
    zeros dropped, repeats summed."""
    nzp, nxp = topology.grid_pad.nz, topology.grid_pad.nx
    idx = np.arange(nzp * nxp).reshape((nzp, nxp), order=topology.order)
    rows, cols, vals = [], [], []
    for (dz, dx), coef in table:
        at_row = np.s_[max(0, -dz):nzp - max(0, dz), max(0, -dx):nxp - max(0, dx)]
        at_col = np.s_[max(0, dz):nzp - max(0, -dz), max(0, dx):nxp - max(0, -dx)]
        v = np.broadcast_to(coef, idx.shape)[at_row]
        keep = v != 0
        rows.append(idx[at_row][keep])
        cols.append(idx[at_col][keep])
        vals.append(v[keep])
    n = nzp * nxp
    mat = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n))
    mat.sum_duplicates()
    return mat


def _assert_same_entries(M, csr):
    got = M.tocsr()
    got.eliminate_zeros()
    got.sort_indices()
    assert got.dtype == csr.dtype
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(csr, part))


def test_operators_equal_csr_built_from_offset_tables(monkeypatch, rng):
    # on the box at its three frequencies, the diagonal-stored Lap, B,
    # omega^2 S diag(m) and A(m) hold exactly the entries of CSR matrices
    # built from the same offset tables, and no diagonal that is zero in all
    # of them; S diag(coeff) is formed on B's diagonals only
    import iwri.helmholtz as helmholtz
    from iwri.presets import box_anomaly_setup

    tables = []
    built = helmholtz._offset_matrix
    monkeypatch.setattr(helmholtz, "_offset_matrix",
                        lambda topo, table: tables.append(table) or built(topo, table))
    helmholtz._grid_parts.cache_clear()  # so that B's table is seen too
    setup = box_anomaly_setup()
    grid = setup.true_model.grid
    pml = PmlConfig().resolved(grid, setup.bounds.v_max)
    m = velocity_to_slowness_sq(setup.true_model).values
    kernels = [build_kernel(grid, 2 * np.pi * f, pml, StencilScheme()) for f in setup.frequencies]
    assert len(tables) == 4  # B once, then one Laplacian per frequency
    topo = kernels[0].topology
    assert topo.order == "F"  # the padded box is wider than tall
    gp = topo.grid_pad
    B = _csr_of_offset_table(topo, tables[0])
    r = rng.standard_normal((gp.n, 2)) + 1j * rng.standard_normal((gp.n, 2))
    for kern, table in zip(kernels, tables[1:]):
        lap = _csr_of_offset_table(topo, table)
        S = sp.csr_matrix((B.data * kern.damping[B.indices], B.indices, B.indptr), shape=B.shape)
        m_pad = kern.pad_model(m)
        mass = sp.csr_matrix((kern.omega**2 * S.data * m_pad[S.indices], S.indices, S.indptr),
                             shape=S.shape)
        A = (lap + mass).tocsr()
        assembled, scaled = kern.assemble(m), kern.scaled_mass(m_pad)
        for M, csr in ((kern.stencil, B), (kern.laplacian, lap), (scaled, mass), (assembled, A)):
            assert M.format == "dia"
            _assert_same_entries(M, csr)
        assert kern.stencil.offsets.size == 5
        for M in (kern.stencil, kern.laplacian, scaled, assembled):
            assert np.all(np.any(M.data != 0, axis=1))
        assert np.array_equal(assembled.offsets, kern.laplacian.offsets)
        assert np.all(np.isin(kern.stencil.offsets, kern.laplacian.offsets))
        # scaled_mass holds B's offsets and omega^2 (B c) coeff to the bit
        coeff = r[:, 0]
        L = kern.scaled_mass(coeff)
        assert np.array_equal(L.offsets, kern.stencil.offsets)
        assert np.array_equal(L.data, kern.omega**2 * (kern.stencil.data * kern.damping) * coeff)
        # B is symmetric, so B r is the oracle's B^T r to the bit
        assert np.array_equal(kern.stencil @ r, B.T @ r)
        _assert_same_entries(kern.stencil.T, B)
