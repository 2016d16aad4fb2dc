import copy
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from iwri.errors import ParameterError, ShapeError, SolverError
from iwri.grid import Bounds, Grid2D, VelocityModel, velocity_to_slowness_sq
from iwri.helmholtz import PmlConfig, StencilScheme, _grid_parts
from iwri.acquisition import AcquisitionGeometry, FrequencyDataset, add_noise, synthesize_data
from iwri.engine import (BoxConstraintState, InversionProblem, ModelNormalPlan, PenaltyParams,
                         Variant, estimate_model, init_state, inner_refine,
                         reconstruct_wavefield, update_data_dual, update_source_dual,
                         wri_gradient_m, wri_objective)
import iwri.engine as engine
import iwri.linalg as la
from iwri.linalg import assemble_normal_matrix, factorize, power_iteration_mu1
from iwri.presets import box_anomaly_setup
from iwri.workflow import InversionSettings

from tests_helpers_toy import filled_split_buffer, split_buffer_oracle


def tiny_problem(seed=5, frequencies=(5.0, 8.0), bounds=None, nx=8, nz=6,
                 v_span=(1700.0, 2000.0), bounds_mode="clip"):
    rng = np.random.default_rng(seed)
    grid = Grid2D(nx, nz, 10.0, 10.0)
    v_true = VelocityModel(grid, rng.uniform(*v_span, grid.n))
    m_true = velocity_to_slowness_sq(v_true)
    pml = PmlConfig(n_layers=3).resolved(grid, max(v_span))
    scheme = StencilScheme()
    geom = AcquisitionGeometry(
        sources=((15.0, grid.depth / 2.0),),
        receivers=((grid.width - 15.0, 15.0), (grid.width - 15.0, grid.depth - 15.0)))
    dataset = synthesize_data(m_true, geom, frequencies, pml, scheme, f0=5.0)
    problem = InversionProblem(grid, pml, scheme, dataset, bounds=bounds,
                               m_true=v_true, bounds_mode=bounds_mode)
    return problem, m_true, dataset


def dense_stacked_solve(A, P, lam, d_eff, b_eff):
    """Least-squares oracle for the wavefield subproblem."""
    top = np.sqrt(lam) * A.toarray()
    stacked = np.vstack([top, P.toarray()])
    rhs = np.concatenate([np.sqrt(lam) * b_eff, d_eff])
    return np.linalg.lstsq(stacked, rhs, rcond=None)[0]


def test_reconstruct_matches_dense_stacked_lstsq(rng):
    problem, m_true, dataset = tiny_problem()
    kern = problem.kernels[0]
    n_pad = problem.topology.n_pad
    for trial in range(20):
        m = np.asarray(rng.uniform(1.0 / 2100.0**2, 1.0 / 1500.0**2, problem.grid.n))
        lam = float(10.0 ** rng.uniform(-2, 3))
        d_eff = (dataset.data[0][:, 0]
                 + 1e-4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
        b_eff = (problem.sources[0][:, 0]
                 + 1e-5 * (rng.standard_normal(n_pad) + 1j * rng.standard_normal(n_pad)))
        A = kern.assemble(m)
        H = assemble_normal_matrix(A, problem.P, lam)
        fact = factorize(H)
        u = reconstruct_wavefield(fact, problem.P, A, lam, d_eff, b_eff)
        u_ref = dense_stacked_solve(A, problem.P, lam, d_eff, b_eff)
        assert np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref) < 1e-8
        # normal-equation residual invariant
        rhs = problem.P.conjugate().T @ d_eff + lam * (A.conjugate().T @ b_eff)
        assert np.linalg.norm(H @ u - rhs) / np.linalg.norm(rhs) < 1e-9


def test_reconstruct_exact_data_fixed_point():
    problem, m_true, dataset = tiny_problem()
    for i, kern in enumerate(problem.kernels):
        A = kern.assemble(m_true.values)
        lam = 1.0
        fact = factorize(assemble_normal_matrix(A, problem.P, lam))
        d = dataset.data[i][:, 0]
        b = problem.sources[i][:, 0]
        u = reconstruct_wavefield(fact, problem.P, A, lam, d, b)
        assert np.linalg.norm(A @ u - b) < 1e-8 * np.linalg.norm(b)
        assert np.linalg.norm(problem.P @ u - d) < 1e-8 * np.linalg.norm(d)


def test_reconstruct_large_lambda_limit(rng):
    problem, m_true, dataset = tiny_problem()
    kern = problem.kernels[0]
    m = np.full(problem.grid.n, 1.0 / 1850.0**2)
    A = kern.assemble(m)
    b_eff = problem.sources[0][:, 0]
    d_eff = dataset.data[0][:, 0]
    from iwri.linalg import lu_factorize

    u_pde = lu_factorize(A).solve(b_eff)
    gaps = []
    for lam in (1e2, 1e4, 1e6):
        fact = factorize(assemble_normal_matrix(A, problem.P, lam))
        u = reconstruct_wavefield(fact, problem.P, A, lam, d_eff, b_eff)
        gaps.append(np.linalg.norm(u - u_pde) / np.linalg.norm(u_pde))
    assert gaps[0] > gaps[1] > gaps[2]


def test_dual_update_formulas(rng):
    d_dual = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.array_equal(update_data_dual(d_dual, d, d.copy()), d_dual)
    Pu = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(update_data_dual(d_dual, d, Pu), d_dual + d - Pu)
    with pytest.raises(ShapeError):
        update_data_dual(d_dual, d, Pu[:-1])

    b_dual = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    Au = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert np.array_equal(update_source_dual(b_dual, b, b.copy(), 0.7), b_dual)
    # two half steps with an unchanged residual equal one full step
    r = b - Au
    half = update_source_dual(update_source_dual(b_dual, b, Au, 0.5), b, Au, 0.5)
    assert np.allclose(half, b_dual + r)
    with pytest.raises(ParameterError):
        update_source_dual(b_dual, b, Au, 0.0)


def test_objective_terms(rng):
    problem, m_true, dataset = tiny_problem()
    kern = problem.kernels[0]
    A = kern.assemble(m_true.values)
    b = problem.sources[0][:, 0]
    d = dataset.data[0][:, 0]
    from iwri.linalg import lu_factorize

    u_star = lu_factorize(A).solve(b)
    data_term, pde_term = wri_objective(A, problem.P, u_star, d, b, 2.0)
    signal = float(np.sum(np.abs(d) ** 2))
    assert data_term < 1e-16 * signal
    assert pde_term < 1e-16 * float(np.sum(np.abs(b) ** 2))
    # lambda scaling: pde term scales exactly, data term unchanged
    u = u_star + 0.01 * (rng.standard_normal(u_star.size) + 1j)
    d1, p1 = wri_objective(A, problem.P, u, d, b, 2.0)
    d2, p2 = wri_objective(A, problem.P, u, d, b, 6.0)
    assert d1 == d2 and abs(p2 - 3.0 * p1) < 1e-12 * p1


def test_reconstruction_is_the_minimizer(rng):
    problem, m_true, dataset = tiny_problem()
    kern = problem.kernels[1]
    m = np.full(problem.grid.n, 1.0 / 1900.0**2)
    A = kern.assemble(m)
    lam = 5.0
    d_eff = dataset.data[1][:, 0]
    b_eff = problem.sources[1][:, 0]
    fact = factorize(assemble_normal_matrix(A, problem.P, lam))
    u = reconstruct_wavefield(fact, problem.P, A, lam, d_eff, b_eff)
    base = sum(wri_objective(A, problem.P, u, d_eff, b_eff, lam))
    norm_u = np.linalg.norm(u)
    for _ in range(100):
        delta = rng.standard_normal(u.size) + 1j * rng.standard_normal(u.size)
        delta *= 1e-3 * norm_u / np.linalg.norm(delta)
        perturbed = sum(wri_objective(A, problem.P, u + delta, d_eff, b_eff, lam))
        assert perturbed >= base - 1e-14 * base


def test_gradient_zero_at_consistency():
    problem, m_true, dataset = tiny_problem()
    kern = problem.kernels[0]
    from iwri.linalg import lu_factorize

    A = kern.assemble(m_true.values)
    b = problem.sources[0][:, 0]
    u = lu_factorize(A).solve(b)
    g = wri_gradient_m(kern, m_true.values, u, b)
    scale = kern.omega**2 * np.max(np.abs(u)) * np.linalg.norm(b)
    assert np.max(np.abs(g)) < 1e-10 * scale


def test_gradient_matches_finite_differences(rng):
    # synthetic O(1) scales keep the quadratic finite-difference check
    # far from roundoff; the identity is scale-invariant
    grid = Grid2D(10, 8, 1.0, 1.0)
    pml = PmlConfig(n_layers=2, max_damping=3.0)
    kern = __import__("iwri.helmholtz", fromlist=["build_kernel"]).build_kernel(
        grid, 1.5, pml, StencilScheme())
    n_pad = kern.topology.n_pad
    m = rng.uniform(0.5, 1.5, grid.n)
    u = rng.standard_normal(n_pad) + 1j * rng.standard_normal(n_pad)
    b_eff = rng.standard_normal(n_pad) + 1j * rng.standard_normal(n_pad)
    g = wri_gradient_m(kern, m, u, b_eff)

    def objective(mv):
        r = kern.assemble(mv) @ u - b_eff
        return 0.5 * float(np.sum(np.abs(r) ** 2))

    h = 1e-6 * np.max(np.abs(m))
    for idx in rng.choice(grid.n, size=20, replace=False):
        mp, mm = m.copy(), m.copy()
        mp[idx] += h
        mm[idx] -= h
        fd = (objective(mp) - objective(mm)) / (2 * h)
        assert abs(fd - g[idx]) <= 1e-5 * max(abs(fd), 1e-12)


def test_gradient_lumped_mass_elementwise(rng):
    grid = Grid2D(8, 6, 1.0, 1.0)
    pml = PmlConfig(n_layers=0, max_damping=0.0)
    kern = __import__("iwri.helmholtz", fromlist=["build_kernel"]).build_kernel(
        grid, 2.0, pml, StencilScheme.five_point())
    m = rng.uniform(0.5, 1.5, grid.n)
    u = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    b_eff = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    g = wri_gradient_m(kern, m, u, b_eff)
    r = kern.assemble(m) @ u - b_eff
    expected = np.real(kern.omega**2 * np.conj(u) * r)  # per padded cell
    assert kern.topology.order == "F"  # no PML: the padded cells are the physical ones, renumbered
    assert np.allclose(g[kern.topology.phys_of_pad], expected, atol=1e-12 * np.max(np.abs(expected)))


def test_estimate_model_diagonal_case(rng):
    # lumped scheme, no PML: normal matrix diagonal, solution elementwise
    import scipy.sparse as sp

    n = 12
    L_diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    G = sp.diags(np.abs(L_diag) ** 2).tocsr()
    g = np.real(np.conj(L_diag) * y)
    box = BoxConstraintState.init(np.zeros(n), -np.inf, np.inf)
    m, _, warn = estimate_model(G, g, -np.inf, np.inf, box, mode="clip")
    assert not warn
    assert np.allclose(m, np.real(np.conj(L_diag) * y) / np.abs(L_diag) ** 2, rtol=1e-12)


def test_estimate_model_bounds_and_singular(rng, caplog):
    import scipy.sparse as sp

    n = 6
    G = sp.diags(np.ones(n)).tocsr()
    g = np.full(n, 10.0)
    box = BoxConstraintState.init(np.zeros(n), 0.0, 1.0)
    m, _, warn = estimate_model(G, g, 0.0, 1.0, box, mode="clip")
    assert np.all(m <= 1.0) and not warn
    m, _, warn = estimate_model(G, g, 0.0, 1.0, box, mode="bregman")
    assert np.all((0.0 <= m) & (m <= 1.0))
    # singular: zero matrix falls back to a shifted solve with a warning flag
    zero = sp.csr_matrix((n, n))
    with caplog.at_level("WARNING", logger="iwri.engine"):
        m, _, warn = estimate_model(zero, g, 0.0, 1.0,
                                    BoxConstraintState.init(np.zeros(n), 0.0, 1.0), mode="clip")
    assert warn
    assert [r.getMessage() for r in caplog.records] == [
        "singular model normal matrix, applying diagonal shift"]
    assert np.all((0.0 <= m) & (m <= 1.0))


def test_cycle_stationary_at_truth():
    for variant in (Variant.WRI, Variant.ADMM, Variant.PRSM):
        problem, m_true, dataset = tiny_problem(bounds=Bounds(1600.0, 2100.0),
                                                bounds_mode="bregman")
        params = PenaltyParams(lambdas=(2.0, 2.0), alpha=0.5, variant=variant)
        state = init_state(problem, m_true.values)
        for _ in range(3):
            inner_refine(problem, state, params)
        rel = np.linalg.norm(state.m_values - m_true.values) / np.linalg.norm(m_true.values)
        assert rel < 1e-6, f"{variant} drifted {rel}"


def test_cycle_dual_values_first_iteration():
    problem, m_true, dataset = tiny_problem()
    params = PenaltyParams(lambdas=(3.0, 1.0), alpha=0.5, variant=Variant.PRSM)
    state = init_state(problem, np.full(problem.grid.n, 1.0 / 1850.0**2))
    m0 = state.m_values.copy()
    A0 = [k.assemble(m0) for k in problem.kernels]
    inner_refine(problem, state, params)
    for i, kern in enumerate(problem.kernels):
        d = problem.observed[i]
        b = problem.sources[i]
        u = state.u[i]
        expect_d = d - problem.P @ u
        assert np.allclose(state.duals.data[i], expect_d, atol=1e-14)
        A1 = kern.assemble(state.m_values)
        expect_b = 0.5 * (b - A0[i] @ u) + 0.5 * (b - A1 @ u)
        assert np.allclose(state.duals.source[i], expect_b,
                           atol=1e-12 * np.max(np.abs(expect_b)))


def test_admm_running_sum_identity():
    problem, m_true, dataset = tiny_problem()
    params = PenaltyParams(lambdas=(3.0, 1.0), alpha=1.0, variant=Variant.ADMM)
    state = init_state(problem, np.full(problem.grid.n, 1.0 / 1850.0**2))
    sum_d = [np.zeros_like(problem.observed[i]) for i in range(2)]
    sum_b = [np.zeros((problem.topology.n_pad, 1), dtype=complex) for _ in range(2)]
    for _ in range(5):
        inner_refine(problem, state, params)
        for i, kern in enumerate(problem.kernels):
            A = kern.assemble(state.m_values)
            sum_d[i] += problem.observed[i] - problem.P @ state.u[i]
            sum_b[i] += problem.sources[i] - A @ state.u[i]
    for i in range(2):
        scale_d = max(np.max(np.abs(sum_d[i])), 1e-30)
        scale_b = max(np.max(np.abs(sum_b[i])), 1e-30)
        assert np.max(np.abs(state.duals.data[i] - sum_d[i])) < 1e-12 * scale_d
        assert np.max(np.abs(state.duals.source[i] - sum_b[i])) < 1e-12 * scale_b


def test_wri_duals_stay_zero():
    problem, m_true, dataset = tiny_problem()
    params = PenaltyParams(lambdas=(3.0, 1.0), variant=Variant.WRI)
    state = init_state(problem, np.full(problem.grid.n, 1.0 / 1850.0**2))
    for _ in range(3):
        inner_refine(problem, state, params)
    for i in range(2):
        assert np.all(state.duals.data[i] == 0.0)
        assert np.all(state.duals.source[i] == 0.0)


def test_inner_refine_reduces_to_cycle_and_counts_solves():
    problem, m_true, dataset = tiny_problem()
    m0 = np.full(problem.grid.n, 1.0 / 1850.0**2)

    params1 = PenaltyParams(lambdas=(3.0, 1.0), variant=Variant.PRSM, inner_iterations=1)
    s1 = init_state(problem, m0.copy())
    for _ in range(2):
        inner_refine(problem, s1, params1)
    assert s1.pde_solve_count == 2 * 2  # 2 freqs x 1 src x 2 cycles

    params3 = PenaltyParams(lambdas=(3.0, 1.0), variant=Variant.PRSM, inner_iterations=3)
    s3 = init_state(problem, m0.copy())
    inner_refine(problem, s3, params3)
    assert s3.pde_solve_count == 3 * 2  # three times faster growth per cycle


_CYCLE_CASES = [(Variant.WRI, 1), (Variant.WRI, 2), (Variant.ADMM, 1), (Variant.PRSM, 1),
                (Variant.PRSM, 2)]


@pytest.mark.parametrize("variant, inner_n", _CYCLE_CASES, ids=lambda c: getattr(c, "value", c))
def test_cycle_statistics_describe_the_returned_iterate(variant, inner_n):
    # the misfits are those of (m^{k+1}, u^{k+1}) recomputed independently,
    # and with one inner iteration the first cycle's initial misfit is
    # ||b - A(m^0) u^1|| stacked over the frequencies
    problem, m_true, dataset = tiny_problem(bounds=Bounds(1600.0, 2100.0), bounds_mode="bregman")
    params = PenaltyParams(lambdas=(3.0, 1.0), variant=variant, inner_iterations=inner_n)
    state = init_state(problem, np.full(problem.grid.n, 1.0 / 1850.0**2))
    A0 = [kern.assemble(state.m_values) for kern in problem.kernels]
    for k in range(3):
        stats = inner_refine(problem, state, params)
        for i, kern in enumerate(problem.kernels):
            u = state.u[i]
            pde = np.linalg.norm(problem.sources[i] - kern.assemble(state.m_values) @ u)
            data = np.linalg.norm(problem.P @ u - problem.observed[i])
            assert stats.pde_misfit_per_freq[i] == pytest.approx(pde, rel=1e-12)
            assert stats.data_misfit_per_freq[i] == pytest.approx(data, rel=1e-12)
        assert stats.pde_misfit == pytest.approx(np.linalg.norm(stats.pde_misfit_per_freq), rel=1e-12)
        assert stats.data_misfit == pytest.approx(np.linalg.norm(stats.data_misfit_per_freq), rel=1e-12)
        if k > 0:
            assert stats.initial_pde_misfit is None
        elif inner_n == 1:
            initial = np.sqrt(sum(np.linalg.norm(b - A @ u) ** 2
                                  for b, A, u in zip(problem.sources, A0, state.u)))
            assert stats.initial_pde_misfit == pytest.approx(initial, rel=1e-12)


def _equal(a, b):
    """Deep equality of the iterate's parts: dataclasses, sequences,
    ``dia_matrix``es, arrays and scalars."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_equal(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, sp.dia_matrix):
        return _equal(a.offsets, b.offsets) and _equal(a.data, b.data)
    if a is None:
        return b is None
    return np.array_equal(a, b)


@pytest.mark.parametrize("variant, inner_n", _CYCLE_CASES, ids=lambda c: getattr(c, "value", c))
def test_cycle_leaves_the_iterate_it_was_given_untouched(variant, inner_n):
    problem, m_true, dataset = tiny_problem(bounds=Bounds(1600.0, 2100.0), bounds_mode="bregman")
    params = PenaltyParams(lambdas=(3.0, 1.0), variant=variant, inner_iterations=inner_n)
    state = init_state(problem, np.full(problem.grid.n, 1.0 / 1850.0**2))
    for _ in range(3):
        held = (state.duals, state.box, state.m_values, state.assembled, state.u)
        copies = copy.deepcopy(held)
        inner_refine(problem, state, params)
        for name, obj, before in zip(("duals", "box", "m_values", "assembled", "u"), held, copies):
            assert _equal(obj, before), f"{name} was changed in place"
        assert state.box is not held[1] and state.box.gamma is not None


def test_estimate_model_returns_the_next_bregman_pair(rng):
    n = 6
    G = sp.diags(rng.uniform(1.0, 2.0, n)).tocsr()
    g = rng.uniform(-5.0, 15.0, n)
    box = BoxConstraintState.init(np.full(n, 0.5), 0.0, 1.0)
    before = copy.deepcopy(box)
    m, nxt, warn = estimate_model(G, g, 0.0, 1.0, box, mode="bregman")
    assert _equal(box, before) and box.gamma is None
    gamma = 0.1 * float(np.mean(G.diagonal()))
    m_raw = np.linalg.solve(G.toarray() + gamma * np.eye(n), g + gamma * (box.p - box.q))
    assert nxt.gamma == gamma and not warn
    assert np.array_equal(m, nxt.p) and m is not nxt.p
    assert np.allclose(nxt.p, np.clip(m_raw, 0.0, 1.0), rtol=1e-13)
    assert np.allclose(nxt.q, m_raw - nxt.p, rtol=1e-13, atol=1e-15)
    held = copy.deepcopy(nxt)
    _, last, _ = estimate_model(2.0 * G, g, 0.0, 1.0, nxt, mode="bregman")
    assert _equal(nxt, held) and last.gamma == gamma  # gamma is fixed by the first solve
    _, same, _ = estimate_model(G, g, 0.0, 1.0, nxt, mode="clip")
    assert same is nxt


def _box_problem(**kwargs):
    setup = box_anomaly_setup(**kwargs)
    geom = setup.geometry
    dataset = FrequencyDataset(frequencies=setup.frequencies, geometry=geom,
                               data=[np.zeros((geom.n_receivers, geom.n_sources))] * 3,
                               noise_level=[1.0] * 3)
    problem = InversionProblem(setup.true_model.grid, PmlConfig(), StencilScheme(), dataset,
                               bounds=setup.bounds)
    return setup, problem


def test_shared_layouts_factor_bit_equal_to_fresh(rng):
    # H from A as assembled and the plan one problem shares with the next
    # factor as H from a fresh read of A and a fresh plan do
    setup, problem = _box_problem()
    m = velocity_to_slowness_sq(setup.true_model).values
    n_pad = problem.topology.n_pad
    phys = problem.phys_ordering
    systems = []  # (band order, system through the shared maps, through fresh ones)
    for k in problem.kernels:
        A = k.assemble(m)
        fresh = la._diagonals(A.tocsr())
        assert np.array_equal(A.offsets, fresh.offsets)
        assert np.array_equal(A.data, fresh.data)
        systems.append((None, *(assemble_normal_matrix(M, problem.P, 0.3) for M in (A, fresh))))
    for _ in range(2):  # model systems of two wavefield sets: one pattern, other values
        us = rng.standard_normal((3, n_pad, 1)) + 1j * rng.standard_normal((3, n_pad, 1))
        systems.append((phys, *(engine._add_to_diagonal(plan.matrix(problem.kernels, us), 1.0)
                                for plan in (problem.model_normal,
                                             ModelNormalPlan(problem.topology,
                                                             problem.kernels[0].stencil, phys)))))
    rhs = rng.standard_normal((n_pad, 2)) + 1j * rng.standard_normal((n_pad, 2))
    for order, shared, fresh in systems:
        first, second = factorize(shared, ordering=order), factorize(fresh, ordering=order)
        assert np.array_equal(first._factor, second._factor)
        b = rhs if np.iscomplexobj(shared.data) else rhs.real[:problem.grid.n]
        assert np.array_equal(first.solve(b), second.solve(b))
    # the next problem on the same grid, PML and scheme builds none of them again
    again = _box_problem()[1]
    for name in ("phys_ordering", "model_normal"):
        assert getattr(again, name) is getattr(problem, name)
    assert again.kernels[0].stencil is problem.kernels[0].stencil


def test_diagonal_fill_equals_gathered_csr(rng):
    # H = P^H P + lam A^H A at 2.5, 5 and 7 Hz on the box for two models, and
    # N + gamma I, both written from their diagonals, against the buffers
    # read in block layout from the CSR matrices of the sparse products
    setup, problem = _box_problem()
    phys = problem.phys_ordering
    pairs = []
    for model in (setup.initial_model, setup.true_model):
        m = velocity_to_slowness_sq(model).values
        for k, lam in zip(problem.kernels, (0.3, 2.0, 40.0)):
            A, P = k.assemble(m), problem.P
            csr = (P.conjugate().T @ P + lam * (A.conjugate().T @ A)).tocsr()
            new = assemble_normal_matrix(A, P, lam)
            pairs.append((filled_split_buffer(new, complex), split_buffer_oracle(csr, None, complex)))
    natural = ModelNormalPlan(problem.topology, problem.kernels[0].stencil,
                              np.arange(problem.grid.n))
    shape = (3, problem.topology.n_pad, 1)
    for _ in range(2):
        us = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        gamma = 0.1 * float(np.mean(natural.matrix(problem.kernels, us).diagonal()))
        csr = natural.matrix(problem.kernels, us).tocsr() + gamma * sp.identity(problem.grid.n)
        new = engine._add_to_diagonal(problem.model_normal.matrix(problem.kernels, us), gamma)
        pairs.append((filled_split_buffer(new, float), split_buffer_oracle(csr, phys, float)))
    for new, old in pairs:
        assert np.array_equal(np.flatnonzero(new), np.flatnonzero(old))
        assert np.max(np.abs(new - old)) <= 1e-15 * np.max(np.abs(old))


def test_model_normal_plan_matches_product_loop(rng):
    import scipy.sparse as sp

    setup = box_anomaly_setup(nx=40, nz=28, dx=25.0)
    grid = setup.true_model.grid
    for sources in (((40.0, 200.0), (40.0, 500.0)), ((40.0, 200.0), (40.0, 350.0), (40.0, 500.0))):
        n_src = len(sources)
        geom = AcquisitionGeometry(sources=sources, receivers=setup.geometry.receivers)
        dataset = FrequencyDataset(frequencies=setup.frequencies, geometry=geom,
                                   data=[np.zeros((geom.n_receivers, n_src))] * 3, noise_level=[1.0] * 3)
        problem = InversionProblem(grid, PmlConfig(), StencilScheme(), dataset, bounds=setup.bounds)
        n_pad = problem.topology.n_pad
        R = sp.csr_matrix((np.ones(n_pad), (np.arange(n_pad), problem.topology.phys_of_pad)),
                          shape=(n_pad, grid.n))
        us = rng.standard_normal((3, n_pad, n_src)) + 1j * rng.standard_normal((3, n_pad, n_src))
        expected = None  # the per-(frequency, source) product loop the plan replaces
        for kern, u in zip(problem.kernels, us):
            for s in range(n_src):
                Lr = kern.scaled_mass(u[:, s]) @ R
                contrib = Lr.conjugate().T @ Lr
                expected = contrib if expected is None else expected + contrib
        perm = problem.phys_ordering  # the plan fills N in the band order
        expected = expected.real.tocsr()[perm][:, perm]
        normal = problem.model_normal.matrix(problem.kernels, us).tocsr()
        assert normal.dtype == np.float64
        assert abs(normal - expected).max() <= 1e-14 * abs(expected).max()
        assert normal.nnz == expected.nnz


def test_model_normal_offsets_are_those_of_the_stencil_pattern(rng):
    # N keeps the band diagonals that B^T B's pattern reaches through the
    # padding map, and no others (a fold of every stored Gram slot would add
    # all-zero diagonals far outside the band)
    setup, problem = _box_problem()
    kern = problem.kernels[0]
    G = (kern.stencil.T @ kern.stencil).tocoo()
    inv, phys = np.argsort(problem.phys_ordering), kern.topology.phys_of_pad
    expected = np.unique(inv[phys[G.col]] - inv[phys[G.row]])
    shape = (3, problem.topology.n_pad, 1)
    us = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    normal = problem.model_normal.matrix(problem.kernels, us)
    assert np.array_equal(problem.model_normal.offsets, expected)
    assert np.array_equal(normal.offsets, expected)
    assert factorize(engine._add_to_diagonal(normal, 1.0))._backend == "banded"


def test_model_normal_plan_same_from_every_kernel(rng):
    # every kernel and the plan hold the one topology and B that
    # _grid_parts keeps for (grid, PML, scheme), so one plan serves every
    # frequency; another scheme is another key, with another B and N
    setup = box_anomaly_setup()
    geom, grid = setup.geometry, setup.true_model.grid
    dataset = FrequencyDataset(frequencies=setup.frequencies, geometry=geom,
                               data=[np.zeros((geom.n_receivers, geom.n_sources))] * 3,
                               noise_level=[1.0] * 3)
    stencils, normals = [], []
    for scheme in (StencilScheme(), StencilScheme.five_point()):
        problem = InversionProblem(grid, PmlConfig(), scheme, dataset, bounds=setup.bounds)
        topology, stencil = _grid_parts(grid, problem.pml, scheme)
        assert all(k.topology is topology and k.stencil is stencil for k in problem.kernels)
        assert problem.model_normal.stencil is stencil
        shape = (3, topology.n_pad, geom.n_sources)
        us = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stencils.append(stencil)
        normals.append(problem.model_normal.matrix(problem.kernels, us))
    assert stencils[0].offsets.size == 5 and stencils[1].offsets.tolist() == [0]
    assert normals[0].offsets.size > 1 and normals[1].offsets.tolist() == [0]  # lumped: N diagonal


def test_wavefield_breakdown_names_padded_grid_cell(monkeypatch):
    # H is factored in the padded grid's band numbering, here z fastest on a
    # grid wider than tall; the error names the pivot's flat index and cell
    problem, m_true, dataset = tiny_problem(nx=9, nz=6)
    gp = problem.topology.grid_pad
    assert problem.topology.order == "F" and (gp.nx, gp.nz) == (15, 12)
    n, bad = problem.topology.n_pad, 5 * gp.nz + 2  # padded cell (ix, iz) = (5, 2)
    diagonal = np.ones(n, dtype=complex)
    diagonal[bad] = -1.0
    monkeypatch.setattr(engine, "assemble_normal_matrix",
                        lambda A, P, lam: sp.dia_matrix((diagonal[None], [0]), shape=(n, n)))
    state = init_state(problem, np.full(problem.grid.n, 1.0 / 1850.0**2))
    with pytest.raises(SolverError, match=f"pivot {bad}, padded cell \\(ix, iz\\) = \\(5, 2\\)") as info:
        inner_refine(problem, state, PenaltyParams(lambdas=(3.0, 1.0)))
    assert info.value.__cause__.pivot_index == bad


def test_wavefield_system_factored_in_its_own_order(monkeypatch):
    # on the box, H = P^H P + lam A^H A comes in band order (widest offset
    # 182) and is factored with no ordering; the model system keeps its own
    setup, problem = _box_problem()
    calls = []

    def factorize_spy(H, ordering=None):
        calls.append((np.iscomplexobj(H.data), int(np.max(np.abs(la._diagonals(H).offsets))), ordering))
        return la.factorize(H, ordering=ordering)

    monkeypatch.setattr(engine, "factorize", factorize_spy)
    state = init_state(problem, velocity_to_slowness_sq(setup.initial_model).values)
    inner_refine(problem, state, PenaltyParams(lambdas=(1.0, 1.0, 1.0)))
    assert [c[:2] for c in calls[:3]] == [(True, 182)] * 3
    assert all(ordering is None for *_, ordering in calls[:3])
    assert len(calls) == 4 and calls[3][2] is problem.phys_ordering
    assert np.array_equal(problem.pad_ordering, np.arange(problem.topology.n_pad))


def test_model_breakdown_names_physical_cell():
    # N given in band order with its ordering: the error names the physical cell
    n, bad = 12, 3
    perm = np.random.default_rng(7).permutation(n)
    assert perm[bad] != bad
    diagonal = np.ones(n)
    diagonal[bad] = -1.0
    normal = sp.dia_matrix((diagonal[None], [0]), shape=(n, n))
    box = BoxConstraintState.init(np.ones(n), -np.inf, np.inf)
    with pytest.raises(la.FactorizationError, match=f"pivot {perm[bad]}\\b") as info:
        estimate_model(normal, np.ones(n), -np.inf, np.inf, box, ordering=perm, mode="clip")
    assert info.value.pivot_index == perm[bad]


@pytest.mark.parametrize("ordering", [[0, 0, 2, 3, 4, 5], [5, 4, 3, 2, 1, 1], [0, 1, 2, 3, 4, -1],
                                      [0, 1, 2, 3, 4]])
def test_model_estimate_rejects_an_ordering_that_is_not_a_permutation(ordering):
    n = 6
    normal = sp.diags([np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)], [-1, 0, 1])
    box = BoxConstraintState.init(np.ones(n), -np.inf, np.inf)
    with pytest.raises(ShapeError):
        estimate_model(normal, np.ones(n), -np.inf, np.inf, box, ordering=np.array(ordering), mode="clip")


def test_wavefield_adjoint_product_equals_csc_product(rng):
    # A^H b through A^T with ascending offsets sums each entry in A's row
    # order, as the product with a CSR A's transpose does: equal to the bit
    class Identity:
        def solve(self, rhs):
            return rhs

    setup, problem = _box_problem()
    m = velocity_to_slowness_sq(setup.initial_model).values
    n_rec, n_pad = problem.geometry.n_receivers, problem.topology.n_pad
    d = rng.standard_normal((n_rec, 2)) + 1j * rng.standard_normal((n_rec, 2))
    b = rng.standard_normal((n_pad, 2)) + 1j * rng.standard_normal((n_pad, 2))
    P = problem.P
    for kern in problem.kernels:
        A = kern.assemble(m)
        expected = P.conjugate().T @ d + 0.3 * np.conj(A.tocsr().T @ np.conj(b))
        assert np.array_equal(reconstruct_wavefield(Identity(), P, A, 0.3, d, b), expected)


def test_problem_rejects_unknown_bounds_mode():
    # checked at set-up, before any factorization
    with pytest.raises(ParameterError):
        tiny_problem(bounds_mode="sideways")


def test_superlu_fallback_cycle_matches_banded(monkeypatch):
    problem, m_true, dataset = tiny_problem()
    params = PenaltyParams(lambdas=(3.0, 1.0), variant=Variant.PRSM)
    m0 = np.full(problem.grid.n, 1.0 / 1850.0**2)
    banded = init_state(problem, m0.copy())
    inner_refine(problem, banded, params)

    backends = []

    def factorize_spy(H, ordering=None):
        fact = la.factorize(H, ordering=ordering)
        backends.append(fact._backend)
        return fact

    monkeypatch.setattr(la, "_MAX_BAND_BYTES", 0)
    monkeypatch.setattr(engine, "factorize", factorize_spy)
    splu = init_state(problem, m0.copy())
    inner_refine(problem, splu, params)
    assert backends == ["splu"] * 3  # two wavefield systems, one model system
    for x, y in [(splu.m_values, banded.m_values), *zip(splu.u, banded.u)]:
        assert np.linalg.norm(x - y) / np.linalg.norm(y) <= 1e-10


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_penalty_params_reject_nonfinite(lam):
    with pytest.raises(ParameterError):
        PenaltyParams(lambdas=(1.0, lam))


def test_admm_rejects_inner_iterations():
    with pytest.raises(ParameterError):
        PenaltyParams(lambdas=(1.0,), variant=Variant.ADMM, inner_iterations=2)


def test_alpha_one_rejected_for_prsm_only():
    # alpha = 1 does not contract with prsm's two source-dual steps; admm's
    # single ascent is alpha = 1 by construction, and wri ignores alpha
    with pytest.raises(ParameterError, match="does not contract with prsm.*admm"):
        PenaltyParams(lambdas=(1.0,), alpha=1.0, variant=Variant.PRSM)
    for variant in (Variant.ADMM, Variant.WRI):
        assert PenaltyParams(lambdas=(1.0,), alpha=1.0, variant=variant).alpha == 1.0


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_engine_matches_dense_reference(variant):
    """Four cycles against an independently coded dense reference: wri
    keeps both duals at zero; admm takes one full source ascent (alpha = 1)
    after the model step; prsm takes alpha steps after both updates."""
    problem, m_true, dataset = tiny_problem(bounds=None, bounds_mode="clip")
    lambdas, cycles = (3.0, 7.0), 4
    params = PenaltyParams(lambdas=lambdas, alpha=0.5, variant=variant)
    state = init_state(problem, np.full(problem.grid.n, 1.0 / 1850.0**2))
    for _ in range(cycles):
        inner_refine(problem, state, params)

    duals = variant is not Variant.WRI
    mid_step = variant is Variant.PRSM
    alpha = 0.5 if mid_step else 1.0
    P = problem.P.toarray()
    R = np.zeros((problem.topology.n_pad, problem.grid.n))
    R[np.arange(problem.topology.n_pad), problem.topology.phys_of_pad] = 1.0
    m = np.full(problem.grid.n, 1.0 / 1850.0**2)
    d_dual = [np.zeros(2, dtype=complex) for _ in range(2)]
    b_dual = [np.zeros(problem.topology.n_pad, dtype=complex) for _ in range(2)]
    u_ref = [None, None]
    for _ in range(cycles):
        A = [k.assemble(m).toarray() for k in problem.kernels]
        for i, kern in enumerate(problem.kernels):
            d = dataset.data[i][:, 0]
            b = problem.sources[i][:, 0]
            H = P.conj().T @ P + lambdas[i] * A[i].conj().T @ A[i]
            u = np.linalg.solve(H, P.conj().T @ (d + d_dual[i])
                                + lambdas[i] * A[i].conj().T @ (b + b_dual[i]))
            u_ref[i] = u
            if duals:
                d_dual[i] = d_dual[i] + (d - P @ u)
            if mid_step:
                b_dual[i] = b_dual[i] + alpha * (b - A[i] @ u)
        GG, gg = np.zeros((problem.grid.n,) * 2), np.zeros(problem.grid.n)
        for i, kern in enumerate(problem.kernels):
            b = problem.sources[i][:, 0]
            S = kern.stencil.toarray() * kern.damping[None, :]
            Lfull = (kern.omega**2 * S * u_ref[i][None, :]) @ R
            y = b + b_dual[i] - kern.laplacian.toarray() @ u_ref[i]
            GG += np.real(Lfull.conj().T @ Lfull)
            gg += np.real(Lfull.conj().T @ y)
        m = np.linalg.solve(GG, gg)
        for i, kern in enumerate(problem.kernels):
            b = problem.sources[i][:, 0]
            if duals:
                b_dual[i] = b_dual[i] + alpha * (b - kern.assemble(m).toarray() @ u_ref[i])

    assert np.max(np.abs(state.m_values - m)) < 1e-9 * np.max(np.abs(m))
    for i in range(2):
        assert np.max(np.abs(state.u[i][:, 0] - u_ref[i])) < 1e-9 * np.max(np.abs(u_ref[i]))
        assert np.max(np.abs(state.duals.data[i][:, 0] - d_dual[i])) \
            < 1e-8 * max(np.max(np.abs(d_dual[i])), 1e-30)
        assert np.max(np.abs(state.duals.source[i][:, 0] - b_dual[i])) \
            < 1e-8 * max(np.max(np.abs(b_dual[i])), 1e-30)


def test_linearized_objective_identity(rng):
    # || L(u) m_pad - y ||^2 equals || A(m) u - b - b_half ||^2 for all m
    problem, m_true, dataset = tiny_problem()
    kern = problem.kernels[0]
    n_pad = problem.topology.n_pad
    u = rng.standard_normal(n_pad) + 1j * rng.standard_normal(n_pad)
    b_eff = problem.sources[0][:, 0] + 0.1 * rng.standard_normal(n_pad)
    for _ in range(5):
        m = rng.uniform(1.0 / 2200.0**2, 1.0 / 1500.0**2, problem.grid.n)
        direct = np.sum(np.abs(kern.assemble(m) @ u - b_eff) ** 2)
        L = kern.scaled_mass(u)
        linear = np.sum(np.abs(L @ kern.pad_model(m) - (b_eff - kern.laplacian @ u)) ** 2)
        assert abs(direct - linear) < 1e-12 * direct


def test_nonpositive_model_iterate_fails_fast():
    # unbounded clip mode on a very noisy box drives m below zero early;
    # the cycle raises before the iterate is accepted
    setup = box_anomaly_setup(nx=40, nz=28, dx=25.0)
    m_true = velocity_to_slowness_sq(setup.true_model)
    m0 = velocity_to_slowness_sq(setup.initial_model).values
    settings = InversionSettings(bounds=None, bounds_mode="clip", lambda_fraction=1e-1)
    dataset = add_noise(synthesize_data(m_true, setup.geometry, setup.frequencies,
                                        settings.pml, settings.scheme, f0=setup.f0), -10.0, 0)
    problem = InversionProblem(m_true.grid, settings.pml, settings.scheme, dataset,
                               m_true=setup.true_model, bounds_mode="clip")
    params = settings.penalty([power_iteration_mu1(k.assemble(m0), problem.P).value
                               for k in problem.kernels])
    state = init_state(problem, m0)
    with pytest.raises(SolverError) as info:
        for _ in range(5):
            inner_refine(problem, state, params)
    assert info.value.iteration == state.k
    assert info.value.frequency == setup.frequencies
    assert "(2.5, 5.0, 7.0) Hz" in str(info.value)
    assert np.all(state.m_values > 0)
