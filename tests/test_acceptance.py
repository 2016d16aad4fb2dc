"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream the lines.

The box-model criteria share a single synthesized dataset and reuse
trajectories where the protocol allows it.  Their results do not depend on
test order: every count is read from the stored per-cycle misfits.  Only a
later criterion's wall time does, since a run extended once is not rerun.
"""

import math
import time

import numpy as np
import pytest

from iwri.grid import Grid2D, VelocityModel, build_homogeneous, velocity_to_slowness_sq
from iwri.helmholtz import (PmlConfig, StencilScheme, analytic_green_2d, build_kernel,
                            forward_solve)
from iwri.acquisition import (AcquisitionGeometry, add_noise, build_observation,
                              build_source, synthesize_data)
from iwri.engine import (InversionProblem, PenaltyParams, Variant, init_state,
                         inner_refine, model_error, reconstruct_wavefield,
                         wavefield_error, wri_gradient_m)
from iwri.linalg import assemble_normal_matrix, factorize, power_iteration_mu1
from iwri.presets import box_anomaly_setup
from iwri.refinement import DenseProblem, accumulated_rhs_solve, iterative_refine
from iwri.workflow import compute_lambda, estimate_mu1


def _line(num, name, ok, detail):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- shared box-model state ----------------------------------------------------


class BoxRuns:
    """Box-anomaly experiment shared by criteria 7-10."""

    def __init__(self):
        self.setup = box_anomaly_setup()
        grid = self.setup.true_model.grid
        self.m_true = velocity_to_slowness_sq(self.setup.true_model)
        self.m0 = velocity_to_slowness_sq(self.setup.initial_model)
        self.pml = PmlConfig().resolved(grid, self.setup.bounds.v_max)
        self.scheme = StencilScheme()
        self.dataset = synthesize_data(self.m_true, self.setup.geometry,
                                       self.setup.frequencies, self.pml, self.scheme,
                                       f0=self.setup.f0)
        self.problem = InversionProblem(grid, self.pml, self.scheme, self.dataset,
                                        bounds=self.setup.bounds,
                                        m_true=self.setup.true_model)
        self.lambdas = tuple(compute_lambda(estimate_mu1(kern, self.m0.values, self.problem.P),
                                            1e-4) for kern in self.problem.kernels)
        self.runs = {}
        self.wall = {}

    def params(self, variant, alpha=0.5, inner=1):
        return PenaltyParams(lambdas=self.lambdas, alpha=alpha, variant=variant,
                             inner_iterations=inner)

    def run(self, key, variant, *, alpha=0.5, inner=1, cycles=None, solve_budget=None,
            threshold=None, cap=None):
        """Run (or extend) a trajectory; records misfits and errors per cycle.

        With ``threshold`` the run stops once ``first_hit(run, threshold)`` is
        known, so it is extended only as far as that query needs.
        """
        if key in self.runs:
            run = self.runs[key]
        else:
            run = dict(state=init_state(self.problem, self.m0.values),
                       pde=[], data=[], merr=[], uerr=[], solves=[], initial=None)
            self.runs[key] = run
        state = run["state"]
        params = self.params(variant, alpha=alpha, inner=inner)
        t0 = time.perf_counter()
        while True:
            if cycles is not None and state.k >= cycles:
                break
            if solve_budget is not None and state.pde_solve_count >= solve_budget:
                break
            if cap is not None and state.k >= cap:
                break
            if threshold is not None and first_hit(run, threshold) is not None:
                break
            stats = inner_refine(self.problem, state, params)
            if stats.initial_pde_misfit is not None:
                run["initial"] = stats.initial_pde_misfit
            run["pde"].append(stats.pde_misfit)
            run["data"].append(stats.data_misfit)
            run["merr"].append(model_error(self.problem, state))
            run["uerr"].append(wavefield_error(self.problem, state))
            run["solves"].append(state.pde_solve_count)
        self.wall[key] = self.wall.get(key, 0.0) + time.perf_counter() - t0
        return run


def first_hit(run, threshold):
    """First cycle k with pde[k-1] <= threshold * initial in the stored
    trajectory, or None if no stored cycle reaches it."""
    return next((k for k, pde in enumerate(run["pde"], 1)
                 if pde <= threshold * run["initial"]), None)


@pytest.fixture(scope="module")
def box():
    return BoxRuns()


# -- criteria -------------------------------------------------------------------


def test_criterion_01_dense_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    grid = Grid2D(8, 6, 10.0, 10.0)
    pml = PmlConfig(n_layers=3).resolved(grid, 2100.0)
    scheme = StencilScheme()
    kern = build_kernel(grid, 2 * np.pi * 6.0, pml, scheme)
    n_pad = kern.topology.n_pad
    geom = AcquisitionGeometry(sources=((15.0, 25.0),),
                               receivers=((65.0, 15.0), (65.0, 45.0)))
    P = build_observation(kern.topology, geom.receivers)
    worst = 0.0
    for _ in range(20):
        m = rng.uniform(1.0 / 2100.0**2, 1.0 / 1500.0**2, grid.n)
        lam = float(10.0 ** rng.uniform(-2.0, 3.0))
        b = build_source(kern.topology, geom.sources[0], 1.0)
        b_dual = 1e-5 * (rng.standard_normal(n_pad) + 1j * rng.standard_normal(n_pad))
        d_dual = 1e-4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        d = 1e-4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        A = kern.assemble(m)
        fact = factorize(assemble_normal_matrix(A, P, lam))
        u = reconstruct_wavefield(fact, P, A, lam, d + d_dual, b + b_dual)
        stacked = np.vstack([np.sqrt(lam) * A.toarray(), P.toarray()])
        rhs = np.concatenate([np.sqrt(lam) * (b + b_dual), d + d_dual])
        u_ref = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
        worst = max(worst, float(np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    _line(1, "dense-oracle equivalence", ok,
          f"worst rel err {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_criterion_02_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    grid = Grid2D(10, 8, 1.0, 1.0)
    kern = build_kernel(grid, 1.5, PmlConfig(n_layers=2, max_damping=3.0), StencilScheme())
    n_pad = kern.topology.n_pad
    m = rng.uniform(0.5, 1.5, grid.n)
    u = rng.standard_normal(n_pad) + 1j * rng.standard_normal(n_pad)
    b_eff = rng.standard_normal(n_pad) + 1j * rng.standard_normal(n_pad)
    g = wri_gradient_m(kern, m, u, b_eff)

    def objective(mv):
        r = kern.assemble(mv) @ u - b_eff
        return 0.5 * float(np.sum(np.abs(r) ** 2))

    h = 1e-6 * float(np.max(np.abs(m)))
    worst = 0.0
    for idx in rng.choice(grid.n, size=20, replace=False):
        mp, mm = m.copy(), m.copy()
        mp[idx] += h
        mm[idx] -= h
        fd = (objective(mp) - objective(mm)) / (2 * h)
        worst = max(worst, abs(fd - g[idx]) / max(abs(fd), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    _line(2, "gradient vs finite differences", ok,
          f"worst rel err {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-5
    assert elapsed < 10.0


def test_criterion_03_linearization_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(10):
        grid = Grid2D(int(rng.integers(5, 10)), int(rng.integers(5, 9)), 10.0, 10.0)
        pml = PmlConfig(n_layers=int(rng.integers(0, 4))).resolved(grid, 2200.0)
        kern = build_kernel(grid, 2 * np.pi * rng.uniform(3.0, 9.0), pml, StencilScheme())
        m = rng.uniform(1e-7, 5e-7, grid.n)
        u = rng.standard_normal(kern.topology.n_pad) * (1 + 1j)
        A = kern.assemble(m)
        gap = A @ u - kern.laplacian @ u - kern.scaled_mass(u) @ kern.pad_model(m)
        worst = max(worst, float(np.abs(gap).max() / np.abs(A @ u).max()))
    ok = worst < 1e-12
    _line(3, "mass linearization identity", ok, f"worst rel gap {worst:.2e}")
    assert worst < 1e-12


def test_criterion_04_helmholtz_accuracy():
    t0 = time.perf_counter()
    v0, f = 1800.0, 5.0
    wavelength = v0 / f

    def green_error(h):
        half = 3.0 * wavelength + 150.0
        n = int(round(2 * half / h))
        grid = Grid2D(n, n, h, h)
        m = velocity_to_slowness_sq(build_homogeneous(grid, v0))
        pml = PmlConfig(n_layers=10).resolved(grid, v0)
        kern = build_kernel(grid, 2 * np.pi * f, pml, StencilScheme())
        src = (grid.width / 2 + h / 2, grid.depth / 2 + h / 2)
        u = forward_solve(kern.assemble(m.values), build_source(kern.topology, src, 1.0))
        u_phys = u[kern.topology.pad_of_phys]
        ref = analytic_green_2d(grid, src, 2 * np.pi * f, v0)
        X, Z = np.meshgrid(grid.x_centers(), grid.z_centers())
        r = np.sqrt((X - src[0]) ** 2 + (Z - src[1]) ** 2).ravel()
        ring = (r >= 3.0 * wavelength) & (r <= half - 5 * h)
        amp = np.abs(np.abs(u_phys[ring]) - np.abs(ref[ring])) / np.abs(ref[ring])
        phase = np.abs(np.angle(u_phys[ring] / ref[ring]))
        cx = np.abs(u_phys[ring] - ref[ring]) / np.abs(ref[ring])
        return float(amp.max()), float(phase.max()), float(cx.max())

    amp10, phase10, err10 = green_error(10.0)
    amp5, phase5, err5 = green_error(5.0)
    ratio = err5 / err10
    elapsed = time.perf_counter() - t0
    # the scheme converges at second order, so refinement reduces the error
    # at least as much as the expected halving (one-sided 30% tolerance)
    ok = (amp10 < 0.05 and phase10 < 0.05 and amp5 < 0.05 and phase5 < 0.05
          and ratio <= 0.5 * 1.3 and elapsed < 30.0)
    _line(4, "Helmholtz accuracy vs analytic field", ok,
          f"amp {amp10:.3%}/{amp5:.3%}, phase {phase10:.4f}/{phase5:.4f} rad, "
          f"refinement ratio {ratio:.2f}, {elapsed:.1f} s")
    assert amp10 < 0.05 and phase10 < 0.05
    assert amp5 < 0.05 and phase5 < 0.05
    assert ratio <= 0.65
    assert elapsed < 30.0


def _tiny_problem_for_duals():
    rng = np.random.default_rng(7)
    grid = Grid2D(8, 6, 10.0, 10.0)
    v_true = VelocityModel(grid, rng.uniform(1700.0, 2000.0, grid.n))
    pml = PmlConfig(n_layers=3).resolved(grid, 2000.0)
    geom = AcquisitionGeometry(sources=((15.0, 25.0),),
                               receivers=((65.0, 15.0), (65.0, 45.0)))
    dataset = synthesize_data(velocity_to_slowness_sq(v_true), geom, (5.0, 8.0),
                              pml, StencilScheme(), f0=5.0)
    return InversionProblem(grid, pml, StencilScheme(), dataset, bounds=None,
                            m_true=v_true, bounds_mode="clip")


def test_criterion_05_running_sum_duals():
    problem = _tiny_problem_for_duals()
    params = PenaltyParams(lambdas=(3.0, 1.0), alpha=1.0, variant=Variant.ADMM)
    state = init_state(problem, np.full(problem.grid.n, 1.0 / 1850.0**2))
    k_cycles = 6
    sum_d = [np.zeros_like(problem.observed[i]) for i in range(2)]
    sum_b = [np.zeros((problem.n_pad, 1), dtype=complex) for _ in range(2)]
    for _ in range(k_cycles):
        inner_refine(problem, state, params)
        for i, kern in enumerate(problem.kernels):
            A = kern.assemble(state.m_values)
            sum_d[i] += problem.observed[i] - problem.P @ state.u[i]
            sum_b[i] += problem.sources[i] - A @ state.u[i]
    worst = 0.0
    for i in range(2):
        worst = max(worst, float(np.max(np.abs(state.duals.data[i] - sum_d[i]))
                                 / max(np.max(np.abs(sum_d[i])), 1e-30)))
        worst = max(worst, float(np.max(np.abs(state.duals.source[i] - sum_b[i]))
                                 / max(np.max(np.abs(sum_b[i])), 1e-30)))
    ok = worst < 1e-12
    _line(5, "running-sum dual identity", ok, f"worst rel gap {worst:.2e} after {k_cycles} cycles")
    assert worst < 1e-12


def test_criterion_06_refinement_form_equivalence():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        rows = int(rng.integers(n, 11))
        A = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        b = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        p = DenseProblem(A=A, b=b, beta=float(rng.uniform(0.01, 1.0)))
        k = int(rng.integers(1, 7))
        gap = np.max(np.abs(iterative_refine(p, k) - accumulated_rhs_solve(p, k)))
        worst = max(worst, float(gap / max(np.max(np.abs(iterative_refine(p, k))), 1e-30)))
    ok = worst < 1e-12
    _line(6, "refinement form equivalence", ok, f"worst rel gap {worst:.2e} over 50 instances")
    assert worst < 1e-12


@pytest.mark.slow
def test_criterion_07_box_convergence_ranking(box):
    t0 = time.perf_counter()
    wri = box.run("wri", Variant.WRI, cycles=100)
    prsm = box.run("prsm", Variant.PRSM, cycles=100)
    assert prsm["initial"] == wri["initial"]  # shared threshold baseline

    merr_wri, merr_ir = wri["merr"][99], prsm["merr"][99]
    uerr_wri, uerr_ir = wri["uerr"][99], prsm["uerr"][99]
    ok_a = merr_ir < merr_wri
    ok_c = uerr_ir < uerr_wri

    # (b): first cycle at which each variant's wave-equation misfit reaches
    # tau times the shared first-iterate misfit; IR-WRI must need at most a
    # third of WRI's count.  tau = 2e-2 is the deepest 1-2-5 step IR-WRI
    # reaches within the 200-cycle probe (at cycle 168; 1e-3 takes about
    # 2450), which keeps the criterion near 670 cycles, inside its 600 s bound.
    # WRI runs to 3 * k_ir (<= 600) cycles; if it has not reached tau by then,
    # it takes more than three times as many.
    tau, probe_cap = 2e-2, 200
    prsm = box.run("prsm", Variant.PRSM, threshold=tau, cap=probe_cap)
    k_ir = first_hit(prsm, tau)
    probe_end = k_ir if k_ir is not None else probe_cap
    reached_ir = prsm["pde"][probe_end - 1] / prsm["initial"]
    detail_b = f"pde misfit / first-iterate misfit, tau {tau:.0e}: IR-WRI "
    if k_ir is not None:
        wri = box.run("wri", Variant.WRI, cycles=3 * k_ir)
        k_wri = first_hit(wri, tau)
        ok_b = k_wri is None or k_ir <= k_wri / 3.0
        reached_wri = wri["pde"][3 * k_ir - 1] / wri["initial"]
        detail_b += (f"first reaches it at cycle {k_ir} ({reached_ir:.2e}); WRI is at "
                     f"{reached_wri:.2e} at cycle {3 * k_ir}, first hit "
                     f"{k_wri if k_wri is not None else 'none'}")
    else:
        ok_b = False
        detail_b += f"does not reach it within {probe_cap} cycles ({reached_ir:.2e})"
    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 600.0
    _line(7, "box-model convergence ranking", ok,
          f"(a) model err IR {merr_ir:.4f} vs WRI {merr_wri:.4f}: "
          f"{'PASS' if ok_a else 'FAIL'}; (b) {detail_b}: {'PASS' if ok_b else 'FAIL'}; "
          f"(c) wavefield err IR {uerr_ir:.3e} vs WRI {uerr_wri:.3e}: "
          f"{'PASS' if ok_c else 'FAIL'}; {elapsed:.0f} s")
    assert ok_a, "IR-WRI final model error must beat WRI after 100 iterations"
    assert ok_c, "IR-WRI final wavefield error must beat WRI after 100 iterations"
    assert elapsed < 600.0
    assert ok_b, detail_b


@pytest.mark.slow
def test_criterion_08_prsm_vs_admm(box):
    # protocol: threshold 1e-3 of the shared first-iterate misfit, both runs
    # capped at 400 cycles (counts compared at the cap when neither reaches it)
    cap = 400
    prsm = box.run("prsm", Variant.PRSM, threshold=1e-3, cap=cap)
    admm = box.run("admm", Variant.ADMM, alpha=1.0, threshold=1e-3, cap=cap)
    assert abs(admm["initial"] - prsm["initial"]) < 1e-12 * prsm["initial"]

    def capped(hit):
        return hit if hit is not None and hit <= cap else cap

    k_prsm, k_admm = capped(first_hit(prsm, 1e-3)), capped(first_hit(admm, 1e-3))
    ok = k_prsm <= 1.1 * k_admm
    pde_ratio = prsm["pde"][cap - 1] / admm["pde"][cap - 1]
    _line(8, "PRSM non-inferior to ADMM", ok,
          f"iterations {k_prsm} vs {k_admm} (cap {cap}); "
          f"equal-budget pde-misfit ratio PRSM/ADMM {pde_ratio:.3f}")
    assert ok


def test_criterion_09_inner_iteration_ranking(box):
    budget = 300
    n1 = box.run("prsm", Variant.PRSM, solve_budget=budget)
    idx1 = next(i for i, s in enumerate(n1["solves"]) if s >= budget)
    err = {1: n1["merr"][idx1]}
    for n in (3, 6):
        run = box.run(f"inner{n}", Variant.PRSM, inner=n, solve_budget=budget)
        err[n] = run["merr"][-1]
    ok = err[1] <= 1.05 * err[3] and err[3] <= 1.05 * err[6]
    _line(9, "inner-iteration study (n=1 best)", ok,
          f"model errors at {budget} solves: n=1 {err[1]:.5f}, n=3 {err[3]:.5f}, "
          f"n=6 {err[6]:.5f}")
    assert err[1] <= 1.05 * err[3]
    assert err[3] <= 1.05 * err[6]


def test_criterion_10_stationarity_at_truth(box):
    worst = 0.0
    for variant, alpha in ((Variant.WRI, 0.5), (Variant.ADMM, 1.0), (Variant.PRSM, 0.5)):
        params = box.params(variant, alpha=alpha)
        state = init_state(box.problem, box.m_true.values)
        for _ in range(5):
            inner_refine(box.problem, state, params)
        rel = float(np.linalg.norm(state.m_values - box.m_true.values)
                    / np.linalg.norm(box.m_true.values))
        worst = max(worst, rel)
    ok = worst < 1e-6
    _line(10, "stationarity at the true model", ok, f"worst drift {worst:.2e} over 5 cycles")
    assert worst < 1e-6


def test_criterion_11_mu1_vs_dense():
    grid = Grid2D(10, 8, 10.0, 10.0)
    rng = np.random.default_rng(11)
    v = VelocityModel(grid, rng.uniform(1600.0, 2200.0, grid.n))
    m = velocity_to_slowness_sq(v)
    pml = PmlConfig(n_layers=2).resolved(grid, 2200.0)
    kern = build_kernel(grid, 2 * np.pi * 6.0, pml, StencilScheme())
    n_pad = kern.topology.n_pad
    assert n_pad <= 200
    receivers = ((85.0, 15.0), (85.0, 40.0), (85.0, 65.0))
    P = build_observation(kern.topology, receivers)
    A = kern.assemble(m.values)
    est = power_iteration_mu1(A, P)
    G = np.linalg.solve(A.toarray(), np.eye(n_pad))
    PG = P @ G
    dense = float(np.linalg.eigvalsh(PG.conj().T @ PG)[-1])
    rel = abs(est.value - dense) / dense
    ok = rel <= 1e-12
    _line(11, "mu1 vs dense eigenvalue", ok, f"{n_pad} unknowns, rel diff {rel:.2e}")
    assert rel <= 1e-12


def test_criterion_12_noise_contract():
    grid = Grid2D(12, 9, 10.0, 10.0)
    m = velocity_to_slowness_sq(build_homogeneous(grid, 1800.0))
    geom = AcquisitionGeometry(sources=((15.0, 45.0), (15.0, 25.0)),
                               receivers=tuple((105.0, (j + 0.5) * 90.0 / 5.0)
                                               for j in range(5)))
    clean = synthesize_data(m, geom, (4.0, 6.0, 8.0), PmlConfig(n_layers=3),
                            StencilScheme(), f0=5.0)
    noisy = add_noise(clean, 10.0, seed=99)
    worst = 0.0
    for c, n in zip(clean.data, noisy.data):
        signal = math.sqrt(float(np.sum(np.abs(c) ** 2)))
        noise = math.sqrt(float(np.sum(np.abs(n - c) ** 2)))
        worst = max(worst, abs(20.0 * math.log10(signal / noise) - 10.0))
    again = add_noise(clean, 10.0, seed=99)
    identical = all(np.array_equal(a, b) for a, b in zip(noisy.data, again.data))
    ok = worst < 1e-9 and identical
    _line(12, "noise SNR contract", ok,
          f"worst SNR deviation {worst:.2e} dB, bit-identical under seed: {identical}")
    assert worst < 1e-9
    assert identical


def test_criterion_13_cli_determinism(tmp_path):
    from iwri.cli import cli_dispatch
    from iwri.fileio import write_model_file

    rng = np.random.default_rng(13)
    grid = Grid2D(10, 8, 10.0, 10.0)
    v_true = VelocityModel(grid, rng.uniform(1700.0, 2000.0, grid.n))
    write_model_file(v_true, tmp_path / "true.mod")
    write_model_file(build_homogeneous(grid, 1850.0), tmp_path / "init.mod")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "true_model = true.mod\ninitial_model = init.mod\ndata = fwd/dataset.iwd\n"
        "sources = 15,35\nreceivers = 85,15; 85,45; 85,65\nfrequencies = 5 8\n"
        "v_min = 1600\nv_max = 2100\npml_layers = 3\nk_max = 4\n"
        "delta = 1e-16\neps_n = 1e-16\nlambda_fraction = 1e-3\n")
    assert cli_dispatch(["forward", "--config", str(cfg), "--out", str(tmp_path / "fwd")]) == 0
    for out in ("a", "b"):
        assert cli_dispatch(["invert", "--config", str(cfg),
                             "--out", str(tmp_path / out)]) == 0
    same_model = ((tmp_path / "a" / "final_model.mod").read_bytes()
                  == (tmp_path / "b" / "final_model.mod").read_bytes())
    same_csv = ((tmp_path / "a" / "convergence_p0_b0.csv").read_bytes()
                == (tmp_path / "b" / "convergence_p0_b0.csv").read_bytes())
    ok = same_model and same_csv
    _line(13, "CLI determinism", ok,
          f"model bytes identical: {same_model}, csv bytes identical: {same_csv}")
    assert same_model
    assert same_csv
