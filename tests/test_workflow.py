from dataclasses import replace

import numpy as np
import pytest

import iwri.linalg as linalg
import iwri.util as util
import iwri.workflow as workflow
from iwri.errors import ConfigError, ParameterError, SolverError
from iwri.grid import Bounds, Grid2D, VelocityModel, build_homogeneous, velocity_to_slowness_sq
from iwri.helmholtz import PmlConfig, StencilScheme
from iwri.acquisition import AcquisitionGeometry, synthesize_data
from iwri.engine import CycleStats, PenaltyParams, Variant
from iwri.workflow import (ContinuationPlan, InversionSettings, StopReason, StoppingCriteria,
                           check_stop, run_batch, run_inversion)


def stats(pde, data_per_freq):
    data_per_freq = np.asarray(data_per_freq, dtype=float)
    return CycleStats(
        data_misfit=float(np.sqrt(np.sum(data_per_freq**2))),
        pde_misfit=pde,
        data_misfit_per_freq=data_per_freq,
        pde_misfit_per_freq=np.array([pde]),
    )


def test_settings_penalty():
    # each weight is mu1 * lambda_fraction, with the settings' dual strategy
    params = InversionSettings(lambda_fraction=1e-4, alpha=0.25, variant=Variant.WRI,
                               inner_iterations=3).penalty([1e7, 2e7])
    assert params == PenaltyParams((1e3, 2e3), 0.25, Variant.WRI, 3)
    assert InversionSettings(lambda_fraction=1.0).penalty((3.5,)).lambdas == (3.5,)
    with pytest.raises(ParameterError):
        InversionSettings().penalty((-1.0,))
    with pytest.raises(ParameterError):
        InversionSettings(lambda_fraction=0.0)
    # the sensitivity-scan grid spans twelve decades
    fractions = [10.0**e for e in range(-9, 4)]
    lams = [InversionSettings(lambda_fraction=f).penalty((1e7,)).lambdas[0] for f in fractions]
    assert lams[0] == 1e-2 and lams[-1] == 1e10


@pytest.mark.parametrize("mu1, fraction", [(np.nan, 1e-4), (np.inf, 1e-4), (1e7, np.nan)])
def test_settings_penalty_rejects_nonfinite(mu1, fraction):
    with pytest.raises(ParameterError):
        InversionSettings(lambda_fraction=fraction).penalty((mu1,))


def test_check_stop_truth_table(rng):
    crit = StoppingCriteria(k_max=10, delta=1e-3, eps_n=1e-5)
    noise = np.array([1e-5, 1e-5])
    # k_max reached
    assert check_stop(10, stats(1.0, [1.0, 1.0]), crit, noise) is StopReason.KMAX
    # both residuals at zero
    assert check_stop(3, stats(0.0, [0.0, 0.0]), crit, noise) is StopReason.CONVERGED
    # conjunction required: pde ok, data too large
    assert check_stop(3, stats(0.9e-3, [2e-5, 0.5e-5]), crit, noise) is StopReason.CONTINUE
    # data ok, pde too large
    assert check_stop(3, stats(2e-3, [0.5e-5, 0.5e-5]), crit, noise) is StopReason.CONTINUE
    # the relative stop: pde at or below the fraction of the first iterate's,
    # after converged and k_max
    frac = replace(crit, pde_fraction=0.5)
    assert check_stop(3, stats(5e-3, [1.0, 1.0]), frac, noise, 1e-2) is StopReason.THRESHOLD
    assert check_stop(3, stats(6e-3, [1.0, 1.0]), frac, noise, 1e-2) is StopReason.CONTINUE
    assert check_stop(10, stats(5e-3, [1.0, 1.0]), frac, noise, 1e-2) is StopReason.KMAX
    assert check_stop(3, stats(0.0, [0.0, 0.0]), frac, noise, 1e-2) is StopReason.CONVERGED
    # without pde_fraction the first iterate's misfit is not read
    assert check_stop(3, stats(5e-3, [1.0, 1.0]), crit, noise, 1e-2) is StopReason.CONTINUE

    # randomized comparison against an independent truth table
    for _ in range(200):
        k = int(rng.integers(1, 12))
        pde = float(10.0 ** rng.uniform(-5, -1))
        data = 10.0 ** rng.uniform(-7, -3, size=2)
        initial = float(10.0 ** rng.uniform(-4, 0))
        criteria = crit if rng.integers(2) else frac
        got = check_stop(k, stats(pde, data), criteria, noise, initial)
        converged = pde <= criteria.delta and np.all(data <= 1e-5)
        if converged:
            expected = StopReason.CONVERGED
        elif k >= criteria.k_max:
            expected = StopReason.KMAX
        elif criteria.pde_fraction is not None and pde <= 0.5 * initial:
            expected = StopReason.THRESHOLD
        else:
            expected = StopReason.CONTINUE
        assert got is expected


@pytest.mark.parametrize("delta, eps_n", [(np.nan, 1e-5), (np.inf, 1e-5), (0.0, 1e-5),
                                           (1e-3, np.nan), (1e-3, -1e-5), (1e-3, np.inf),
                                           (1e-3, [1e-5, np.nan]), (1e-3, [[1e-5]])])
def test_stopping_criteria_rejects_nonfinite_thresholds(delta, eps_n):
    with pytest.raises(ParameterError):
        StoppingCriteria(k_max=5, delta=delta, eps_n=eps_n)


def test_stopping_criteria_accepts_zero_and_rejects_vector_eps():
    noise = np.array([1e-5, 1e-5])
    assert check_stop(1, stats(0.0, [0.0, 0.0]), StoppingCriteria(k_max=5, eps_n=0.0),
                      noise) is StopReason.CONVERGED
    # one number for every frequency: a per-frequency vector is refused
    for vector in ([1e-5, 2e-5], np.array([1e-5, 2e-5]), np.array([1e-5])):
        with pytest.raises(ParameterError):
            StoppingCriteria(k_max=5, eps_n=vector)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 2.0, np.nan, np.inf])
def test_stopping_criteria_rejects_pde_fraction_outside_unit_interval(fraction):
    with pytest.raises(ParameterError):
        StoppingCriteria(pde_fraction=fraction)


def test_check_stop_eps_fallback_to_noise_level():
    crit = StoppingCriteria(k_max=10, delta=1e-3, eps_n=None)
    noise = np.array([3e-4, 5e-4])
    assert check_stop(1, stats(1e-4, [2.9e-4, 4.9e-4]), crit, noise) is StopReason.CONVERGED
    assert check_stop(1, stats(1e-4, [3.1e-4, 4.9e-4]), crit, noise) is StopReason.CONTINUE


def test_continuation_plan_validation():
    with pytest.raises(ConfigError):
        ContinuationPlan(batches=())
    with pytest.raises(ConfigError):
        ContinuationPlan(batches=((5.0,),), paths=(1,))
    plan = ContinuationPlan(batches=((3.0, 3.5), (3.5, 4.0)), paths=(0, 1))
    assert plan.batches[1] == (3.5, 4.0)


def small_setup(frequencies=(5.0, 8.0)):
    rng = np.random.default_rng(11)
    grid = Grid2D(10, 8, 10.0, 10.0)
    v_true = VelocityModel(grid, rng.uniform(1700.0, 2000.0, grid.n))
    geom = AcquisitionGeometry(
        sources=((15.0, 35.0),),
        receivers=((85.0, 15.0), (85.0, 45.0), (85.0, 65.0)))
    # resolve the absorbing layer once so synthesis and inversion share the
    # exact same operator
    pml = PmlConfig(n_layers=3).resolved(grid, 2100.0)
    dataset = synthesize_data(velocity_to_slowness_sq(v_true), geom, frequencies,
                              pml, StencilScheme(), f0=5.0)
    settings = InversionSettings(bounds=Bounds(1600.0, 2100.0), pml=pml,
                                 lambda_fraction=1e-3)
    return v_true, dataset, settings


def test_run_batch_starting_at_truth_stops_immediately():
    v_true, dataset, settings = small_setup()
    m_true = velocity_to_slowness_sq(v_true)
    criteria = StoppingCriteria(k_max=10, delta=1e-8, eps_n=1e-8)
    model, record, info = run_batch(m_true, dataset, settings, criteria, m_true=v_true)
    assert info.stop_reason is StopReason.CONVERGED
    assert info.iterations <= 1
    rel = np.linalg.norm(model.values - m_true.values) / np.linalg.norm(m_true.values)
    assert rel < 1e-6


def test_run_batch_records_and_kmax():
    v_true, dataset, settings = small_setup()
    grid = v_true.grid
    m0 = velocity_to_slowness_sq(build_homogeneous(grid, 1850.0))
    criteria = StoppingCriteria(k_max=4, delta=1e-16, eps_n=1e-16)
    model, record, info = run_batch(m0, dataset, settings, criteria, m_true=v_true)
    assert info.stop_reason is StopReason.KMAX
    assert record.k == [1, 2, 3, 4]
    assert all(b >= a for a, b in zip(record.pde_solves, record.pde_solves[1:]))
    assert all(v is not None for v in record.model_error)
    assert all(v is not None for v in record.wavefield_error)
    assert info.initial_pde_misfit > 0
    assert len(info.mu1) == 2 and all(v > 0 for v in info.mu1)
    assert [l / m for l, m in zip(info.lambdas, info.mu1)] == [1e-3, 1e-3]


def test_run_batch_threshold_stop():
    v_true, dataset, settings = small_setup()
    m0 = velocity_to_slowness_sq(build_homogeneous(v_true.grid, 1850.0))
    criteria = StoppingCriteria(k_max=300, delta=1e-16, eps_n=1e-16, pde_fraction=0.5)
    model, record, info = run_batch(m0, dataset, settings, criteria, m_true=v_true)
    assert info.stop_reason is StopReason.THRESHOLD
    assert len(record) == info.iterations
    assert record.pde_misfit[-1] <= 0.5 * info.initial_pde_misfit


def test_run_batch_mu1_failure_names_frequency(monkeypatch):
    class NanFactorization:
        def __init__(self, A):
            self.n = A.shape[0]

        def solve(self, rhs):
            return np.full(np.shape(rhs), np.nan, dtype=complex)

    v_true, dataset, settings = small_setup()
    monkeypatch.setattr(linalg, "lu_factorize", NanFactorization)
    m0 = velocity_to_slowness_sq(build_homogeneous(v_true.grid, 1850.0))
    with pytest.raises(SolverError) as info:
        run_batch(m0, dataset, settings, StoppingCriteria(k_max=2))
    assert info.value.frequency == 5.0
    assert "5.0 Hz" in str(info.value)


def test_run_inversion_single_batch_equals_run_batch():
    v_true, dataset, settings = small_setup()
    m0_model = build_homogeneous(v_true.grid, 1850.0)
    criteria = StoppingCriteria(k_max=3, delta=1e-16, eps_n=1e-16)
    plan = ContinuationPlan(batches=((5.0, 8.0),))
    result = run_inversion(m0_model, plan, dataset, settings, criteria, m_true=v_true)
    direct, record, info = run_batch(velocity_to_slowness_sq(m0_model), dataset,
                                     settings, criteria, m_true=v_true)
    assert len(result.batches) == 1
    assert np.array_equal(
        result.final_model.values,
        np.asarray(1.0 / np.sqrt(direct.values)))
    assert result.metadata["iterations_total"] == info.iterations


def test_run_inversion_multi_path_threading():
    v_true, dataset, settings = small_setup(frequencies=(5.0, 6.5, 8.0))
    m0_model = build_homogeneous(v_true.grid, 1850.0)
    criteria = StoppingCriteria(k_max=2, delta=1e-16, eps_n=1e-16)
    # three-path continuation: later paths rewind to higher starting batches
    plan = ContinuationPlan(batches=((5.0,), (6.5,), (8.0,)), paths=(0, 1, 2))
    result = run_inversion(m0_model, plan, dataset, settings, criteria, m_true=v_true)
    assert [(b.path, b.batch_index) for b in result.batches] == \
        [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert result.metadata["iterations_per_path"] == [6, 4, 2]
    assert result.metadata["iterations_total"] == 12

    # model threading: each batch starts from the previous batch's output
    m_cur = velocity_to_slowness_sq(m0_model)
    for br in result.batches:
        sub = dataset.subset([dataset.frequencies.index(f) for f in br.frequencies])
        model_out, _, _ = run_batch(m_cur, sub, settings, criteria, m_true=v_true)
        m_cur = model_out
    assert np.array_equal(result.final_model.values, 1.0 / np.sqrt(m_cur.values))


def test_model_warnings_counted_per_batch(monkeypatch):
    import iwri.engine as engine

    forced = []

    def factorize_singular_once(H, ordering=None):
        if not np.iscomplexobj(H.data) and not forced:  # the first model system
            forced.append(H.shape)
            raise linalg.FactorizationError("forced singular model system")
        return linalg.factorize(H, ordering=ordering)

    v_true, dataset, settings = small_setup()
    monkeypatch.setattr(engine, "factorize", factorize_singular_once)
    criteria = StoppingCriteria(k_max=3, delta=1e-16, eps_n=1e-16)
    plan = ContinuationPlan(batches=((5.0, 8.0),))
    result = run_inversion(build_homogeneous(v_true.grid, 1850.0), plan, dataset, settings,
                           criteria)
    assert forced == [(v_true.grid.n, v_true.grid.n)]
    assert result.batches[0].info.model_warnings == 1
    assert result.metadata["batches"][0]["model_warnings"] == 1


def test_run_inversion_determinism():
    v_true, dataset, settings = small_setup()
    m0_model = build_homogeneous(v_true.grid, 1850.0)
    criteria = StoppingCriteria(k_max=3, delta=1e-16, eps_n=1e-16)
    plan = ContinuationPlan(batches=((5.0, 8.0),))
    one = run_inversion(m0_model, plan, dataset, settings, criteria, m_true=v_true)
    two = run_inversion(m0_model, plan, dataset, settings, criteria, m_true=v_true)
    assert np.array_equal(one.final_model.values, two.final_model.values)
    assert one.batches[0].record.pde_misfit == two.batches[0].record.pde_misfit


def test_run_inversion_missing_frequency_rejected():
    v_true, dataset, settings = small_setup()
    plan = ContinuationPlan(batches=((5.0, 9.0),))
    with pytest.raises(ConfigError):
        run_inversion(build_homogeneous(v_true.grid, 1850.0), plan, dataset,
                      settings, StoppingCriteria())


def test_run_inversion_matches_every_batch_before_the_first_runs(monkeypatch):
    # a missing frequency in the second batch is found before the first
    # batch runs, and named with the dataset's frequencies
    def run_batch(*args, **kwargs):
        raise AssertionError("a batch ran before the plan was matched against the dataset")

    v_true, dataset, settings = small_setup()
    monkeypatch.setattr(workflow, "run_batch", run_batch)
    plan = ContinuationPlan(batches=((5.0,), (6.0, 8.0)))
    with pytest.raises(ConfigError) as err:
        run_inversion(build_homogeneous(v_true.grid, 1850.0), plan, dataset, settings,
                      StoppingCriteria())
    assert str(err.value) == ("batch frequencies missing from the dataset: 6 Hz "
                              "(the dataset holds 5, 8 Hz)")
    # every missing frequency once, in order; a plan that fits gives each batch's indices
    with pytest.raises(ConfigError, match=r": 6, 9 Hz \(the dataset"):
        ContinuationPlan(batches=((9.0, 5.0), (6.0, 9.0))).frequency_indices(dataset.frequencies)
    plan = ContinuationPlan(batches=((8.0,), (5.0, 8.0)))
    assert plan.frequency_indices(dataset.frequencies) == [[1], [0, 1]]


def test_release_free_memory_is_repeatable_and_optional(monkeypatch):
    assert util.release_free_memory() is None
    assert util.release_free_memory() is None
    pads = []
    monkeypatch.setattr(util, "_malloc_trim", pads.append)
    util.release_free_memory()
    assert pads == [0]
    monkeypatch.setattr(util, "_malloc_trim", None)  # a C library without malloc_trim
    assert util.release_free_memory() is None


def two_batch_run(monkeypatch, release):
    v_true, dataset, settings = small_setup()
    monkeypatch.setattr(workflow, "release_free_memory", release)
    plan = ContinuationPlan(batches=((5.0,), (8.0,)))
    criteria = StoppingCriteria(k_max=2, delta=1e-16, eps_n=1e-16)
    return run_inversion(build_homogeneous(v_true.grid, 1850.0), plan, dataset, settings,
                         criteria, m_true=v_true)


def test_each_batch_releases_memory_before_its_set_up(monkeypatch):
    calls = []
    build = workflow.InversionProblem

    def recording_build(*args, **kwargs):
        calls.append("problem")
        return build(*args, **kwargs)

    monkeypatch.setattr(workflow, "InversionProblem", recording_build)
    result = two_batch_run(monkeypatch, lambda: calls.append("release"))
    assert len(result.batches) == 2
    assert calls == ["release", "problem", "release", "problem"]


def test_memory_release_changes_no_result(monkeypatch):
    released = two_batch_run(monkeypatch, util.release_free_memory)
    kept = two_batch_run(monkeypatch, lambda: None)
    assert np.array_equal(released.final_model.values, kept.final_model.values)
    assert [vars(b.record) for b in released.batches] == [vars(b.record) for b in kept.batches]
    assert released.metadata == kept.metadata


def test_run_inversion_reports_each_batch_as_it_finishes(monkeypatch):
    calls = []
    build = workflow.InversionProblem

    def recording_build(*args, **kwargs):
        calls.append("problem")
        return build(*args, **kwargs)

    monkeypatch.setattr(workflow, "InversionProblem", recording_build)
    v_true, dataset, settings = small_setup()
    plan = ContinuationPlan(batches=((5.0,), (8.0,)))
    result = run_inversion(build_homogeneous(v_true.grid, 1850.0), plan, dataset, settings,
                           StoppingCriteria(k_max=1), on_batch=calls.append)
    assert calls[::2] == ["problem", "problem"]
    assert calls[1] is result.batches[0] and calls[3] is result.batches[1]
