"""Inversion orchestration: penalty-weight selection, stopping rule,
per-batch iteration driver and multi-path frequency continuation."""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import (InversionProblem, PenaltyParams, Variant, init_state,
                     inner_refine, model_error, wavefield_error)
from .errors import ConfigError, FactorizationError, ParameterError, SolverError
from .grid import SlownessSqModel, slowness_sq_to_velocity, velocity_to_slowness_sq
from .helmholtz import PmlConfig, StencilScheme
from .linalg import power_iteration_mu1
from .util import release_free_memory


@dataclass
class ConvergenceRecord:
    """Per-iteration diagnostics: misfits, model/wavefield errors (when a
    reference is available) and the cumulative PDE-solve count."""

    k: list = field(default_factory=list)
    data_misfit: list = field(default_factory=list)
    pde_misfit: list = field(default_factory=list)
    model_error: list = field(default_factory=list)
    wavefield_error: list = field(default_factory=list)
    pde_solves: list = field(default_factory=list)

    def append(self, k, data_misfit, pde_misfit, model_err, wavefield_err, pde_solves):
        self.k.append(int(k))
        self.data_misfit.append(float(data_misfit))
        self.pde_misfit.append(float(pde_misfit))
        self.model_error.append(None if model_err is None else float(model_err))
        self.wavefield_error.append(None if wavefield_err is None else float(wavefield_err))
        self.pde_solves.append(int(pde_solves))

    def __len__(self):
        return len(self.k)


class StopReason(enum.Enum):
    CONTINUE = "continue"
    KMAX = "stop_kmax"
    CONVERGED = "stop_converged"
    THRESHOLD = "stop_threshold"


@dataclass(frozen=True)
class StoppingCriteria:
    """k = k_max OR (wave-equation misfit <= delta AND per-frequency data
    misfit <= eps_n); eps_n = None falls back to the dataset noise level."""

    k_max: int = 100
    delta: float = 1e-3
    eps_n: object = None

    def __post_init__(self):
        if self.k_max < 1:
            raise ParameterError(f"k_max must be >= 1, got {self.k_max}")
        if not 0 < self.delta < math.inf:
            raise ParameterError(f"delta must be finite and positive, got {self.delta}")
        if self.eps_n is not None:
            eps = np.asarray(self.eps_n, dtype=float)
            if eps.ndim > 1 or not np.all((eps >= 0) & (eps < math.inf)):
                raise ParameterError(f"eps_n must be finite and >= 0, a scalar or one value "
                                     f"per frequency, got {self.eps_n}")

    def resolved_eps(self, noise_level):
        if self.eps_n is None:
            return np.asarray(noise_level, dtype=float)
        eps = np.asarray(self.eps_n, dtype=float)
        if eps.ndim == 0:
            return np.full(len(noise_level), float(eps))
        if eps.shape != (len(noise_level),):
            raise ParameterError("eps_n must be scalar or one value per batch frequency")
        return eps


def check_stop(k, stats, criteria, noise_level):
    """Pure stopping decision on the residuals of the current iterate."""
    eps = criteria.resolved_eps(noise_level)
    converged = stats.pde_misfit <= criteria.delta and bool(
        np.all(stats.data_misfit_per_freq <= eps))
    if converged:
        return StopReason.CONVERGED
    if k >= criteria.k_max:
        return StopReason.KMAX
    return StopReason.CONTINUE


@dataclass(frozen=True)
class ContinuationPlan:
    """Ordered frequency batches plus the starting batch index of each
    inversion path (later paths rewind the continuation, reusing the model)."""

    batches: tuple
    paths: tuple = (0,)

    def __post_init__(self):
        object.__setattr__(self, "batches", tuple(tuple(float(f) for f in b) for b in self.batches))
        object.__setattr__(self, "paths", tuple(int(p) for p in self.paths))
        if not self.batches or any(not b for b in self.batches):
            raise ConfigError("continuation plan needs non-empty batches")
        if not self.paths:
            raise ConfigError("continuation plan needs at least one path")
        if any(not 0 <= p < len(self.batches) for p in self.paths):
            raise ConfigError("path start index outside the batch list")


@dataclass(frozen=True)
class InversionSettings:
    """Run-level algorithm choices, shared by all batches."""

    variant: Variant = Variant.PRSM
    alpha: float = 0.5
    inner_iterations: int = 1
    lambda_fraction: float = 1e-4
    bounds: object = None
    bounds_mode: str = "bregman"
    pml: PmlConfig = PmlConfig()
    scheme: StencilScheme = StencilScheme()

    def __post_init__(self):
        # checked before any batch, whose weights are mu1 * lambda_fraction
        if not 0 < self.lambda_fraction < math.inf:
            raise ParameterError(f"lambda_fraction must be finite and positive, got {self.lambda_fraction}")
        self.penalty((1.0,))

    def penalty(self, mu1):
        """The penalty parameters of a batch whose largest data-resolution
        eigenvalue is mu1[i] at frequency i: weights mu1 * lambda_fraction."""
        return PenaltyParams(tuple(float(v) * self.lambda_fraction for v in mu1), self.alpha,
                             self.variant, self.inner_iterations)


@dataclass
class BatchInfo:
    mu1: list
    lambdas: tuple
    initial_pde_misfit: float
    stop_reason: StopReason
    iterations: int
    model_warnings: int  # cycles whose model solve needed the singular-system shift


def run_batch(model_in, dataset, settings, criteria, *, m_true=None,
              pde_stop_fraction=None):
    """Iterate outer cycles on one frequency batch until the stopping rule
    fires.

    Duals start from zero (fresh constraint history per batch).  When
    ``pde_stop_fraction`` is set, iteration additionally stops once the
    wave-equation misfit drops below that fraction of the first iterate's
    misfit (used by the sensitivity studies).
    """
    if not isinstance(model_in, SlownessSqModel):
        raise ParameterError("run_batch expects a squared-slowness model")
    grid = model_in.grid
    # the last batch's freed pages go back to the system, so this batch's
    # set-up (its SuperLU factors) does not stack on them
    release_free_memory()
    problem = InversionProblem(grid, settings.pml, settings.scheme, dataset,
                               bounds=settings.bounds, m_true=m_true,
                               bounds_mode=settings.bounds_mode)

    mu1 = []
    for f, kern in zip(problem.frequencies, problem.kernels):
        try:
            mu1.append(power_iteration_mu1(kern.assemble(model_in.values), problem.P).value)
        except FactorizationError as exc:
            raise SolverError(f"mu1 estimation failed: {exc}", frequency=f) from exc
    params = settings.penalty(mu1)

    state = init_state(problem, model_in.values)
    record = ConvergenceRecord()
    initial_pde = None
    model_warnings = 0
    reason = StopReason.CONTINUE
    while reason is StopReason.CONTINUE:
        stats = inner_refine(problem, state, params)
        model_warnings += stats.model_warning
        if stats.initial_pde_misfit is not None:
            initial_pde = stats.initial_pde_misfit
        record.append(state.k, stats.data_misfit, stats.pde_misfit,
                      model_error(problem, state), wavefield_error(problem, state),
                      state.pde_solve_count)
        reason = check_stop(state.k, stats, criteria, problem.noise_level)
        if (reason is StopReason.CONTINUE and pde_stop_fraction is not None
                and stats.pde_misfit <= pde_stop_fraction * initial_pde):
            reason = StopReason.THRESHOLD

    info = BatchInfo(mu1=mu1, lambdas=params.lambdas, initial_pde_misfit=initial_pde,
                     stop_reason=reason, iterations=state.k, model_warnings=model_warnings)
    return SlownessSqModel(grid, state.m_values.copy()), record, info


@dataclass
class BatchRecord:
    path: int
    batch_index: int
    frequencies: tuple
    record: ConvergenceRecord
    info: BatchInfo


@dataclass
class RunResult:
    final_model: object  # VelocityModel
    batches: list
    metadata: dict


def run_inversion(model0, plan, dataset, settings, criteria, *, m_true=None):
    """Execute all paths and batches of a continuation plan, threading the
    model; deterministic for a fixed configuration."""
    m_cur = velocity_to_slowness_sq(model0)
    batches_out = []
    per_path_iterations = []
    for p, start in enumerate(plan.paths):
        path_iterations = 0
        for bi in range(start, len(plan.batches)):
            wanted = plan.batches[bi]
            try:
                indices = [dataset.frequencies.index(f) for f in wanted]
            except ValueError as exc:
                raise ConfigError(f"batch frequency missing from dataset: {exc}") from exc
            model_out, record, info = run_batch(m_cur, dataset.subset(indices), settings,
                                                criteria, m_true=m_true)
            batches_out.append(BatchRecord(p, bi, tuple(wanted), record, info))
            path_iterations += info.iterations
            m_cur = model_out
        per_path_iterations.append(path_iterations)

    metadata = {  # what the run derived; the settings are the caller's to record
        "batches": [
            {
                "path": br.path,
                "batch_index": br.batch_index,
                "frequencies": list(br.frequencies),
                "mu1": [float(v) for v in br.info.mu1],
                "lambda": [float(v) for v in br.info.lambdas],
                "iterations": br.info.iterations,
                "stop_reason": br.info.stop_reason.value,
                "initial_pde_misfit": br.info.initial_pde_misfit,
                "model_warnings": br.info.model_warnings,
            }
            for br in batches_out
        ],
        "iterations_per_path": per_path_iterations,
        "iterations_total": int(sum(per_path_iterations)),
    }
    return RunResult(final_model=slowness_sq_to_velocity(m_cur),
                     batches=batches_out, metadata=metadata)
