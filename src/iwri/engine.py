"""One outer cycle of wavefield-reconstruction inversion.

Each cycle alternates two linear subproblems: a closed-form wavefield
reconstruction (normal equations of the stacked data/wave-equation system)
and a linearized model estimate, with scaled dual variables accumulating
the data and source residuals between them.  Three variants share the code
path:

* ``wri``  - penalty method: both duals frozen at zero.
* ``admm`` - one full dual ascent per cycle after both primal updates.
* ``prsm`` - the source dual is updated twice per cycle with step alpha
  (after the wavefield update and after the model update), the data dual
  once.

The model subproblem is exactly linear because the PML damping does not
depend on the model; bound constraints enter through a split-Bregman
auxiliary/dual pair, one pass per outer cycle.
"""

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, ShapeError, SolverError
from .grid import velocity_to_slowness_sq
from .helmholtz import build_kernel, forward_solve, resolve_pml
from .acquisition import build_observation, source_matrix
from .linalg import BandLayout, FactorizationError, assemble_normal_matrix, factorize
from .util import axis_minor_ordering, stacked_norm


class Variant(enum.Enum):
    WRI = "wri"
    ADMM = "admm"
    PRSM = "prsm"


@dataclass(frozen=True)
class PenaltyParams:
    """Per-frequency penalty weights plus the dual-update strategy."""

    lambdas: tuple
    alpha: float = 0.5
    variant: Variant = Variant.PRSM
    inner_iterations: int = 1

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        if not all(0 < v < math.inf for v in self.lambdas):
            raise ParameterError(f"penalty weights must be finite and positive, got {self.lambdas}")
        if not 0.0 < self.alpha <= 1.0:
            raise ParameterError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.inner_iterations < 1:
            raise ParameterError("inner_iterations must be >= 1")
        if self.variant is Variant.ADMM and self.inner_iterations != 1:
            raise ParameterError("inner iterations are defined for the wri/prsm variants only")


@dataclass
class DualState:
    """Scaled dual variables: running sums of data and source residuals."""

    data: list    # per frequency, shape (n_receivers, n_sources)
    source: list  # per frequency, shape (n_pad, n_sources)

    @classmethod
    def zeros(cls, problem):
        shape_d = (problem.n_receivers, problem.n_sources)
        shape_b = (problem.n_pad, problem.n_sources)
        return cls(data=[np.zeros(shape_d, dtype=complex) for _ in problem.frequencies],
                   source=[np.zeros(shape_b, dtype=complex) for _ in problem.frequencies])


@dataclass
class BoxConstraintState:
    """Split-Bregman auxiliary variable (always inside the bounds) and its
    Bregman dual; gamma is frozen on first use."""

    p: np.ndarray
    q: np.ndarray
    gamma: float | None = None

    @classmethod
    def init(cls, m0, lo, hi):
        return cls(p=np.clip(m0, lo, hi), q=np.zeros_like(m0))


@dataclass
class IterationState:
    m_values: np.ndarray
    u: list
    duals: DualState
    box: BoxConstraintState
    k: int = 0
    pde_solve_count: int = 0
    assembled: list | None = None  # A(m^k) per frequency, reused across cycles


@dataclass
class CycleStats:
    """Diagnostics of one outer cycle, evaluated at (m^{k+1}, u^{k+1})."""

    data_misfit: float
    pde_misfit: float
    data_misfit_per_freq: np.ndarray
    pde_misfit_per_freq: np.ndarray
    initial_pde_misfit: float | None = None
    model_warning: bool = False


class ModelNormalPlan:
    """Fixed-pattern fill of the model normal matrix
    N = Re sum_{k,s} R^T L_k(u_s)^H L_k(u_s) R, with R the padding map.

    Every kernel's mass matrix is S_k = B diag(c_k), with B the real
    mass-spreading stencil and c_k the PML damping, so with w = c_k u each
    entry of L_k(u)^H L_k(u) is omega_k^4 (B^T B)_ij Re(conj(w_i) w_j).
    B^T B lies on a few diagonals: per diagonal offset o, the source-summed
    products Re(conj(w_i) w_{i+o}) come from two shifted slices of w.  The
    pattern of N and the position in it of every B^T B entry are computed
    once, from the kernel's B (``kernel.stencil``, held exactly): every
    kernel on the same grid, PML layers and scheme holds the same B, so the
    plan built from any of them is the same.  Each fill is one bincount per
    frequency."""

    def __init__(self, kernel):
        n = kernel.grid.n
        G = (kernel.stencil.T @ kernel.stencil).tocoo()
        n_pad = G.shape[0]
        phys = kernel.topology.phys_of_pad
        keys, pos = np.unique(phys[G.row] * n + phys[G.col], return_inverse=True)
        self.shape = (n, n)
        self.indices = keys % n
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(keys // n, minlength=n))))
        offsets = G.col - G.row
        present = np.flatnonzero(np.bincount(offsets - offsets.min())) + offsets.min()
        groups = [np.flatnonzero(offsets == o) for o in present]
        by_offset = np.concatenate(groups)
        self.coef, self.pos = G.data[by_offset], pos[by_offset]
        # (offset, first row, end row, rows holding an entry minus the first row)
        self.diagonals = [(o, max(0, -o), n_pad - max(0, o), G.row[g] - max(0, -o))
                          for o, g in zip(present, groups)]

    def matrix(self, kernels, wavefields):
        """N for per-frequency wavefields of shape (n_pad, n_sources)."""
        data = np.zeros(self.indices.size)
        for kern, u in zip(kernels, wavefields):
            w = kern.damping[:, None] * u
            wc = w.conj()
            q = np.concatenate([np.einsum("is,is->i", wc[lo:hi], w[lo + o:hi + o]).real[rows]
                                for o, lo, hi, rows in self.diagonals])
            data += np.bincount(self.pos, weights=kern.omega**4 * self.coef * q,
                                minlength=data.size)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


class InversionProblem:
    """Frozen per-batch setup: kernels, observation operator, sources,
    observed data, bounds, and reference fields for error tracking."""

    def __init__(self, grid, pml, scheme, dataset, *, bounds=None, m_true=None,
                 bounds_mode="bregman"):
        if bounds_mode not in ("bregman", "clip"):
            raise ParameterError(f"unknown bound mode {bounds_mode!r}")
        self.grid = grid
        self.scheme = scheme
        self.bounds_mode = bounds_mode
        self.geometry = dataset.geometry
        self.geometry.validate(grid)
        self.frequencies = dataset.frequencies
        self.observed = [d.copy() for d in dataset.data]
        self.noise_level = dataset.noise_level.copy()

        self.pml = resolve_pml(pml, grid, bounds, m_true)
        self.kernels = [build_kernel(grid, 2.0 * np.pi * f, self.pml, scheme)
                        for f in dataset.frequencies]
        topo = self.kernels[0].topology
        self.topology = topo
        self.P = build_observation(topo, self.geometry.receivers)
        self.sources = [source_matrix(topo, self.geometry.sources, amp)
                        for amp in dataset.source_scale]

        self.bounds = bounds
        if bounds is not None:
            self.lo, self.hi = bounds.slowness_sq_interval()
        else:
            self.lo, self.hi = -np.inf, np.inf

        def layout(g):  # one per ordering, shared by every frequency's system
            return BandLayout(g.n, axis_minor_ordering(g.nz, g.nx) if g.nz < g.nx else None)

        self.pad_ordering, self.phys_ordering = layout(topo.grid_pad), layout(grid)
        self.model_normal = ModelNormalPlan(self.kernels[0])

        self.m_star = None
        self.u_star = None
        if m_true is not None:
            self.m_star = velocity_to_slowness_sq(m_true).values
            self.u_star = [forward_solve(k.assemble(self.m_star), b)
                           for k, b in zip(self.kernels, self.sources)]

    @property
    def n_receivers(self):
        return self.geometry.n_receivers

    @property
    def n_sources(self):
        return self.geometry.n_sources

    @property
    def n_pad(self):
        return self.topology.n_pad


def init_state(problem, m0_values):
    m0 = np.asarray(m0_values, dtype=float).copy()
    if m0.shape[0] != problem.grid.n:
        raise ShapeError("starting model does not match the grid")
    u0 = [np.zeros((problem.n_pad, problem.n_sources), dtype=complex)
          for _ in problem.frequencies]
    return IterationState(m_values=m0, u=u0, duals=DualState.zeros(problem),
                          box=BoxConstraintState.init(m0, problem.lo, problem.hi))


# -- primitive updates ------------------------------------------------------


def reconstruct_wavefield(factorization, P, A, lam, d_eff, b_eff):
    """Closed-form wavefield: minimizer of
    1/2 ||P u - d_eff||^2 + lam/2 ||A u - b_eff||^2.  A^H b is formed as
    conj(A^T conj(b)), which copies no matrix."""
    rhs = P.conjugate().T @ d_eff + lam * np.conj(A.T @ np.conj(b_eff))
    return factorization.solve(rhs)


def update_data_dual(d_dual, d, Pu):
    """d' = d_dual + (d - P u): running sum of data residuals."""
    if d_dual.shape != d.shape or d.shape != Pu.shape:
        raise ShapeError("data dual update: mismatched shapes")
    return d_dual + (d - Pu)


def update_source_dual(b_dual, b, Au, alpha):
    """b' = b_dual + alpha (b - A u); alpha = 1 for the single ADMM ascent,
    alpha in (0, 1) twice per cycle for the contractive variant."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    if b_dual.shape != b.shape or b.shape != Au.shape:
        raise ShapeError("source dual update: mismatched shapes")
    return b_dual + alpha * (b - Au)


def wri_objective(A, P, u, d_eff, b_eff, lam):
    """(data term, wave-equation term) of the scaled objective, separately."""
    data = 0.5 * float(np.sum(np.abs(P @ u - d_eff) ** 2))
    pde = 0.5 * lam * float(np.sum(np.abs(A @ u - b_eff) ** 2))
    return data, pde


def _mass_rmatvec(kernel, u, r):
    """Re(L(u)^H r) restricted to the physical cells, summed over source
    columns.  With S = B diag(c) and w = c u, as in ``ModelNormalPlan``:
    bincount(phys_of_pad, Re(omega^2 conj(w) B^T r))."""
    w = kernel.damping[:, None] * u
    g_pad = np.sum(np.real(kernel.omega**2 * np.conj(w) * (kernel.stencil.T @ r)), axis=1)
    return np.bincount(kernel.topology.phys_of_pad, weights=g_pad,
                       minlength=kernel.grid.n)


def wri_gradient_m(kernel, m_values, u, b_eff):
    """Gradient of 1/2 ||A(m) u - b_eff||^2 with respect to the physical
    model at fixed u, exact through L(u)^H."""
    u = np.atleast_2d(np.asarray(u).T).T  # promote (n,) to (n, 1)
    b_eff = np.atleast_2d(np.asarray(b_eff).T).T
    return _mass_rmatvec(kernel, u, kernel.assemble(m_values) @ u - b_eff)


def estimate_model(normal, rhs, lo, hi, box, *, ordering=None, mode="bregman"):
    """Solve the accumulated model normal equations under box bounds.

    ``bregman`` performs one split-Bregman pass (solve + clip + dual step)
    and emits the auxiliary variable, which is inside the bounds by
    construction; ``clip`` solves and projects.  A singular system is
    retried with a small diagonal shift and flagged.
    """
    normal = sp.csr_matrix(normal)
    rhs = np.asarray(rhs, dtype=float)
    n = normal.shape[0]
    diag_mean = float(np.mean(normal.diagonal().real))
    warn = False

    if mode == "bregman":
        if box.gamma is None:
            box.gamma = 0.1 * diag_mean
        system = normal + box.gamma * sp.identity(n, format="csr")
        full_rhs = rhs + box.gamma * (box.p - box.q)
    elif mode == "clip":
        system = normal
        full_rhs = rhs
    else:
        raise ParameterError(f"unknown bound mode {mode!r}")

    try:
        fact = factorize(system, ordering=ordering)
        m_raw = fact.solve(full_rhs)
    except FactorizationError:
        warn = True
        shift = 1e-12 * (diag_mean if diag_mean > 0 else 1.0)
        logging.getLogger(__name__).warning("singular model normal matrix, applying diagonal shift")
        fact = factorize(system + shift * sp.identity(n, format="csr"), ordering=ordering)
        m_raw = fact.solve(full_rhs)

    if mode == "bregman":
        box.p = np.clip(m_raw + box.q, lo, hi)
        box.q = box.q + m_raw - box.p
        return box.p.copy(), warn
    return np.clip(m_raw, lo, hi), warn


# -- the outer cycle ---------------------------------------------------------


def _wavefield_phase(problem, state, params, i):
    """Wavefield reconstructions at frequency i against A(m^k), each
    followed by the data-dual step and, for prsm, an alpha source-dual step.
    Returns ||b - A u||^2 of the batch's first reconstruction, else 0."""
    A = state.assembled[i]
    lam = params.lambdas[i]
    d, b = problem.observed[i], problem.sources[i]
    duals = state.duals
    try:
        fact = factorize(assemble_normal_matrix(A, problem.P, lam), ordering=problem.pad_ordering)
    except FactorizationError as exc:
        raise SolverError(f"wavefield normal-matrix factorization failed: {exc}",
                          frequency=problem.frequencies[i], iteration=state.k) from exc
    initial_sq = 0.0
    for j in range(params.inner_iterations):
        u = reconstruct_wavefield(fact, problem.P, A, lam, d + duals.data[i], b + duals.source[i])
        state.pde_solve_count += problem.n_sources
        Au = A @ u
        if params.variant is not Variant.WRI:
            duals.data[i] = update_data_dual(duals.data[i], d, problem.P @ u)
        if params.variant is Variant.PRSM:
            duals.source[i] = update_source_dual(duals.source[i], b, Au, params.alpha)
        if state.k == 0 and j == 0:
            initial_sq = float(np.sum(np.abs(b - Au) ** 2))
    state.u[i] = u
    return initial_sq


def _model_phase(problem, state, params):
    """Model estimates at the fixed wavefields, each followed by a source-dual
    step at the new model (alpha for prsm, the full ascent for admm).
    Returns whether any model solve needed the singular-system shift."""
    normal = problem.model_normal.matrix(problem.kernels, state.u)
    step = {Variant.WRI: None, Variant.ADMM: 1.0, Variant.PRSM: params.alpha}[params.variant]
    duals = state.duals

    warned = False
    for _ in range(params.inner_iterations):
        rhs = sum(_mass_rmatvec(kern, u, b + b_dual - kern.laplacian @ u)
                  for kern, u, b, b_dual in zip(problem.kernels, state.u, problem.sources,
                                                duals.source))
        try:
            m_new, warn = estimate_model(normal, rhs, problem.lo, problem.hi, state.box,
                                         ordering=problem.phys_ordering,
                                         mode=problem.bounds_mode)
        except FactorizationError as exc:
            raise SolverError(f"model update failed: {exc}", frequency=problem.frequencies,
                              iteration=state.k) from exc
        if not np.all(np.isfinite(m_new) & (m_new > 0)):
            raise SolverError(f"model is not finite and strictly positive: "
                              f"min {np.min(m_new):.3e}",
                              frequency=problem.frequencies, iteration=state.k)
        warned = warned or warn
        state.m_values = m_new
        state.assembled = [kern.assemble(m_new) for kern in problem.kernels]
        if step is not None:
            for i, b in enumerate(problem.sources):
                duals.source[i] = update_source_dual(duals.source[i], b,
                                                     state.assembled[i] @ state.u[i], step)
    return warned


def inner_refine(problem, state, params):
    """One outer cycle: ``params.inner_iterations`` repetitions of the
    wavefield/dual phase at every frequency, then the same number of
    model/dual repetitions."""
    if len(params.lambdas) != len(problem.frequencies):
        raise ShapeError("need one penalty weight per frequency")
    if state.assembled is None:
        state.assembled = [kern.assemble(state.m_values) for kern in problem.kernels]
    first = state.k == 0
    initial_sq = sum(_wavefield_phase(problem, state, params, i)
                     for i in range(len(problem.kernels)))
    model_warn = _model_phase(problem, state, params)
    state.k += 1

    pde_sq = np.array([float(np.sum(np.abs(b - A @ u) ** 2))
                       for b, A, u in zip(problem.sources, state.assembled, state.u)])
    data_sq = np.array([float(np.sum(np.abs(problem.P @ u - d) ** 2))
                        for d, u in zip(problem.observed, state.u)])
    return CycleStats(
        data_misfit=float(np.sqrt(np.sum(data_sq))),
        pde_misfit=float(np.sqrt(np.sum(pde_sq))),
        data_misfit_per_freq=np.sqrt(data_sq),
        pde_misfit_per_freq=np.sqrt(pde_sq),
        initial_pde_misfit=float(np.sqrt(initial_sq)) if first else None,
        model_warning=model_warn,
    )


def wavefield_error(problem, state):
    """Stacked relative error against the reference wavefields, if known."""
    if problem.u_star is None:
        return None
    num = stacked_norm([u - us for u, us in zip(state.u, problem.u_star)])
    den = stacked_norm(problem.u_star)
    return num / den if den > 0 else num


def model_error(problem, state):
    if problem.m_star is None:
        return None
    den = np.sqrt(np.sum(problem.m_star**2))
    return float(np.sqrt(np.sum((state.m_values - problem.m_star) ** 2)) / den)
