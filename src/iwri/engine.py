"""One outer cycle of wavefield-reconstruction inversion.

Each cycle alternates two linear subproblems: a closed-form wavefield
reconstruction (normal equations of the stacked data/wave-equation system)
and a linearized model estimate, with scaled dual variables accumulating
the data and source residuals between them.  The cycle maps one iterate
(m, A(m), data duals, source duals, Bregman pair) to the next: each phase
returns its results, and ``inner_refine`` alone writes them into the state.
Three variants share the code path:

* ``wri``  - penalty method: both duals frozen at zero.
* ``admm`` - one full dual ascent per cycle after both primal updates.
* ``prsm`` - the source dual is updated twice per cycle with step alpha
  (after the wavefield update and after the model update), the data dual
  once.

The model subproblem is exactly linear because the PML damping does not
depend on the model; bound constraints enter through a split-Bregman
auxiliary/dual pair, one pass per outer cycle: ``estimate_model`` returns
the new pair with the model.
"""

import enum
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, ShapeError, SolverError
from .grid import velocity_to_slowness_sq
from .helmholtz import _grid_parts, band_numbering, build_kernel, forward_solve, resolve_pml
from .acquisition import build_observation, source_matrix
from .linalg import FactorizationError, _diagonals, _gram, _transpose, assemble_normal_matrix, factorize
from .util import squared_norm, stacked_norm


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
        if self.variant is Variant.PRSM and self.alpha == 1.0:
            raise ParameterError("alpha = 1 does not contract with prsm; use alpha < 1, or admm")
        if self.inner_iterations < 1:
            raise ParameterError("inner_iterations must be >= 1")
        if self.variant is Variant.ADMM and self.inner_iterations != 1:
            raise ParameterError("inner iterations are defined for the wri/prsm variants only")


@dataclass(frozen=True)
class DualState:
    """Scaled dual variables: running sums of data and source residuals."""

    data: tuple    # per frequency, shape (n_receivers, n_sources)
    source: tuple  # per frequency, shape (n_pad, n_sources)

    @classmethod
    def zeros(cls, problem):  # observed data and sources are complex
        return cls(data=tuple(map(np.zeros_like, problem.observed)),
                   source=tuple(map(np.zeros_like, problem.sources)))


@dataclass(frozen=True)
class BoxConstraintState:
    """Split-Bregman auxiliary variable (always inside the bounds) and its
    Bregman dual; gamma is fixed by the first model solve."""

    p: np.ndarray
    q: np.ndarray
    gamma: float | None = None

    @classmethod
    def init(cls, m0, lo, hi):
        return cls(p=np.clip(m0, lo, hi), q=np.zeros_like(m0))


@dataclass
class IterationState:
    m_values: np.ndarray
    assembled: list  # A(m^k) per frequency, reused across cycles
    duals: DualState
    box: BoxConstraintState
    u: list | None = None  # the wavefields of the last cycle
    k: int = 0
    pde_solve_count: int = 0


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
    N = Re sum_{k,s} R^T L_k(u_s)^H L_k(u_s) R, with R the padding map, in
    the band order ``ordering`` (perm[new] = old).

    Every kernel's mass matrix is S_k = B diag(c_k), with B the real
    mass-spreading stencil and c_k the PML damping, so L_k(u_s) =
    omega_k^2 B diag(c_k u_s), and N is Re sum_k omega_k^4 times the Gram
    matrix of the B diag(c_k u_s) (``linalg._gram``), folded through R.
    The fold takes each entry of B^T B's pattern to its slot in N's band
    diagonals; it is built once, from the padded ``topology`` and B
    (``stencil``, held exactly), which every kernel on them shares.
    Each fill is one Gram product per frequency and one bincount."""

    def __init__(self, topology, stencil, ordering):
        n = topology.grid.n
        self.stencil = stencil  # B's diagonals on the padded grid
        lags, gram = _gram(stencil.data[None], stencil.offsets)  # B^T B
        self.source = np.flatnonzero(gram)
        k, cols = np.divmod(self.source, stencil.shape[0])
        phys, inv = topology.phys_of_pad, np.argsort(ordering)
        rows, cols = inv[phys[cols - lags[k]]], inv[phys[cols]]
        self.offsets, k = np.unique(cols - rows, return_inverse=True)
        self.slot = k * n + cols  # N[perm][:, perm] in dia_matrix layout
        self.shape = (n, n)

    def matrix(self, kernels, wavefields):
        """N[perm][:, perm] as a ``dia_matrix`` for per-frequency wavefields
        of shape (n_pad, n_sources)."""
        gram = 0.0
        for kern, u in zip(kernels, wavefields):
            x = self.stencil.data * (kern.damping[:, None] * u).T[:, None]  # x[s] holds B diag(c u_s)
            gram = gram + kern.omega**4 * _gram(x, self.stencil.offsets)[1].real
        data = np.bincount(self.slot, weights=gram.ravel()[self.source],
                           minlength=self.offsets.size * self.shape[0])
        return sp.dia_matrix((data.reshape(self.offsets.size, -1), self.offsets), shape=self.shape)


@functools.lru_cache(maxsize=1)
def _band_plans(grid, pml, scheme):
    """The physical grid's band order (``band_numbering``) and the model
    normal plan: they depend only on the grid, the resolved PML and the
    scheme, as ``helmholtz._grid_parts`` does, so one build serves all batches."""
    phys = np.arange(grid.n).reshape(grid.nz, grid.nx).ravel(band_numbering(grid.nz, grid.nx))
    phys.flags.writeable = False  # shared by problems
    return phys, ModelNormalPlan(*_grid_parts(grid, pml, scheme), phys)


class InversionProblem:
    """Frozen per-batch setup: kernels, observation operator, sources,
    observed data, bounds, and reference fields for error tracking."""

    def __init__(self, grid, pml, scheme, dataset, *, bounds=None, m_true=None,
                 bounds_mode="bregman"):
        if bounds_mode not in ("bregman", "clip"):
            raise ParameterError(f"unknown bound mode {bounds_mode!r}")
        self.grid = grid
        self.bounds_mode = bounds_mode
        self.geometry = dataset.geometry
        self.geometry.validate(grid)
        self.frequencies = dataset.frequencies
        self.observed = [d.copy() for d in dataset.data]
        self.noise_level = dataset.noise_level.copy()

        self.pml = resolve_pml(pml, grid, bounds, m_true)
        self.kernels = [build_kernel(grid, 2.0 * np.pi * f, self.pml, scheme)
                        for f in dataset.frequencies]
        self.topology = topo = self.kernels[0].topology
        self.P = build_observation(topo, self.geometry.receivers)
        self.sources = [source_matrix(topo, self.geometry.sources, amp)
                        for amp in dataset.source_scale]

        if bounds is not None:
            self.lo, self.hi = bounds.slowness_sq_interval()
        else:
            self.lo, self.hi = -np.inf, np.inf

        # band orders (perm[new] = old) of the model and the wavefield system (the identity)
        self.phys_ordering, self.model_normal = _band_plans(grid, self.pml, scheme)
        self.pad_ordering = np.arange(topo.n_pad)  # only perfbench/worker.py reads it
        self.pad_ordering.flags.writeable = False

        self.m_star = None
        self.u_star = None
        if m_true is not None:
            self.m_star = velocity_to_slowness_sq(m_true).values
            self.u_star = [forward_solve(k.assemble(self.m_star), b)
                           for k, b in zip(self.kernels, self.sources)]


def init_state(problem, m0_values):
    m0 = np.asarray(m0_values, dtype=float).copy()
    if m0.shape[0] != problem.grid.n:
        raise ShapeError("starting model does not match the grid")
    return IterationState(m_values=m0, assembled=[kern.assemble(m0) for kern in problem.kernels],
                          duals=DualState.zeros(problem),
                          box=BoxConstraintState.init(m0, problem.lo, problem.hi))


# -- primitive updates ------------------------------------------------------


def reconstruct_wavefield(factorization, P, A, lam, d_eff, b_eff):
    """Closed-form wavefield: minimizer of
    1/2 ||P u - d_eff||^2 + lam/2 ||A u - b_eff||^2 for a ``dia_matrix`` A.
    A^H b is formed as conj(A^T conj(b)) (``linalg._transpose``)."""
    rhs = P.conjugate().T @ d_eff + lam * np.conj(_transpose(A) @ np.conj(b_eff))
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
    return 0.5 * squared_norm(P @ u - d_eff), 0.5 * lam * squared_norm(A @ u - b_eff)


def _mass_rmatvec(kernel, u, r):
    """Re(L(u)^H r) restricted to the physical cells, summed over source
    columns.  With S = B diag(c) and w = c u, as in ``ModelNormalPlan``:
    bincount(phys_of_pad, Re(omega^2 conj(w) B^T r)), where B r is B^T r to
    the bit: B's weights are symmetric, the Dirichlet ring cuts neighbours
    in pairs, and transposing B's diagonals would cost more than the product."""
    w = kernel.damping[:, None] * u
    g_pad = np.sum(np.real(kernel.omega**2 * np.conj(w) * (kernel.stencil @ r)), axis=1)
    return np.bincount(kernel.topology.phys_of_pad, weights=g_pad,
                       minlength=kernel.grid.n)


def wri_gradient_m(kernel, m_values, u, b_eff):
    """Gradient of 1/2 ||A(m) u - b_eff||^2 with respect to the physical
    model at fixed u, exact through L(u)^H."""
    u = np.atleast_2d(np.asarray(u).T).T  # promote (n,) to (n, 1)
    b_eff = np.atleast_2d(np.asarray(b_eff).T).T
    return _mass_rmatvec(kernel, u, kernel.assemble(m_values) @ u - b_eff)


def estimate_model(normal, rhs, lo, hi, box, *, ordering=None, mode="bregman"):
    """Solve the accumulated model normal equations under box bounds;
    returns (m, box, warn) with the next ``BoxConstraintState``.

    ``normal`` is N[perm][:, perm] for the band order ``ordering`` (perm;
    N itself when None); ``rhs``, the bounds and the result are in N's
    order.  ``bregman`` performs one split-Bregman pass (solve + clip +
    dual step) and emits the auxiliary variable, which is inside the bounds
    by construction; gamma is fixed by the first solve (``box.gamma`` None).
    ``clip`` solves and projects, and returns ``box`` as it is.  A singular
    system is retried with a small diagonal shift and flagged.
    """
    rhs = np.asarray(rhs, dtype=float)
    diag_mean = float(np.mean(normal.diagonal().real))
    warn = False

    if mode == "bregman":
        gamma = 0.1 * diag_mean if box.gamma is None else box.gamma
        system = _add_to_diagonal(normal, gamma)
        full_rhs = rhs + gamma * (box.p - box.q)
    elif mode == "clip":
        system = normal
        full_rhs = rhs
    else:
        raise ParameterError(f"unknown bound mode {mode!r}")

    try:
        m_raw = factorize(system, ordering=ordering).solve(full_rhs)
    except FactorizationError:
        warn = True
        shift = 1e-12 * (diag_mean if diag_mean > 0 else 1.0)
        logging.getLogger(__name__).warning("singular model normal matrix, applying diagonal shift")
        m_raw = factorize(_add_to_diagonal(system, shift), ordering=ordering).solve(full_rhs)

    if mode == "bregman":
        p = np.clip(m_raw + box.q, lo, hi)
        return p.copy(), BoxConstraintState(p, box.q + m_raw - p, gamma), warn
    return np.clip(m_raw, lo, hi), box, warn


def _add_to_diagonal(M, value):
    """M + value * I as a ``dia_matrix``; M is not changed."""
    M = _diagonals(M)
    data = M.data.copy()
    data[np.flatnonzero(M.offsets == 0)] += value
    return sp.dia_matrix((data, M.offsets), shape=M.shape)


# -- the outer cycle ---------------------------------------------------------


def _wavefield_phase(problem, state, params, i):
    """Wavefield reconstructions at frequency i against A(m^k), each
    followed by the data-dual step and, for prsm, an alpha source-dual step.
    Returns (u, P u, data dual, source dual, b - A u of the batch's first
    reconstruction, else None)."""
    A, lam = state.assembled[i], params.lambdas[i]
    d, b = problem.observed[i], problem.sources[i]
    d_dual, b_dual = state.duals.data[i], state.duals.source[i]
    try:  # H is in band order, as A is; passed on unnamed, so it is freed before the solves
        fact = factorize(assemble_normal_matrix(A, problem.P, lam))
    except FactorizationError as exc:
        gp, at = problem.topology.grid_pad, ""
        if exc.pivot_index is not None:  # the flat index's cell depends on the grid's shape
            iz, ix = np.unravel_index(exc.pivot_index, (gp.nz, gp.nx), order=problem.topology.order)
            at = f", padded cell (ix, iz) = ({ix}, {iz})"
        raise SolverError(f"wavefield normal-matrix factorization failed: {exc}{at}",
                          frequency=problem.frequencies[i], iteration=state.k) from exc
    first = None
    for j in range(params.inner_iterations):
        u = reconstruct_wavefield(fact, problem.P, A, lam, d + d_dual, b + b_dual)
        Au, Pu = A @ u, problem.P @ u
        if params.variant is not Variant.WRI:
            d_dual = update_data_dual(d_dual, d, Pu)
        if params.variant is Variant.PRSM:
            b_dual = update_source_dual(b_dual, b, Au, params.alpha)
        if state.k == 0 and j == 0:
            first = b - Au
    return u, Pu, d_dual, b_dual, first


def _model_phase(problem, state, params, u, source_duals):
    """Model estimates at the fixed wavefields ``u``, each followed by a
    source-dual step at the new model (alpha for prsm, the full ascent for
    admm).  Returns (m, A(m), A(m) u and the source dual per frequency, the
    Bregman pair, whether any model solve needed the singular-system shift)."""
    normal = problem.model_normal.matrix(problem.kernels, u)
    step = {Variant.WRI: None, Variant.ADMM: 1.0, Variant.PRSM: params.alpha}[params.variant]
    box, warned = state.box, False
    for _ in range(params.inner_iterations):
        rhs = sum(_mass_rmatvec(kern, uf, b + b_dual - kern.laplacian @ uf)
                  for kern, uf, b, b_dual in zip(problem.kernels, u, problem.sources, source_duals))
        try:
            m, box, warn = estimate_model(normal, rhs, problem.lo, problem.hi, box,
                                          ordering=problem.phys_ordering, mode=problem.bounds_mode)
        except FactorizationError as exc:
            raise SolverError(f"model update failed: {exc}", frequency=problem.frequencies,
                              iteration=state.k) from exc
        if not np.all(np.isfinite(m) & (m > 0)):
            raise SolverError(f"model is not finite and strictly positive: min {np.min(m):.3e}",
                              frequency=problem.frequencies, iteration=state.k)
        warned = warned or warn
        assembled = [kern.assemble(m) for kern in problem.kernels]
        Au = [A @ uf for A, uf in zip(assembled, u)]
        if step is not None:
            source_duals = [update_source_dual(b_dual, b, au, step)
                            for b_dual, b, au in zip(source_duals, problem.sources, Au)]
    return m, assembled, Au, tuple(source_duals), box, warned


def _norms(residuals):
    """(stacked norm, norm of each) of the per-frequency residuals; the stack
    sums in ``np.sum``'s order, which the convergence files have always held."""
    sq = np.array([squared_norm(r) for r in residuals])
    return float(np.sqrt(np.sum(sq))), np.sqrt(sq)


def inner_refine(problem, state, params):
    """One outer cycle, the map from the iterate in ``state`` to the next:
    ``params.inner_iterations`` repetitions of the wavefield/dual phase at
    every frequency, then the same number of model/dual repetitions.  The
    one function that writes to ``state``, once both phases have run."""
    if len(params.lambdas) != len(problem.frequencies):
        raise ShapeError("need one penalty weight per frequency")
    u, Pu, data_duals, source_duals, first = zip(
        *(_wavefield_phase(problem, state, params, i) for i in range(len(problem.kernels))))
    m, assembled, Au, source_duals, box, warn = _model_phase(problem, state, params, u, source_duals)
    data_misfit, data_per_freq = _norms([pu - d for pu, d in zip(Pu, problem.observed)])
    pde_misfit, pde_per_freq = _norms([b - au for b, au in zip(problem.sources, Au)])
    stats = CycleStats(data_misfit, pde_misfit, data_per_freq, pde_per_freq,
                       initial_pde_misfit=stacked_norm(first) if state.k == 0 else None,
                       model_warning=warn)
    state.m_values, state.assembled, state.u = m, assembled, list(u)
    state.duals, state.box = DualState(data_duals, source_duals), box
    state.k += 1
    state.pde_solve_count += params.inner_iterations * problem.geometry.n_sources * len(problem.kernels)
    return stats


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
    return stacked_norm([state.m_values - problem.m_star]) / stacked_norm([problem.m_star])
