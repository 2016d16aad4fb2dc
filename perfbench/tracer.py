"""Span recorder installed from outside the iwri package.

Each wrapper replaces the attribute that callers look up: ``iwri.engine``
imports ``factorize``, ``assemble_normal_matrix`` and ``estimate_model`` by
name, ``iwri.workflow`` does the same for ``inner_refine`` and
``lu_factorize``, and so on.  ``install`` therefore rebinds every name in
every loaded ``iwri`` module that refers to the original function; methods
are replaced on their class.  Nothing under ``src/`` is modified.

A span is ``[name, wall_start, wall_end, cpu_start, cpu_end, parent]``.
Wall time is ``CLOCK_MONOTONIC``, which is shared by all processes, so the
parent benchmark process can relate child timestamps to its own launch
times.  CPU time is the process CPU clock.  Spans named ``bench.*`` hold
the recorder's own bookkeeping; they are subtracted from their parent's
self time but are not reported as a layer.

With ``full=False`` only the outer cycle is timed (two clock reads and an
iterate check per cycle); the untraced end-to-end runs use that mode.
"""

import sys
import time
from collections import defaultdict

import numpy as np

CYCLE = "engine.cycle"


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def band_counts(H, ordering):
    """Computed kernel counts of a banded Cholesky of ``H``: band width (the
    narrower of the natural and the given ordering, as ``factorize``
    chooses), band storage, the 4*n*bw^2 flop estimate and the fill, i.e.
    lower-triangle nonzeros divided by band entries."""
    coo = H.tocoo()
    n = H.shape[0]
    rows, cols = coo.row.astype(np.int64), coo.col.astype(np.int64)
    bw = int(np.max(np.abs(rows - cols)))
    if ordering is not None:
        inv = np.empty(n, dtype=np.int64)
        inv[np.asarray(ordering)] = np.arange(n)
        bw = min(bw, int(np.max(np.abs(inv[rows] - inv[cols]))))
    entries = (bw + 1) * n
    itemsize = 16 if np.iscomplexobj(coo.data) else 8
    return {
        "band_width": bw,
        "band_mb": entries * itemsize / 2**20,
        "factor_gflop": 4.0 * n * bw**2 / 1e9,
        "band_fill": int(np.count_nonzero(rows >= cols)) / entries,
    }


class Recorder:
    def __init__(self, full):
        self.full = full
        self.spans = []
        self.cycles = []  # [k_before, wall_start, wall_end, finite, inside_bounds]
        self.counts = defaultdict(int)
        self.kernels = []  # band_counts() of each wavefield factorization
        self._stack = []
        self._band_cache = {}

    # -- spans ---------------------------------------------------------------

    def add(self, name, start, end, cpu_start, cpu_end):
        """Record a span measured elsewhere (process start-up)."""
        self.spans.append([name, start, end, cpu_start, cpu_end, -1])

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, now(), None, time.process_time(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[4] = time.process_time()
        span[2] = now()
        self._stack.pop()

    def traced(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def summary(self):
        """Per span name: calls and summed self wall/CPU seconds, where self
        time is a span's duration minus the durations of its direct
        children; plus, per outer cycle, the relative gap between the sum of
        the self times in its subtree and its own duration."""
        spans = self.spans
        self_wall = [s[2] - s[1] for s in spans]
        self_cpu = [s[4] - s[3] for s in spans]
        children = defaultdict(list)
        for i, s in enumerate(spans):
            if s[5] >= 0:
                children[s[5]].append(i)
                self_wall[s[5]] -= s[2] - s[1]
                self_cpu[s[5]] -= s[4] - s[3]
        layers = defaultdict(lambda: [0, 0.0, 0.0])
        for i, s in enumerate(spans):
            entry = layers[s[0]]
            entry[0] += 1
            entry[1] += self_wall[i]
            entry[2] += self_cpu[i]
        gaps = []
        for i, s in enumerate(spans):
            if s[0] != CYCLE:
                continue
            total, todo = 0.0, [i]
            while todo:
                j = todo.pop()
                total += self_wall[j]
                todo.extend(children[j])
            gaps.append(abs(total - (s[2] - s[1])) / (s[2] - s[1]))
        return {"layers": dict(layers), "cycle_sum_gaps": gaps,
                "counts": dict(self.counts), "kernels": self.kernels,
                "cycles": self.cycles}

    # -- installation ----------------------------------------------------------

    def install(self):
        import iwri.acquisition as acquisition
        import iwri.engine as engine
        import iwri.fileio as fileio
        import iwri.helmholtz as helmholtz
        import iwri.linalg as linalg
        import iwri.workflow as workflow

        _rebind(engine.inner_refine, self._cycle_wrapper(engine.inner_refine))
        if not self.full:
            return
        for fn, name in [
            (helmholtz.build_kernel, "helmholtz.build_kernel"),
            (linalg.assemble_normal_matrix, "linalg.normal_matrix"),
            (linalg.lu_factorize, "linalg.lu_factorize"),
            (engine.estimate_model, "engine.estimate_model"),
            (workflow.run_batch, "workflow.run_batch"),
            (acquisition.synthesize_data, "acquisition.synthesize"),
            (acquisition.add_noise, "acquisition.add_noise"),
            (fileio.load_config, "fileio.read"),
            (fileio.read_model_file, "fileio.read"),
            (fileio.read_dataset, "fileio.read"),
            (fileio.write_model_file, "fileio.write"),
            (fileio.write_dataset, "fileio.write"),
            (fileio.write_convergence_csv, "fileio.write"),
            (fileio.write_raster, "fileio.write"),
        ]:
            _rebind(fn, self.traced(name, fn))
        _rebind(linalg.power_iteration_mu1, self._power_wrapper(linalg.power_iteration_mu1))
        _rebind(linalg.factorize, self._factorize_wrapper(linalg.factorize))

        kernel = helmholtz.HelmholtzKernel
        kernel.assemble = self.traced("helmholtz.assemble", kernel.assemble)
        kernel.scaled_mass = self.traced("helmholtz.scaled_mass", kernel.scaled_mass)
        problem = engine.InversionProblem
        problem.__init__ = self.traced("engine.problem_build", problem.__init__)
        fact = linalg.SparseFactorization
        fact.solve = self._solve_wrapper(fact.solve)

    def _in_model_step(self):
        return bool(self._stack) and self.spans[self._stack[-1]][0] == "engine.estimate_model"

    def _cycle_wrapper(self, fn):
        def inner_refine(problem, state, params):
            k, solves = state.k, state.pde_solve_count
            idx = self.open(CYCLE) if self.full else None
            start = now()
            try:
                return fn(problem, state, params)
            finally:
                end = now()
                if idx is not None:
                    self.close(idx)
                m = state.m_values
                self.cycles.append([k, start, end, bool(np.all(np.isfinite(m))),
                                    bool(np.all((m >= problem.lo) & (m <= problem.hi)))])
                self.counts["engine.pde_solves"] += state.pde_solve_count - solves
        return inner_refine

    def _factorize_wrapper(self, fn):
        def factorize(H, ordering=None):
            wave = not self._in_model_step()
            idx = self.open("linalg.factorize_wave" if wave else "linalg.factorize_model")
            try:
                if wave:
                    self._record_band(H, ordering)
                result = fn(H, ordering=ordering)
            finally:
                self.close(idx)
            if wave and result._backend == "splu":
                self.counts["linalg.splu_fallbacks"] += 1
            return result
        return factorize

    def _record_band(self, H, ordering):
        idx = self.open("bench.band_counts")
        try:
            key = (H.shape[0], H.nnz, None if ordering is None else id(ordering))
            if key not in self._band_cache:
                self._band_cache[key] = band_counts(H, ordering)
            self.kernels.append(self._band_cache[key])
        finally:
            self.close(idx)

    def _solve_wrapper(self, fn):
        def solve(fact, rhs):
            model = self._in_model_step()
            if not model:
                shape = np.shape(rhs)
                self.counts["linalg.solve_wave_rhs"] += shape[1] if len(shape) > 1 else 1
            idx = self.open("linalg.solve_model" if model else "linalg.solve_wave")
            try:
                return fn(fact, rhs)
            finally:
                self.close(idx)
        return solve

    def _power_wrapper(self, fn):
        def power_iteration_mu1(*args, **kwargs):
            idx = self.open("linalg.power_iteration")
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.counts["linalg.power_iterations"] += result.iterations
            return result
        return power_iteration_mu1


def _rebind(original, replacement):
    """Point every name bound to ``original`` in the loaded iwri modules at
    ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "iwri" or mod_name.startswith("iwri.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)

