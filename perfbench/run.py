"""iwri benchmark: fixed-work inversion workloads, timed end to end and per
layer from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each repetition runs the workload in fresh processes (``worker.py``) with
the BLAS pools pinned to ``BLAS_THREADS`` threads.  Repetitions are
started while the median repetition still fits in ``--seconds``, with at
least ``MIN_REPETITIONS`` untraced ones or one traced pair.  Every repetition of a run uses the same seed, so
their results must be bit-identical.

``--trace 0`` reports the end-to-end metrics; only the outer cycles are
timed inside the workload.  ``--trace 1`` runs pairs of one untraced and
one fully traced repetition, reports the per-layer metrics of the traced
ones and the tracing overhead, and checks that tracing changes no result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a JSON report with the environment, sample counts and every check.
The run exits with code 2, printing no result, when the checkout holds no
program.
"""

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # the single-threaded baseline; at most nproc
SNR_DB = 60.0  # fixed SNR; the seed picks the noise realization
HARD_DEADLINE_S = 170.0
MIN_REPETITIONS = 3  # untraced; setup_s is the median of at least this many set-ups

# Two heavier workloads were dropped: the box with 16 sources, whose
# 16-column banded solves stream the factors from memory, and the CLI path
# on the 2x-refined box (band 322, 173 MB).  On a shared host their times
# drifted by up to 30 % within a quarter-hour, so ten-run spreads reached or
# passed the largest bound a benchmark may set (0.25).
WORKLOADS = {
    "box-1src": {
        "why": "The README/acceptance box preset and the traffic of acceptance criterion 7: "
               "banded Cholesky with one right-hand side is ~70% of a cycle, so wavefield "
               "factorization and H assembly dominate.",
        "interface": "api", "refine": 1, "sources": 1, "cycles": 12, "batches": None,
    },
    "cli-continuation": {
        "why": "The user path: the box through `iwri forward` then `iwri invert` with "
               "batches 2.5|5|7; process start, file reading and per-batch set-up "
               "(kernels, reference wavefields, SuperLU, mu1) repeat and take about half "
               "the run, and only this workload exercises fileio and cli.",
        "interface": "cli", "refine": 1, "sources": 1, "cycles": 4,
        "batches": [[2.5], [5.0], [7.0]],
    },
}

END_TO_END = {  # name: unit
    "run_s": "s", "setup_s": "s", "cycle_s": "s", "run_cpu_s": "s",
    "peak_rss_mb": "MiB", "model_err": "ratio", "pde_rel": "ratio",
}
SPANS = [
    "helmholtz.build_kernel", "helmholtz.assemble", "helmholtz.scaled_mass",
    "linalg.factorize_wave", "linalg.normal_matrix", "linalg.solve_wave",
    "linalg.factorize_model", "linalg.solve_model", "linalg.lu_factorize",
    "linalg.power_iteration", "engine.problem_build", "engine.cycle",
    "engine.estimate_model", "workflow.run_batch", "acquisition.synthesize",
    "acquisition.add_noise", "fileio.read", "fileio.write", "cli.startup",
]
# spans whose metric names spell out that they are self times
SELF_NAMED = {"engine.cycle", "engine.estimate_model", "workflow.run_batch"}
COUNTS = ["linalg.solve_wave_rhs", "linalg.power_iterations", "engine.pde_solves",
          "linalg.splu_fallbacks"]
KERNEL = {"band_width": "count", "band_mb": "MiB", "factor_gflop": "GF", "band_fill": "ratio"}
REFERENCE = json.loads((HERE / "reference.json").read_text())


def per_layer_units():
    units = {}
    for span in SPANS:
        stem = span + "_self" if span in SELF_NAMED else span
        units[stem + "_s"] = "s"
        units[stem + "_cpu_s"] = "s"
        units[span + "_calls"] = "count"
    units.update({name: "count" for name in COUNTS})
    units.update({"linalg." + name: unit for name, unit in KERNEL.items()})
    units["trace.overhead_s"] = "s"
    return units


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """State of one benchmark invocation: work directory, deadline and
    accumulated counts and check failures."""

    def __init__(self, workload, seed, work):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.deadline = now() + HARD_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.env = dict(os.environ, PYTHONPATH="")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "IWRI_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)
        return ok

    def launch(self, mode, *args, log):
        """Run one worker process; returns its wall interval, exit code,
        CPU seconds and peak RSS."""
        start = now()
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--launch", repr(start), *args]
        with open(log, "ab") as out:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([fd], [], [], max(0.0, self.deadline - now()))[0]
            finally:
                os.close(fd)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = now()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if not self.check(code == 0, f"{mode} worker exited with code {code}"
                          + (" (timed out)" if timed_out else "")):
            sys.stderr.write(Path(log).read_text(errors="replace")[-3000:])
        return {"start": start, "end": end, "code": code,
                "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0}

    # -- one repetition -------------------------------------------------------

    def prepare(self):
        spec = {"workload": self.name, "refine": self.wl["refine"],
                "sources": self.wl["sources"], "cycles": self.wl["cycles"],
                "batches": self.wl["batches"], "seed": self.seed, "snr_db": SNR_DB}
        (self.work / "spec.json").write_text(json.dumps(spec))
        proc = self.launch("prepare", "--spec", self.work / "spec.json",
                           log=self.work / "prepare.log")
        if proc["code"] != 0:
            raise RuntimeError("input generation failed")
        self.inputs = json.loads((self.work / "inputs.json").read_text())

    def repetition(self, index, traced):
        rep = self.work / f"rep{index}{'t' if traced else ''}"
        rep.mkdir()
        if self.wl["interface"] == "api":
            return self._api_rep(rep, traced)
        return self._cli_rep(rep, traced)

    def _api_rep(self, rep, traced):
        out, final = rep / "result.json", rep / "final_model.mod"
        proc = self.launch("api", "--trace", str(int(traced)), "--spec", self.work / "spec.json",
                           "--out", out, "--final", final, log=rep / "log")
        data = json.loads(out.read_text()) if out.exists() else {}
        result = data.get("result")
        self.check(result is not None, "api worker wrote no result")
        stops = result["batches"] if result else []
        outcome = self._outcome([proc], data, final, stops)
        if result:
            outcome["model_err"], outcome["pde_rel"] = result["model_err"], result["pde_rel"]
        outcome["setup_s"] = self._first_cycle(data) - proc["start"]
        return outcome

    def _cli_rep(self, rep, traced):
        trace = ["--trace", str(int(traced))]
        cfg = self.work / "run.cfg"
        shutil.rmtree(self.work / "fwd", ignore_errors=True)
        fwd = self.launch("cli", *trace, "--out", rep / "forward.json", "--",
                          "forward", "--config", cfg, "--out", self.work / "fwd", log=rep / "log")
        self.check((self.work / "fwd" / "dataset.iwd").is_file(), "forward wrote no dataset")
        inv_dir = rep / "inv"
        inv = self.launch("cli", *trace, "--out", rep / "invert.json", "--",
                          "invert", "--config", cfg, "--out", inv_dir, log=rep / "log")
        datas = [json.loads(p.read_text()) if p.exists() else {}
                 for p in (rep / "forward.json", rep / "invert.json")]
        meta_path = inv_dir / "metadata.json"
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else None
        self.check(meta is not None, "invert wrote no metadata.json")
        batches = meta["run"]["batches"] if meta else []
        stops = [{"stop_reason": b["stop_reason"], "iterations": b["iterations"]} for b in batches]
        final = inv_dir / "final_model.mod"
        for name in ["final_model.pgm"] + [f"convergence_p0_b{i}.csv" for i in range(len(batches))]:
            self.check((inv_dir / name).is_file(), f"invert wrote no {name}")
        outcome = self._outcome([fwd, inv], self._merge(datas), final, stops)
        if batches:
            last = _read_csv(inv_dir / f"convergence_p0_b{len(batches) - 1}.csv")[-1]
            outcome["model_err"] = float(last["model_error"])
            outcome["pde_rel"] = float(last["pde_misfit"]) / batches[-1]["initial_pde_misfit"]
        outcome["setup_s"] = (fwd["end"] - fwd["start"]) + (self._first_cycle(datas[1]) - inv["start"])
        return outcome

    @staticmethod
    def _merge(datas):
        merged = {"layers": {}, "cycles": [], "counts": {}, "kernels": [], "cycle_sum_gaps": []}
        for data in datas:
            for key in ("cycles", "kernels", "cycle_sum_gaps"):
                merged[key] += data.get(key, [])
            for name, (calls, wall, cpu) in data.get("layers", {}).items():
                acc = merged["layers"].setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += wall
                acc[2] += cpu
            for name, value in data.get("counts", {}).items():
                merged["counts"][name] = merged["counts"].get(name, 0) + value
        return merged

    @staticmethod
    def _first_cycle(data):
        cycles = data.get("cycles")
        return cycles[0][1] if cycles else math.nan

    def _outcome(self, procs, data, final, stops):
        """Checks shared by both interfaces; returns the repetition's
        measurements.  Each process (command) and each configured cycle
        is one attempted operation."""
        k_max = self.wl["cycles"]
        n_batches = len(self.wl["batches"] or [None])
        cycles = data.get("cycles", [])
        expected = k_max * n_batches
        bad = sum(1 for c in cycles if not (c[3] and c[4]))
        self.attempted += len(procs) + expected
        self.failed += sum(p["code"] != 0 for p in procs)
        self.failed += max(0, expected - len(cycles)) + bad
        self.check(len(cycles) == expected, f"{len(cycles)} cycles run, {expected} configured")
        self.check(bad == 0, f"{bad} cycles left non-finite or out-of-bounds iterates")
        self.check(len(stops) == n_batches and all(
            s["stop_reason"] == "stop_kmax" and s["iterations"] == k_max for s in stops),
            f"batches did not each stop at k_max = {k_max}: {stops}")
        velocities = _read_model(final) if final.is_file() else None
        self.check(velocities is not None, f"no final model at {final.name}")
        if velocities is not None:
            lo, hi = self.inputs["v_min"] - 0.01, self.inputs["v_max"] + 0.01
            self.check(all(lo <= v <= hi for v in velocities),
                       "final model not finite or outside the velocity bounds")
        gaps = data.get("cycle_sum_gaps", [])
        self.check(max(gaps, default=0.0) <= 0.01,
                   f"self times within a cycle miss its span by {max(gaps, default=0.0):.2%}")
        return {
            "run_s": sum(p["end"] - p["start"] for p in procs),
            "cycle_s": [c[2] - c[1] for c in cycles if c[0] > 0],
            "run_cpu_s": sum(p["cpu_s"] for p in procs),
            "peak_rss_mb": max(p["rss_mb"] for p in procs),
            "final_bytes": final.read_bytes() if final.is_file() else b"",
            "layers": data.get("layers", {}), "counts": data.get("counts", {}),
            "kernels": data.get("kernels", []),
        }


def _read_csv(path):
    lines = path.read_text().splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def _read_model(path):
    """Velocities of a model file (five header lines, then little-endian
    float32), or None if the payload does not match the header."""
    blob = path.read_bytes()
    parts = blob.split(b"\n", 5)
    if len(parts) < 6 or len(parts[5]) % 4:
        return None
    values = array("f")
    values.frombytes(parts[5])
    if sys.byteorder != "little":
        values.byteswap()
    return values if len(values) == int(parts[1]) * int(parts[2]) else None


def highest_percentile(samples):
    """The highest of the usual percentiles with at least ten samples
    beyond it, as (label, value), or None."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100.0) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"p{p:g}", cuts[int(round(p * 10)) - 1]
    return None


def end_to_end(reps):
    cycles = [c for r in reps for c in r["cycle_s"]]
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "cycle_s": statistics.median(cycles),
        "run_cpu_s": statistics.median(r["run_cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "model_err": reps[0]["model_err"],
        "pde_rel": reps[0]["pde_rel"],
    }
    tail = highest_percentile(cycles)
    details = {"repetitions": len(reps), "cycle_s_samples": len(cycles),
               "cycle_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
               "run_s_each": [r["run_s"] for r in reps],
               "setup_s_each": [r["setup_s"] for r in reps]}
    return metrics, details


def per_layer(run, traced, overheads):
    metrics = {}
    for span in SPANS:
        stem = span + "_self" if span in SELF_NAMED else span
        values = [r["layers"].get(span, [0, 0.0, 0.0]) for r in traced]
        metrics[stem + "_s"] = statistics.median(v[1] for v in values)
        metrics[stem + "_cpu_s"] = statistics.median(v[2] for v in values)
        metrics[span + "_calls"] = statistics.median(v[0] for v in values)
        run.check(all(v[0] > 0 for v in values), f"layer span {span} never ran")
    for name in COUNTS:
        metrics[name] = statistics.median(r["counts"].get(name, 0) for r in traced)
    kernels = [k for r in traced for k in r["kernels"]]
    run.check(bool(kernels), "no wavefield factorization was traced")
    for name in KERNEL:
        metrics["linalg." + name] = statistics.median(k[name] for k in kernels) if kernels else 0
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics


def compare_results(run, reps, what):
    first = reps[0]
    for r in reps[1:]:
        run.check(r["model_err"] == first["model_err"] and r["pde_rel"] == first["pde_rel"]
                  and r["final_bytes"] == first["final_bytes"],
                  f"{what}: results differ between repetitions with the same seed")


def check_reference(run, result):
    if run.seed != REFERENCE["seed"]:
        return
    ref = REFERENCE["workloads"][run.name]
    for key in ("model_err", "pde_rel"):
        rel = abs(result[key] - ref[key]) / abs(ref[key])
        run.check(rel <= REFERENCE["rel_tol"],
                  f"{key} = {result[key]!r} differs from the reference {ref[key]!r} "
                  f"by {rel:.3e} (tolerance {REFERENCE['rel_tol']})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE["seed"])
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # unwind on SIGTERM too, so running workers are killed and reaped and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "iwri" / "__init__.py").is_file():
        print(f"no iwri package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    load_before = os.getloadavg()
    run = Run(args.workload, args.seed, work)
    try:
        run.prepare()
        began = now()
        units, durations, overheads = [], [], []
        while True:
            started = now()
            if args.trace:
                # alternate which side of the pair runs first, starting from
                # the seed's parity so that one-pair runs are not all biased
                order = (False, True) if (len(units) + args.seed) % 2 == 0 else (True, False)
                pair = {t: run.repetition(len(units), t) for t in order}
                units.append(pair)
                overheads.append(pair[True]["run_s"] - pair[False]["run_s"])
            else:
                units.append(run.repetition(len(units), False))
            durations.append(now() - started)
            if run.problems:
                break
            expected = statistics.median(durations)
            if now() + 1.5 * expected > run.deadline:
                break
            if (len(units) >= (1 if args.trace else MIN_REPETITIONS)
                    and now() - began + expected > args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass
    load_after = os.getloadavg()
    reps = [r for u in units for r in (u.values() if args.trace else [u])]
    if not all("model_err" in r and math.isfinite(r["setup_s"]) for r in reps):
        print(json.dumps({"problems": run.problems}, indent=1), file=sys.stderr)
        return 1

    if args.trace:
        plain = [u[False] for u in units]
        traced = [u[True] for u in units]
        compare_results(run, plain + traced, "traced and untraced")
        e2e, details = end_to_end(plain)
        metrics = per_layer(run, traced, overheads)
        units_of = per_layer_units()
        details["trace_overhead_s_each"] = overheads
        details["trace_overhead_frac"] = statistics.median(overheads) / e2e["run_s"]
    else:
        compare_results(run, units, "untraced")
        metrics, details = end_to_end(units)
        e2e = metrics
        units_of = END_TO_END
    run.check(e2e["model_err"] < run.inputs["start_err"],
              f"model_err {e2e['model_err']!r} is not below the starting error "
              f"{run.inputs['start_err']!r}")
    check_reference(run, e2e)

    wl = run.wl
    report = {
        "workload": args.workload, "why": wl["why"], "seed": args.seed, "trace": args.trace,
        "environment": {
            **run.inputs["versions"], "blas": run.inputs["blas"], "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before, "loadavg_after": load_after,
        },
        "workload_size": {
            **run.inputs["grid"], "band_computed": run.inputs["band"],
            "sources": run.inputs["n_sources"], "receivers": run.inputs["n_receivers"],
            "frequencies": run.inputs["frequencies"], "batches": wl["batches"],
            "cycles_per_batch": wl["cycles"], "snr_db": SNR_DB,
            "start_err": run.inputs["start_err"],
        },
        "end_to_end": e2e, "details": details,
        "failed_frac": run.failed / max(run.attempted, 1),
        "problems": run.problems,
    }
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
