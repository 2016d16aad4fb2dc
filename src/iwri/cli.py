"""Command-line interface.

Subcommands: ``forward`` (synthesize observed data), ``invert`` (run the
inversion), ``mu1`` (largest data-resolution eigenvalue), ``scan-lambda``
(penalty-weight sensitivity sweep) and ``oracle-refine`` (dense refinement
demonstration).  Exit codes: 0 success, 1 configuration error, 2 numerical
failure.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .acquisition import add_noise, build_observation, synthesize_data
from .errors import ConfigError, FactorizationError, IwriError, ParameterError, SolverError
from .engine import check_inputs
from .fileio import (_CONFIG_KEYS, RunConfig, _csv_cell, load_config, read_dataset, read_model_file,
                     write_convergence_csv, write_dataset, write_model_file, write_raster)
from .grid import velocity_to_slowness_sq
from .helmholtz import StencilScheme, build_kernel, resolve_pml
from .linalg import power_iteration_mu1
from .refinement import DenseProblem, accumulated_rhs_solve, iterative_refine
from .util import stacked_norm
from .workflow import run_batch, run_inversion


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="iwri", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fwd = sub.add_parser("forward", help="synthesize observed data from the true model")
    fwd.add_argument("--config", required=True)
    fwd.add_argument("--out", required=True)

    inv = sub.add_parser("invert", help="run the inversion")
    inv.add_argument("--config", required=True)
    inv.add_argument("--out", required=True)
    for flag in ("--variant", "--lambda-fraction", "--alpha", "--inner-n", "--snr-db"):
        inv.add_argument(flag, help=f"overrides config key {flag[2:].replace('-', '_')}")

    mu = sub.add_parser("mu1", help="largest eigenvalue of the data-resolution operator")
    mu.add_argument("--config", required=True)
    mu.add_argument("--freq", type=float, required=True)
    mu.add_argument("--dense-check", action="store_true")

    scan = sub.add_parser("scan-lambda", help="penalty-weight sensitivity sweep")
    scan.add_argument("--config", required=True)
    scan.add_argument("--fractions", required=True,
                      help="comma-separated fractions of mu1, e.g. 1e-6,1e-4,1e-2")
    scan.add_argument("--out", required=True)

    oracle = sub.add_parser("oracle-refine", help="dense iterative-refinement demonstration")
    oracle.add_argument("--n", type=int, required=True)
    oracle.add_argument("--beta", type=float, required=True)
    oracle.add_argument("--k", type=int, required=True)
    oracle.add_argument("--seed", type=int, default=0)
    return parser


def _write_metadata(out_dir, command, config, unused=(), **fields):
    """``metadata.json``: the command, resolved config less ``unused`` keys, version, then ``fields``."""
    used = {key: value for key, value in config.resolved().items() if key not in unused}
    payload = {"command": command, "config": used, "version": __version__, **fields}
    (out_dir / "metadata.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")


def _apply_overrides(config, args):
    """The config with the given flags (named after their keys) in place of
    its values, parsed as if they were in the file."""
    given = {key: value for key, value in vars(args).items()
             if key in _CONFIG_KEYS and value is not None}
    return RunConfig({**config.raw, **given}, config.base_dir)


def _cmd_forward(args):
    config = load_config(args.config)
    geometry, frequencies, pml = config.geometry(), config.frequencies(), config.pml()
    true_model = read_model_file(config.path("true_model"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = synthesize_data(velocity_to_slowness_sq(true_model), geometry, frequencies,
                              pml, StencilScheme(), f0=config.value("f0"))
    dataset = add_noise(dataset, config.snr_db(), config.value("noise_seed"))
    write_dataset(dataset, out_dir / "dataset.iwd")
    _write_metadata(out_dir, "forward", config, unused=(
        "alpha", "batches", "bounds_mode", "data", "delta", "eps_n", "initial_model", "inner_n",
        "k_max", "lambda_fraction", "paths", "v_max", "v_min", "variant"),
        n_frequencies=dataset.n_frequencies)
    print(f"wrote {out_dir / 'dataset.iwd'} "
          f"({dataset.n_frequencies} frequencies, {dataset.geometry.n_sources} sources, "
          f"{dataset.geometry.n_receivers} receivers)")
    return 0


def _run_inputs(config, out, plan=None):
    """(initial model, data to invert, true model or None, output directory)
    of an inverting command, with noise at ``snr_db`` unless the dataset has
    some; ``out`` is created once the inputs are read and fit (with ``plan``)."""
    initial = read_model_file(config.path("initial_model"))
    dataset = read_dataset(config.path("data"))
    m_true = read_model_file(config.path("true_model")) if config.has("true_model") else None
    check_inputs(initial.grid, dataset.geometry, config.pml(), config.bounds(), m_true)
    if plan is not None:
        plan.frequency_indices(dataset.frequencies)
    snr = config.snr_db()
    if not math.isinf(snr):
        if dataset.seed is None:
            dataset = add_noise(dataset, snr, config.value("noise_seed"))
        else:
            print("dataset already carries noise; not adding more")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return initial, dataset, m_true, out_dir


def _cmd_invert(args):
    config = _apply_overrides(load_config(args.config), args)
    settings, criteria, plan = config.settings(), config.criteria(), config.plan()
    initial, dataset, m_true, out_dir = _run_inputs(config, args.out, plan)

    def report(br):  # one line per batch, as it finishes
        print(f"path {br.path} batch {br.batch_index} ({', '.join(f'{f:g}' for f in br.frequencies)} Hz): "
              f"{br.info.stop_reason.value} at cycle {br.info.iterations}")

    started = time.perf_counter()
    result = run_inversion(initial, plan, dataset, settings, criteria, m_true=m_true, on_batch=report)
    elapsed = time.perf_counter() - started

    write_model_file(result.final_model, out_dir / "final_model.mod")
    write_raster(result.final_model.as_2d(), out_dir / "final_model.pgm")
    for br in result.batches:
        name = f"convergence_p{br.path}_b{br.batch_index}.csv"
        write_convergence_csv(br.record, out_dir / name)
    _write_metadata(out_dir, "invert", config, run=result.metadata, wall_seconds=elapsed)
    print(f"inversion finished after {result.metadata['iterations_total']} iterations "
          f"({elapsed:.1f} s); model written to {out_dir / 'final_model.mod'}")
    return 0


def _cmd_mu1(args):
    config = load_config(args.config)
    settings = config.settings()
    model_key = "initial_model" if config.has("initial_model") else "true_model"
    model = read_model_file(config.path(model_key))
    m_true = read_model_file(config.path("true_model")) if config.has("true_model") else None
    pml = resolve_pml(settings.pml, model.grid, settings.bounds, m_true)
    kernel = build_kernel(model.grid, 2.0 * math.pi * args.freq, pml, settings.scheme)
    n = kernel.topology.n_pad
    if args.dense_check and n > 200:
        raise ConfigError(f"--dense-check needs <= 200 unknowns, padded grid has {n}")
    P = build_observation(kernel.topology, config.geometry().receivers)
    A = kernel.assemble(velocity_to_slowness_sq(model).values)
    mu1 = power_iteration_mu1(A, P).value
    print(f"mu1 = {mu1:.8e}")
    if args.dense_check:
        PG = P @ np.linalg.solve(A.toarray(), np.eye(n))
        dense = float(np.linalg.eigvalsh(PG.conj().T @ PG)[-1])
        rel = abs(mu1 - dense) / dense
        print(f"dense mu1 = {dense:.8e}, relative difference = {rel:.3e}")
    return 0


def _cmd_scan_lambda(args):
    config = load_config(args.config)
    base, criteria = config.settings(), replace(config.criteria(), pde_fraction=1e-3)
    values = [v for v in args.fractions.split(",") if v]
    try:  # each fraction is checked as the lambda_fraction of its run, before any run
        runs = [replace(base, lambda_fraction=float(v)) for v in values]
    except (ValueError, ParameterError) as exc:
        raise ConfigError(f"--fractions: {exc}") from exc
    if not runs:
        raise ConfigError("--fractions must list at least one value")
    tags = {}  # output tag -> the fraction as given
    for value, settings in zip(values, runs):
        tag = f"{settings.lambda_fraction:.3e}".replace("+", "")
        if tag in tags:
            raise ConfigError(f"--fractions: {tags[tag]} and {value} both write scan_{tag}.csv")
        tags[tag] = value

    initial, dataset, m_true, out_dir = _run_inputs(config, args.out)
    m0 = velocity_to_slowness_sq(initial)

    summary = ["fraction,iterations,stop_reason,final_pde_misfit,final_data_misfit,final_model_error"]
    for settings, tag in zip(runs, tags):
        fraction = settings.lambda_fraction
        _, record, info = run_batch(m0, dataset, settings, criteria, m_true=m_true)
        write_convergence_csv(record, out_dir / f"scan_{tag}.csv")
        summary.append(",".join(map(_csv_cell, [
            fraction, info.iterations, info.stop_reason.value,
            record.pde_misfit[-1], record.data_misfit[-1], record.model_error[-1]])))
        print(f"fraction {fraction:.3e}: {info.iterations} iterations "
              f"({info.stop_reason.value})")
    (out_dir / "scan_summary.csv").write_text("\n".join(summary) + "\n", encoding="ascii")
    _write_metadata(out_dir, "scan-lambda", config, unused=("lambda_fraction", "batches", "paths"),
                    fractions=[s.lambda_fraction for s in runs])
    return 0


def _cmd_oracle_refine(args):
    if args.n < 1 or args.k < 1:
        raise ConfigError("--n and --k must be positive")
    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((args.n, args.n)) + 1j * rng.standard_normal((args.n, args.n))
    b = rng.standard_normal(args.n) + 1j * rng.standard_normal(args.n)
    problem = DenseProblem(A=A, b=b, beta=args.beta)
    for step in range(1, args.k + 1):
        x = iterative_refine(problem, step)
        print(f"step {step}: residual = {stacked_norm([b - A @ x]):.6e}")
    gap = float(np.max(np.abs(iterative_refine(problem, args.k)
                              - accumulated_rhs_solve(problem, args.k))))
    print(f"sequential vs accumulated right-hand-side gap: {gap:.3e}")
    return 0


_COMMANDS = {
    "forward": _cmd_forward,
    "invert": _cmd_invert,
    "mu1": _cmd_mu1,
    "scan-lambda": _cmd_scan_lambda,
    "oracle-refine": _cmd_oracle_refine,
}


def cli_dispatch(argv):
    """Parse and run; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help / --version
        return 0 if not exc.code else 1
    except (SolverError, FactorizationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (IwriError, OSError) as exc:  # configuration, input and output errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
