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
from .engine import resolve_pml
from .errors import ConfigError, FactorizationError, FormatError, IwriError, SolverError
from .fileio import (_CONFIG_KEYS, RunConfig, load_config, read_dataset, read_model_file,
                     write_convergence_csv, write_dataset, write_model_file, write_raster)
from .grid import velocity_to_slowness_sq
from .helmholtz import build_kernel
from .refinement import DenseProblem, accumulated_rhs_solve, iterative_refine, pseudo_inverse_solve
from .workflow import estimate_mu1, run_batch, run_inversion


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


def _write_metadata(out_dir, payload):
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
    true_model = read_model_file(config.path("true_model"))
    geometry, frequencies, settings = config.geometry(), config.frequencies(), config.settings()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = synthesize_data(velocity_to_slowness_sq(true_model), geometry, frequencies,
                              settings.pml, settings.scheme, f0=config.value("f0"))
    snr = config.snr_db()
    dataset = add_noise(dataset, snr, config.value("noise_seed"))
    write_dataset(dataset, out_dir / "dataset.iwd")
    _write_metadata(out_dir, {
        "command": "forward",
        "config": config.resolved(),
        "snr_db": None if math.isinf(snr) else snr,
        "n_frequencies": dataset.n_frequencies,
        "version": __version__,
    })
    print(f"wrote {out_dir / 'dataset.iwd'} "
          f"({dataset.n_frequencies} frequencies, {dataset.geometry.n_sources} sources, "
          f"{dataset.geometry.n_receivers} receivers)")
    return 0


def _cmd_invert(args):
    config = _apply_overrides(load_config(args.config), args)
    initial = read_model_file(config.path("initial_model"))
    dataset = read_dataset(config.path("data"))
    m_true = read_model_file(config.path("true_model")) if config.has("true_model") else None
    settings, criteria, plan = config.settings(), config.criteria(), config.plan()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    snr = config.snr_db()
    if not math.isinf(snr):
        if dataset.seed is None:
            dataset = add_noise(dataset, snr, config.value("noise_seed"))
        else:
            print("dataset already carries noise; not adding more")

    started = time.perf_counter()
    result = run_inversion(initial, plan, dataset, settings, criteria, m_true=m_true)
    elapsed = time.perf_counter() - started

    write_model_file(result.final_model, out_dir / "final_model.mod")
    write_raster(result.final_model.as_2d(), out_dir / "final_model.pgm")
    for br in result.batches:
        name = f"convergence_p{br.path}_b{br.batch_index}.csv"
        write_convergence_csv(br.record, out_dir / name)
    _write_metadata(out_dir, {
        "command": "invert",
        "config": config.resolved(),
        "run": result.metadata,
        "wall_seconds": elapsed,
        "version": __version__,
    })
    print(f"inversion finished after {result.metadata['iterations_total']} iterations "
          f"({elapsed:.1f} s); model written to {out_dir / 'final_model.mod'}")
    return 0


def _cmd_mu1(args):
    config = load_config(args.config)
    model_key = "initial_model" if config.has("initial_model") else "true_model"
    model = read_model_file(config.path(model_key))
    m = velocity_to_slowness_sq(model)
    m_true = read_model_file(config.path("true_model")) if config.has("true_model") else None
    settings = config.settings()
    pml = resolve_pml(settings.pml, model.grid, settings.bounds, m_true)
    kernel = build_kernel(model.grid, 2.0 * math.pi * args.freq, pml, settings.scheme)
    P = build_observation(kernel.topology, config.geometry().receivers)
    mu1 = estimate_mu1(kernel, m.values, P)
    print(f"mu1 = {mu1:.8e}")
    if args.dense_check:
        n = kernel.topology.n_pad
        if n > 200:
            raise ConfigError(f"--dense-check needs <= 200 unknowns, padded grid has {n}")
        A = kernel.assemble(m.values).toarray()
        G = np.linalg.solve(A, np.eye(n))
        PG = P @ G
        dense = float(np.linalg.eigvalsh(PG.conj().T @ PG)[-1])
        rel = abs(mu1 - dense) / dense
        print(f"dense mu1 = {dense:.8e}, relative difference = {rel:.3e}")
    return 0


def _cmd_scan_lambda(args):
    config = load_config(args.config)
    try:
        fractions = [float(v) for v in args.fractions.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"--fractions: {exc}") from exc
    if not fractions:
        raise ConfigError("--fractions must list at least one value")

    initial = read_model_file(config.path("initial_model"))
    dataset = read_dataset(config.path("data"))
    m_true = read_model_file(config.path("true_model")) if config.has("true_model") else None
    base = config.settings()
    criteria = config.criteria()
    m0 = velocity_to_slowness_sq(initial)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = ["fraction,iterations,stop_reason,final_pde_misfit,final_data_misfit,final_model_error"]
    for fraction in fractions:
        settings = replace(base, lambda_fraction=fraction)
        _, record, info = run_batch(m0, dataset, settings, criteria, m_true=m_true,
                                    pde_stop_fraction=1e-3)
        tag = f"{fraction:.3e}".replace("+", "")
        write_convergence_csv(record, out_dir / f"scan_{tag}.csv")
        err = record.model_error[-1]
        summary.append(",".join([
            repr(fraction), str(info.iterations), info.stop_reason.value,
            repr(record.pde_misfit[-1]), repr(record.data_misfit[-1]),
            "" if err is None else repr(err),
        ]))
        print(f"fraction {fraction:.3e}: {info.iterations} iterations "
              f"({info.stop_reason.value})")
    (out_dir / "scan_summary.csv").write_text("\n".join(summary) + "\n", encoding="ascii")
    _write_metadata(out_dir, {"command": "scan-lambda", "config": config.resolved(),
                              "fractions": fractions, "version": __version__})
    return 0


def _cmd_oracle_refine(args):
    if args.n < 1 or args.k < 1:
        raise ConfigError("--n and --k must be positive")
    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((args.n, args.n)) + 1j * rng.standard_normal((args.n, args.n))
    b = rng.standard_normal(args.n) + 1j * rng.standard_normal(args.n)
    problem = DenseProblem(A=A, b=b, beta=args.beta)
    x = pseudo_inverse_solve(problem)
    for step in range(1, args.k + 1):
        x = iterative_refine(problem, step)
        residual = float(np.sqrt(np.sum(np.abs(b - A @ x) ** 2)))
        print(f"step {step}: residual = {residual:.6e}")
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
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, FactorizationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except IwriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    return cli_dispatch(sys.argv[1:] if argv is None else argv)
