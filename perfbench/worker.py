"""One process of a benchmark workload.

    worker.py prepare --spec SPEC
        Writes the generated inputs (true/initial model files and run.cfg)
        next to SPEC, plus inputs.json with the starting model error, grid
        and band sizes and the library versions and BLAS thread counts.
    worker.py api --spec SPEC --out RESULT --launch T --trace 0|1
        Runs the workload through the public API, as ``iwri forward`` and
        ``iwri invert`` would in one process, and writes RESULT.
    worker.py cli --out RESULT --launch T --trace 0|1 -- ARGS...
        Runs ``iwri ARGS...`` through the console-script entry point.

``--launch`` is the CLOCK_MONOTONIC time at which the parent started this
process.  ``--trace 1`` installs every span wrapper; ``--trace 0`` only
times the outer cycles.  BLAS thread counts come from the environment the
parent sets.
"""

import argparse
import ctypes
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import iwri  # noqa: E402
from tracer import Recorder, band_counts, now  # noqa: E402

if not Path(iwri.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"iwri imported from {iwri.__file__}, not from this checkout")


def _blas_info():
    """Version string and live thread count of each loaded OpenBLAS."""
    libs = sorted({line.split()[-1] for line in open("/proc/self/maps")
                   if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    info = []
    for path in libs:
        lib = ctypes.CDLL(path)
        suffix = "64_" if hasattr(lib, "scipy_openblas_get_config64_") else ""
        get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        get_config.restype = ctypes.c_char_p
        info.append({"library": Path(path).name,
                     "config": get_config().decode(),
                     "threads": getattr(lib, f"scipy_openblas_get_num_threads{suffix}")()})
    return info


def prepare(spec_path):
    import scipy

    from iwri.acquisition import AcquisitionGeometry, FrequencyDataset
    from iwri.engine import InversionProblem
    from iwri.fileio import load_config, write_model_file
    from iwri.grid import velocity_to_slowness_sq
    from iwri.linalg import assemble_normal_matrix
    from iwri.presets import box_anomaly_setup

    spec = json.loads(spec_path.read_text())
    work = spec_path.parent
    r = spec["refine"]
    setup = box_anomaly_setup(nx=100 * r, nz=70 * r, dx=10.0 / r)
    grid = setup.true_model.grid
    n_src = spec["sources"]
    sources = setup.geometry.sources if n_src == 1 else tuple(
        (1.5 * grid.dx, (i + 0.5) * grid.depth / n_src) for i in range(n_src))
    geometry = AcquisitionGeometry(sources=sources, receivers=setup.geometry.receivers)
    write_model_file(setup.true_model, work / "true.mod")
    write_model_file(setup.initial_model, work / "init.mod")

    def points(pts):
        return "; ".join(f"{x!r},{z!r}" for x, z in pts)

    config = {
        "true_model": "true.mod",
        "initial_model": "init.mod",
        "data": "fwd/dataset.iwd",
        "sources": points(geometry.sources),
        "receivers": points(geometry.receivers),
        "frequencies": " ".join(repr(f) for f in setup.frequencies),
        "v_min": repr(setup.bounds.v_min),
        "v_max": repr(setup.bounds.v_max),
        "k_max": str(spec["cycles"]),
        # unreachable thresholds: every batch runs exactly k_max cycles
        "delta": "1e-300",
        "eps_n": "1e-300",
        "snr_db": repr(spec["snr_db"]),
        # The mu1 start vector keeps the program's default seed: power
        # iterations range from 47 to 149 over start vectors on the 2x grid,
        # which would make the amount of work depend on the seed.
        "noise_seed": str(spec["seed"]),
    }
    if spec["batches"]:
        config["batches"] = " | ".join(" ".join(repr(f) for f in b) for b in spec["batches"])
    (work / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))

    cfg = load_config(work / "run.cfg")
    settings = cfg.settings()
    m_true = velocity_to_slowness_sq(setup.true_model).values
    m0 = velocity_to_slowness_sq(setup.initial_model).values
    f = setup.frequencies[0]
    empty = FrequencyDataset(frequencies=(f,), geometry=geometry,
                             data=[np.zeros((geometry.n_receivers, geometry.n_sources))],
                             noise_level=[1.0])
    problem = InversionProblem(grid, settings.pml, settings.scheme, empty, bounds=settings.bounds)
    gp = problem.topology.grid_pad
    H = assemble_normal_matrix(problem.kernels[0].assemble(m0), problem.P, 1.0)
    inputs = {
        "start_err": float(np.linalg.norm(m0 - m_true) / np.linalg.norm(m_true)),
        "v_min": setup.bounds.v_min,
        "v_max": setup.bounds.v_max,
        "grid": {"nx": grid.nx, "nz": grid.nz, "dx": grid.dx,
                 "nx_pad": gp.nx, "nz_pad": gp.nz, "n_pad": gp.n},
        "band": band_counts(H, problem.pad_ordering),
        "n_sources": geometry.n_sources,
        "n_receivers": geometry.n_receivers,
        "frequencies": list(setup.frequencies),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "iwri": iwri.__version__},
        "blas": _blas_info(),
    }
    (work / "inputs.json").write_text(json.dumps(inputs))


def run_api(spec_path, final_path):
    """The box workloads: read the generated inputs, synthesize noisy data,
    invert for a fixed number of cycles and write the final model."""
    from iwri.acquisition import add_noise, synthesize_data
    from iwri.fileio import load_config, read_model_file, write_model_file
    from iwri.grid import velocity_to_slowness_sq
    from iwri.workflow import run_inversion

    config = load_config(spec_path.parent / "run.cfg")
    true_model = read_model_file(config.path("true_model"))
    initial = read_model_file(config.path("initial_model"))
    settings = config.settings()
    dataset = synthesize_data(velocity_to_slowness_sq(true_model), config.geometry(),
                              config.frequencies(), config.pml(), settings.scheme,
                              f0=float(config.raw["f0"]))
    dataset = add_noise(dataset, config.snr_db(), int(config.raw["noise_seed"]))
    result = run_inversion(initial, config.plan(), dataset, settings, config.criteria(),
                           m_true=true_model)
    write_model_file(result.final_model, final_path)
    last = result.batches[-1]
    return {
        "model_err": last.record.model_error[-1],
        "pde_rel": last.record.pde_misfit[-1] / last.info.initial_pde_misfit,
        "batches": [{"stop_reason": b.info.stop_reason.value, "iterations": b.info.iterations}
                    for b in result.batches],
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["prepare", "api", "cli"])
    parser.add_argument("--spec", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--final", type=Path)
    parser.add_argument("--launch", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    if args.mode == "prepare":
        prepare(args.spec)
        return 0

    recorder = Recorder(full=bool(args.trace))
    recorder.install()
    recorder.add("cli.startup", args.launch, now(), 0.0, time.process_time())
    payload = {}
    code = 0
    try:
        if args.mode == "api":
            payload["result"] = run_api(args.spec, args.final)
        else:
            from iwri._main import run

            sys.argv = ["iwri", *argv[split + 1:]]
            try:
                run()
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        payload.update(recorder.summary())
        args.out.write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
