import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iwri
import iwri.cli
import iwri.engine
from iwri.errors import ConfigError, FactorizationError, FormatError
from iwri.grid import Grid2D, VelocityModel, build_homogeneous, velocity_to_slowness_sq
from iwri.helmholtz import PmlConfig, StencilScheme
from iwri.acquisition import AcquisitionGeometry, synthesize_data
from iwri.fileio import (_CONFIG_KEYS, load_config, read_convergence_csv, read_dataset,
                         read_model_file, write_convergence_csv, write_dataset, write_model_file,
                         write_raster)
from iwri.workflow import ConvergenceRecord
from iwri.cli import _build_parser, cli_dispatch
from iwri.presets import box_anomaly_setup


# -- model files ---------------------------------------------------------------


def test_model_round_trip(tmp_path, rng):
    grid = Grid2D(100, 70, 10.0, 10.0)
    model = VelocityModel(grid, rng.uniform(1500.0, 2500.0, grid.n))
    path = tmp_path / "m.mod"
    write_model_file(model, path)
    back = read_model_file(path)
    assert back.grid == grid
    assert np.array_equal(back.values, model.values.astype(np.float32).astype(np.float64))


def test_model_header_and_size_checks(tmp_path):
    grid = Grid2D(100, 70, 10.0, 10.0)
    model = build_homogeneous(grid, 1800.0)
    path = tmp_path / "m.mod"
    write_model_file(model, path)
    blob = path.read_bytes()

    # payload one float short
    (tmp_path / "short.mod").write_bytes(blob[:-4])
    with pytest.raises(FormatError):
        read_model_file(tmp_path / "short.mod")
    # bad magic
    (tmp_path / "magic.mod").write_bytes(b"IWRI-MODEL-9" + blob[12:])
    with pytest.raises(FormatError):
        read_model_file(tmp_path / "magic.mod")
    # NaN in the payload reports the index
    bad = bytearray(blob)
    header_len = len(blob) - grid.n * 4
    bad[header_len + 7 * 4:header_len + 8 * 4] = np.array([np.nan], "<f4").tobytes()
    (tmp_path / "nan.mod").write_bytes(bytes(bad))
    with pytest.raises(FormatError) as err:
        read_model_file(tmp_path / "nan.mod")
    assert "index 7" in str(err.value)
    # non-finite spacings and a non-integer count in the header
    for line, text in ((3, b"nan"), (3, b"inf"), (4, b"nan"), (4, b"-inf"), (1, b"100.5")):
        lines = blob.split(b"\n", 5)
        lines[line] = text
        (tmp_path / "head.mod").write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError) as err:
            read_model_file(tmp_path / "head.mod")
        assert str(err.value).startswith(f"{tmp_path / 'head.mod'}: "), (line, text)


def test_model_write_is_deterministic(tmp_path, rng):
    grid = Grid2D(20, 10, 5.0, 5.0)
    model = VelocityModel(grid, rng.uniform(1500.0, 2500.0, grid.n))
    write_model_file(model, tmp_path / "a.mod")
    write_model_file(model, tmp_path / "b.mod")
    assert (tmp_path / "a.mod").read_bytes() == (tmp_path / "b.mod").read_bytes()


# -- dataset files ---------------------------------------------------------------


def make_dataset():
    grid = Grid2D(12, 9, 10.0, 10.0)
    m = velocity_to_slowness_sq(build_homogeneous(grid, 1800.0))
    geom = AcquisitionGeometry(sources=((15.0, 45.0), (15.0, 25.0)),
                               receivers=((105.0, 25.0), (105.0, 65.0), (105.0, 45.0)))
    return synthesize_data(m, geom, (4.0, 7.0), PmlConfig(n_layers=3),
                           StencilScheme(), f0=5.0)


def test_dataset_round_trip(tmp_path):
    ds = make_dataset()
    path = tmp_path / "d.iwd"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.frequencies == ds.frequencies
    assert back.source_scale == ds.source_scale
    assert np.array_equal(back.noise_level, ds.noise_level)
    assert back.geometry.sources == ds.geometry.sources
    assert back.geometry.receivers == ds.geometry.receivers
    for a, b in zip(back.data, ds.data):
        assert np.array_equal(a, b)


def test_dataset_payload_size_check(tmp_path):
    ds = make_dataset()
    path = tmp_path / "d.iwd"
    write_dataset(ds, path)
    blob = path.read_bytes()
    (tmp_path / "bad.iwd").write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        read_dataset(tmp_path / "bad.iwd")
    # non-finite or out-of-range header numbers (the file holds two frequencies)
    for key, values in (("freq", "nan 5.0"), ("freq", "2.5 inf"), ("freq", "-2.5 5.0"),
                        ("eps", "nan 1e-05"), ("eps", "-1.0 1e-05"), ("scale", "nan 1.0")):
        lines = blob.split(b"\n")
        i = next(i for i, line in enumerate(lines[:10]) if line.startswith(f"{key} ".encode()))
        lines[i] = f"{key} {values}".encode()
        (tmp_path / "bad.iwd").write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError):
            read_dataset(tmp_path / "bad.iwd")
    # nsrc/nrec swapped: the payload length still matches, the position lists do not
    lines = blob.split(b"\n", 10)
    lines[2:4] = [b"nsrc 3", b"nrec 2"]
    (tmp_path / "bad.iwd").write_bytes(b"\n".join(lines))
    with pytest.raises(FormatError) as err:
        read_dataset(tmp_path / "bad.iwd")
    assert str(err.value).startswith(f"{tmp_path / 'bad.iwd'}: ")


# -- convergence CSV ---------------------------------------------------------------


def fill_record(n, with_errors=True):
    record = ConvergenceRecord()
    rng = np.random.default_rng(0)
    for k in range(1, n + 1):
        record.append(k, rng.uniform(), rng.uniform(),
                      rng.uniform() if with_errors else None,
                      rng.uniform() if with_errors else None,
                      3 * k)
    return record


def test_csv_round_trip(tmp_path):
    record = fill_record(100)
    path = tmp_path / "conv.csv"
    write_convergence_csv(record, path)
    assert path.read_text().count("\n") == 101
    back = read_convergence_csv(path)
    assert back.k == record.k
    assert back.data_misfit == record.data_misfit
    assert back.pde_misfit == record.pde_misfit
    assert back.model_error == record.model_error
    assert back.pde_solves == record.pde_solves


def test_csv_empty_and_missing_fields(tmp_path):
    path = tmp_path / "empty.csv"
    write_convergence_csv(ConvergenceRecord(), path)
    text = path.read_text()
    assert text == "k,data_misfit,pde_misfit,model_error,wavefield_error,pde_solves\n"
    record = fill_record(3, with_errors=False)
    write_convergence_csv(record, tmp_path / "noerr.csv")
    back = read_convergence_csv(tmp_path / "noerr.csv")
    assert back.model_error == [None, None, None]


# -- raster ---------------------------------------------------------------


def test_raster_rules(tmp_path):
    path = tmp_path / "r.pgm"
    write_raster(np.ones((4, 6)), path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n6 4\n255\n")
    assert set(blob[len(b"P5\n6 4\n255\n"):]) == {128}

    field = np.zeros((2, 3))
    field[1, :] = 1.0
    write_raster(field, path)
    pixels = (tmp_path / "r.pgm").read_bytes()[-6:]
    assert list(pixels) == [0, 0, 0, 255, 255, 255]

    with pytest.raises(FormatError):
        write_raster(np.full((2, 2), np.nan), path)


# -- config ---------------------------------------------------------------


def write_config(tmp_path, extra="", data_line=""):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# box experiment\n"
        "true_model = true.mod\n"
        "initial_model = init.mod\n"
        f"{data_line}"
        "sources = 15,35\n"
        "receivers = 85,15; 85,45; 85,65\n"
        "frequencies = 5 8\n"
        "v_min = 1600\n"
        "v_max = 2100\n"
        "pml_layers = 3\n"
        "k_max = 3\n"
        "delta = 1e-16\n"
        "eps_n = 1e-16\n"
        "lambda_fraction = 1e-3\n"
        + extra)
    return cfg


def seed_models(tmp_path):
    rng = np.random.default_rng(11)
    grid = Grid2D(10, 8, 10.0, 10.0)
    v_true = VelocityModel(grid, rng.uniform(1700.0, 2000.0, grid.n))
    write_model_file(v_true, tmp_path / "true.mod")
    write_model_file(build_homogeneous(grid, 1850.0), tmp_path / "init.mod")
    return grid, v_true


def test_config_parsing_and_validation(tmp_path):
    seed_models(tmp_path)
    cfg = write_config(tmp_path)
    config = load_config(cfg)
    assert config.frequencies() == (5.0, 8.0)
    assert config.geometry().n_receivers == 3
    assert config.bounds().v_max == 2100.0
    assert config.settings().lambda_fraction == 1e-3
    assert config.plan().batches == ((5.0, 8.0),)

    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    dup = tmp_path / "dup.cfg"
    dup.write_text("k_max = 1\nk_max = 2\n")
    with pytest.raises(ConfigError):
        load_config(dup)
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("just words\n")
    with pytest.raises(ConfigError):
        load_config(noeq)


def test_config_receiver_line(tmp_path):
    seed_models(tmp_path)
    cfg = tmp_path / "rl.cfg"
    cfg.write_text("true_model = true.mod\nsources = 15,35\n"
                   "receiver_line = 85 15 65 3\nfrequencies = 5\n")
    geo = load_config(cfg).geometry()
    assert geo.receivers == ((85.0, 15.0), (85.0, 40.0), (85.0, 65.0))


_MALFORMED = [("snr_db", "abc"), ("paths", "x"), ("batches", "2.5 | five"),
              ("pml_damping", "strong"), ("eps_n", "tiny"), ("pml_free_top", "maybe"),
              ("bounds_mode", "sideways"),
              # NaN is never a valid number, and only snr_db may be infinite
              ("f0", "nan"), ("pml_damping", "nan"), ("pml_exponent", "nan"),
              ("delta", "nan"), ("eps_n", "nan"), ("snr_db", "nan"), ("snr_db", "-inf"),
              ("v_max", "inf"), ("frequencies", "5 nan"), ("sources", "15,nan")]


@pytest.mark.parametrize("key,value", _MALFORMED)
def test_config_malformed_value_rejected_at_load(tmp_path, key, value):
    cfg = write_config(tmp_path)
    kept = [line for line in cfg.read_text().splitlines() if not line.startswith(f"{key} =")]
    cfg.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
    with pytest.raises(ConfigError, match=f"config key '{key}'"):
        load_config(cfg)


def test_cli_malformed_value_exits_before_any_work(tmp_path, capsys):
    seed_models(tmp_path)
    cfg = write_config(tmp_path, extra="pml_free_top = maybe\n",
                       data_line="data = out/dataset.iwd\n")
    assert cli_dispatch(["invert", "--config", str(cfg), "--out", str(tmp_path / "inv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'pml_free_top'")
    assert "Traceback" not in err
    assert not (tmp_path / "inv").exists()
    # a non-finite number is malformed too: no all-NaN dataset is written
    cfg = write_config(tmp_path, extra="f0 = nan\n")
    assert cli_dispatch(["forward", "--config", str(cfg), "--out", str(tmp_path / "fwd")]) == 1
    assert capsys.readouterr().err.startswith("error: config key 'f0'")
    assert not (tmp_path / "fwd").exists()
    # so is a zero PML exponent, which would damp every cell (0**0 = 1)
    cfg = write_config(tmp_path, extra="pml_exponent = 0\n")
    assert cli_dispatch(["forward", "--config", str(cfg), "--out", str(tmp_path / "fwd")]) == 1
    assert capsys.readouterr().err.startswith("error: profile_exponent must be finite and positive")
    assert not (tmp_path / "fwd").exists()
    # the invert flags go through the same parsers
    cfg = write_config(tmp_path, data_line="data = out/dataset.iwd\n")
    assert cli_dispatch(["invert", "--config", str(cfg), "--out", str(tmp_path / "inv"),
                         "--variant", "sideways"]) == 1
    assert capsys.readouterr().err.startswith("error: config key 'variant'")
    # a model file whose header holds a non-finite spacing is named in the error
    blob = (tmp_path / "true.mod").read_bytes().split(b"\n", 5)
    blob[3] = b"nan"
    (tmp_path / "true.mod").write_bytes(b"\n".join(blob))
    assert cli_dispatch(["forward", "--config", str(cfg), "--out", str(tmp_path / "fwd")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'true.mod'}: ")
    assert not (tmp_path / "fwd").exists()


_BAD_RUN_SETTINGS = [  # (arguments, config lines, what the message must say)
    (["invert", "--alpha", "2"], "", "error: alpha must be in (0, 1], got 2.0"),
    (["invert", "--lambda-fraction", "-1"], "",
     "error: lambda_fraction must be finite and positive, got -1.0"),
    (["invert", "--inner-n", "0"], "", "error: inner_iterations must be >= 1"),
    (["invert", "--variant", "admm", "--inner-n", "2"], "",
     "error: inner iterations are defined for the wri/prsm variants only"),
    (["forward"], "f0 = 0\n", "error: config key 'f0': expected a positive number, got '0'"),
    (["forward"], "snr_db = 20\nnoise_seed = -1\n",
     "error: config key 'noise_seed': expected a nonnegative integer, got '-1'"),
    (["scan-lambda", "--fractions", "1e-4,-1"], "",  # no fraction runs, not even the first
     "error: --fractions: lambda_fraction must be finite and positive, got -1.0"),
    (["scan-lambda", "--fractions", "nan"], "",
     "error: --fractions: lambda_fraction must be finite and positive, got nan"),
]


@pytest.mark.parametrize("argv,extra,message", _BAD_RUN_SETTINGS,  # ids name a case, not its message
                         ids=[f"argv{i}-{extra}" for i, (_, extra, _) in enumerate(_BAD_RUN_SETTINGS)])
def test_cli_bad_run_setting_exits_before_reading_inputs(tmp_path, monkeypatch, capsys, argv, extra, message):
    def read(path):
        raise AssertionError(f"input {path} read before the run settings were checked")

    for reader in ("read_model_file", "read_dataset"):
        monkeypatch.setattr(iwri.cli, reader, read)
    seed_models(tmp_path)
    cfg = write_config(tmp_path, extra=extra, data_line="data = true.mod\n")
    out = tmp_path / "out"
    assert cli_dispatch([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("word,free", [("true", True), ("Yes", True), ("1", True),
                                       ("false", False), ("no", False), ("0", False)])
def test_config_pml_free_top_words(tmp_path, word, free):
    cfg = write_config(tmp_path, extra=f"pml_free_top = {word}\n")
    assert ("top" not in load_config(cfg).pml().sides) == free


def test_cli_missing_input_leaves_no_output_directory(tmp_path):
    cfg = write_config(tmp_path, data_line="data = out/dataset.iwd\n")  # models not written
    for argv in (["forward"], ["invert"], ["scan-lambda", "--fractions", "1e-4"]):
        out = tmp_path / "o"
        assert cli_dispatch([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists(), argv


def test_cli_uncreatable_output_directory_is_an_error(tmp_path, capsys):
    seed_models(tmp_path)
    cfg = write_config(tmp_path, data_line="data = out/dataset.iwd\n")
    assert cli_dispatch(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    (tmp_path / "afile").write_text("")
    capsys.readouterr()
    for argv in (["forward"], ["invert"], ["scan-lambda", "--fractions", "1e-4"]):
        out = tmp_path / "afile" / "sub"  # below a regular file
        assert cli_dispatch([*argv, "--config", str(cfg), "--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_config_missing_file_rejected(tmp_path):
    cfg = write_config(tmp_path)  # models not written
    with pytest.raises(ConfigError):
        load_config(cfg).path("true_model")


# -- CLI ---------------------------------------------------------------


def test_cli_forward_then_invert_roundtrip(tmp_path):
    seed_models(tmp_path)
    cfg = write_config(tmp_path, data_line="data = out/dataset.iwd\n")
    assert cli_dispatch(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "dataset.iwd").exists()
    assert (tmp_path / "out" / "metadata.json").exists()

    code = cli_dispatch(["invert", "--config", str(cfg), "--out", str(tmp_path / "inv")])
    assert code == 0
    assert (tmp_path / "inv" / "final_model.mod").exists()
    assert (tmp_path / "inv" / "final_model.pgm").exists()
    assert (tmp_path / "inv" / "convergence_p0_b0.csv").exists()
    meta = json.loads((tmp_path / "inv" / "metadata.json").read_text())
    assert meta["run"]["iterations_total"] >= 1
    assert meta["run"]["batches"][0]["lambda"][0] > 0
    assert meta["run"]["batches"][0]["model_warnings"] == 0


def test_cli_variants_produce_distinct_models(tmp_path):
    seed_models(tmp_path)
    cfg = write_config(tmp_path, data_line="data = out/dataset.iwd\n")
    cli_dispatch(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert cli_dispatch(["invert", "--config", str(cfg), "--out", str(tmp_path / "wri"),
                         "--variant", "wri"]) == 0
    assert cli_dispatch(["invert", "--config", str(cfg), "--out", str(tmp_path / "ir"),
                         "--variant", "prsm"]) == 0
    a = read_model_file(tmp_path / "wri" / "final_model.mod")
    b = read_model_file(tmp_path / "ir" / "final_model.mod")
    assert np.linalg.norm(a.values - b.values) > 0.0


def test_cli_mu1_with_dense_check(tmp_path, capsys):
    seed_models(tmp_path)
    cfg = write_config(tmp_path)
    # shrink the PML so the dense check stays under 200 unknowns
    text = cfg.read_text().replace("pml_layers = 3", "pml_layers = 2")
    cfg.write_text(text)
    assert cli_dispatch(["mu1", "--config", str(cfg), "--freq", "7", "--dense-check"]) == 0
    out = capsys.readouterr().out
    assert "mu1 = " in out and "relative difference" in out
    rel = float(out.strip().split("relative difference = ")[1])
    assert rel < 1e-3


def test_cli_mu1_matches_invert(tmp_path, capsys):
    # same PML reference velocity (v_max) as the inversion's first batch
    seed_models(tmp_path)
    cfg = write_config(tmp_path, data_line="data = out/dataset.iwd\n")
    assert cli_dispatch(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert cli_dispatch(["invert", "--config", str(cfg), "--out", str(tmp_path / "inv")]) == 0
    meta = json.loads((tmp_path / "inv" / "metadata.json").read_text())
    batch = meta["run"]["batches"][0]
    assert batch["frequencies"][0] == 5.0
    capsys.readouterr()
    assert cli_dispatch(["mu1", "--config", str(cfg), "--freq", "5"]) == 0
    assert f"mu1 = {batch['mu1'][0]:.8e}\n" in capsys.readouterr().out


def test_cli_mu1_readme_config(tmp_path, capsys):
    # the README's box config
    setup = box_anomaly_setup()
    write_model_file(setup.true_model, tmp_path / "true.mod")
    write_model_file(setup.initial_model, tmp_path / "init.mod")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("true_model = true.mod\ninitial_model = init.mod\ndata = fwd/dataset.iwd\n"
                   "sources = 15,350\nreceiver_line = 985 19.4 680.6 18\n"
                   "frequencies = 2.5 5 7\nv_min = 1800\nv_max = 2100\nk_max = 100\n")
    assert cli_dispatch(["mu1", "--config", str(cfg), "--freq", "5"]) == 0
    assert capsys.readouterr().out == "mu1 = 2.49354924e+06\n"


def test_cli_scan_lambda(tmp_path):
    seed_models(tmp_path)
    cfg = write_config(tmp_path, data_line="data = out/dataset.iwd\n")
    cli_dispatch(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")])
    code = cli_dispatch(["scan-lambda", "--config", str(cfg),
                         "--fractions", "1e-4,1e-2", "--out", str(tmp_path / "scan")])
    assert code == 0
    summary = (tmp_path / "scan" / "scan_summary.csv").read_text().strip().split("\n")
    assert len(summary) == 3
    assert len(list((tmp_path / "scan").glob("scan_*.csv"))) == 3  # 2 runs + summary


def test_cli_oracle_refine(capsys):
    assert cli_dispatch(["oracle-refine", "--n", "6", "--beta", "0.5", "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("step") == 4
    gap = float(out.strip().rsplit("gap: ", 1)[1])
    assert gap < 1e-10


def test_cli_error_exit_codes(tmp_path):
    # missing config file: configuration error
    assert cli_dispatch(["invert", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "o")]) == 1
    # bad arguments: configuration error
    assert cli_dispatch(["invert"]) == 1
    # unknown command
    assert cli_dispatch(["frobnicate"]) == 1
    # help exits 0
    assert cli_dispatch(["--help"]) == 0
    # non-positive model iterate (unbounded clip mode, very noisy data): numerical failure
    setup = box_anomaly_setup(nx=40, nz=28, dx=25.0)
    write_model_file(setup.true_model, tmp_path / "true.mod")
    write_model_file(setup.initial_model, tmp_path / "init.mod")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "true_model = true.mod\ninitial_model = init.mod\ndata = out/dataset.iwd\n"
        + "sources = " + "; ".join(f"{x},{z}" for x, z in setup.geometry.sources) + "\n"
        + "receivers = " + "; ".join(f"{x},{z}" for x, z in setup.geometry.receivers) + "\n"
        + "frequencies = 2.5 5 7\nbounds_mode = clip\nsnr_db = -10\nlambda_fraction = 1e-1\n"
        "k_max = 5\ndelta = 1e-300\neps_n = 1e-300\n")
    assert cli_dispatch(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert cli_dispatch(["invert", "--config", str(cfg), "--out", str(tmp_path / "inv")]) == 2


def test_cli_numerical_failure_names_frequency_and_iteration(tmp_path, monkeypatch, capsys):
    def broken(H, ordering=None):
        raise FactorizationError("banded Cholesky breakdown", pivot_index=0)

    seed_models(tmp_path)
    cfg = write_config(tmp_path, data_line="data = out/dataset.iwd\n")
    assert cli_dispatch(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    monkeypatch.setattr(iwri.engine, "factorize", broken)
    capsys.readouterr()
    assert cli_dispatch(["invert", "--config", str(cfg), "--out", str(tmp_path / "inv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert "5.0 Hz" in err and "iteration 0" in err


def test_readme_lists_every_config_key_and_invert_flag():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    config_keys = text.split("### Config keys", 1)[1].split("\n#", 1)[0]
    for key in _CONFIG_KEYS:
        assert f"`{key}`" in config_keys or f"`{key} " in config_keys, key
    assert "mu1_tol" not in config_keys

    command_line = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    invert_row = next(line for line in command_line.splitlines()
                      if line.startswith("| `invert` |"))
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    for action in subparsers.choices["invert"]._actions:
        for flag in action.option_strings:
            if flag in ("-h", "--help"):
                continue
            assert f"`{flag}" in invert_row, flag
    assert "--seed" not in invert_row


def _python(*args):
    """Run a fresh interpreter that imports this checkout's iwri."""
    env = dict(os.environ, PYTHONPATH=str(Path(iwri.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_python_m_iwri_help():
    proc = _python("-m", "iwri", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "invert" in proc.stdout


def test_cli_import_skips_unused_scipy_modules():
    proc = _python("-c", "import sys, iwri.cli; "
                         "print([m for m in ('scipy.ndimage', 'scipy.special') if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
