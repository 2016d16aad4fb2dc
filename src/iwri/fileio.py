"""File formats: velocity models, frequency-domain datasets, convergence
CSVs, grayscale rasters, and the flat key=value run configuration.

All writers are deterministic byte-for-byte for identical inputs; floats
are serialized with shortest round-trip precision.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .acquisition import AcquisitionGeometry, FrequencyDataset
from .errors import ConfigError, FormatError
from .grid import Grid2D, VelocityModel

MODEL_MAGIC = "IWRI-MODEL-1"
DATA_MAGIC = "IWRI-DATA-1"


# -- velocity model files ----------------------------------------------------


def write_model_file(model, path):
    """5-line text header (magic, nx, nz, dx, dz) + little-endian float32
    payload, row-major with x fastest, units m/s."""
    grid = model.grid
    header = f"{MODEL_MAGIC}\n{grid.nx}\n{grid.nz}\n{grid.dx!r}\n{grid.dz!r}\n"
    payload = model.values.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def _read_header_lines(blob, count, path):
    lines, offset = [], 0
    for _ in range(count):
        nl = blob.find(b"\n", offset)
        if nl < 0:
            raise FormatError(f"{path}: truncated header", offset=offset)
        try:
            lines.append(blob[offset:nl].decode("ascii"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: non-ascii header byte", offset=offset) from exc
        offset = nl + 1
    return lines, offset


def read_model_file(path):
    blob = Path(path).read_bytes()
    lines, offset = _read_header_lines(blob, 5, path)
    if lines[0] != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic {lines[0]!r}", offset=0)
    try:
        nx, nz = int(lines[1]), int(lines[2])
        dx, dz = float(lines[3]), float(lines[4])
    except ValueError as exc:
        raise FormatError(f"{path}: malformed header field: {exc}", offset=0) from exc
    grid = Grid2D(nx, nz, dx, dz)
    expected = grid.n * 4
    if len(blob) - offset != expected:
        raise FormatError(f"{path}: payload is {len(blob) - offset} bytes, "
                          f"expected {expected}", offset=offset)
    values = np.frombuffer(blob, dtype="<f4", count=grid.n, offset=offset).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FormatError(f"{path}: non-finite value at payload index {int(bad[0])}",
                          offset=offset + int(bad[0]) * 4)
    return VelocityModel(grid, values)


# -- frequency-domain dataset files ------------------------------------------


def write_dataset(dataset, path):
    """Text header (counts, frequencies, source scales, noise levels, seed,
    geometry) + per-frequency complex128 blocks, source-major."""
    geo = dataset.geometry
    fmt = lambda v: repr(float(v))
    pos = lambda pts: ";".join(f"{fmt(x)},{fmt(z)}" for x, z in pts)
    header = "\n".join([
        DATA_MAGIC,
        f"nfreq {dataset.n_frequencies}",
        f"nsrc {geo.n_sources}",
        f"nrec {geo.n_receivers}",
        "freq " + " ".join(fmt(f) for f in dataset.frequencies),
        "scale " + " ".join(fmt(s) for s in dataset.source_scale),
        "eps " + " ".join(fmt(e) for e in dataset.noise_level),
        f"seed {'-' if dataset.seed is None else int(dataset.seed)}",
        "src " + pos(geo.sources),
        "rec " + pos(geo.receivers),
    ]) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for block in dataset.data:
            fh.write(np.ascontiguousarray(block.T, dtype="<c16").tobytes())


def _parse_points(text):
    pts = []
    for item in text.split(";"):
        x, z = item.split(",")
        pts.append((float(x), float(z)))
    return pts


def read_dataset(path):
    blob = Path(path).read_bytes()
    lines, offset = _read_header_lines(blob, 10, path)
    if lines[0] != DATA_MAGIC:
        raise FormatError(f"{path}: bad magic {lines[0]!r}", offset=0)
    fields = {}
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        fields[key] = rest
    try:
        nfreq, nsrc, nrec = int(fields["nfreq"]), int(fields["nsrc"]), int(fields["nrec"])
        freqs = tuple(float(v) for v in fields["freq"].split())
        scales = tuple(float(v) for v in fields["scale"].split())
        eps = np.array([float(v) for v in fields["eps"].split()])
        seed = None if fields["seed"] == "-" else int(fields["seed"])
        geometry = AcquisitionGeometry(sources=tuple(_parse_points(fields["src"])),
                                       receivers=tuple(_parse_points(fields["rec"])))
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: malformed header: {exc}", offset=0) from exc
    if len(freqs) != nfreq or len(scales) != nfreq or eps.size != nfreq:
        raise FormatError(f"{path}: inconsistent per-frequency header counts", offset=0)
    expected = nfreq * nsrc * nrec * 16
    if len(blob) - offset != expected:
        raise FormatError(f"{path}: payload is {len(blob) - offset} bytes, "
                          f"expected {expected}", offset=offset)
    raw = np.frombuffer(blob, dtype="<c16", count=nfreq * nsrc * nrec, offset=offset)
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise FormatError(f"{path}: non-finite sample at index {int(bad[0])}",
                          offset=offset + int(bad[0]) * 16)
    blocks = [raw[i * nsrc * nrec:(i + 1) * nsrc * nrec].reshape(nsrc, nrec).T.copy()
              for i in range(nfreq)]
    return FrequencyDataset(frequencies=freqs, geometry=geometry, data=blocks,
                            noise_level=eps, source_scale=scales, seed=seed)


# -- convergence CSV ----------------------------------------------------------


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_convergence_csv(record, path):
    """Header plus one row per iteration, full round-trip float precision.

    No wall-clock column, so that repeated runs of the same configuration
    emit byte-identical files.
    """
    lines = ["k,data_misfit,pde_misfit,model_error,wavefield_error,pde_solves"]
    for i in range(len(record)):
        row = [record.k[i], record.data_misfit[i], record.pde_misfit[i],
               record.model_error[i], record.wavefield_error[i], record.pde_solves[i]]
        lines.append(",".join(_csv_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_convergence_csv(path):
    from .workflow import ConvergenceRecord

    text = Path(path).read_text(encoding="ascii").strip().split("\n")
    header = text[0].split(",")
    record = ConvergenceRecord()
    for line in text[1:]:
        if not line:
            continue
        cells = dict(zip(header, line.split(",")))
        record.append(
            int(cells["k"]),
            float(cells["data_misfit"]),
            float(cells["pde_misfit"]),
            float(cells["model_error"]) if cells.get("model_error") else None,
            float(cells["wavefield_error"]) if cells.get("wavefield_error") else None,
            int(cells["pde_solves"]),
        )
    return record


# -- grayscale raster ----------------------------------------------------------


def write_raster(field, path, scaling="minmax"):
    """Binary P5 raster of a real 2D field; ``scaling`` is "minmax" or a
    fixed (lo, hi) pair.  A flat range maps everything to mid-gray."""
    field = np.asarray(field, dtype=float)
    if field.ndim != 2:
        raise FormatError("raster export expects a 2D field")
    if not np.all(np.isfinite(field)):
        raise FormatError("raster export expects a finite field")
    if scaling == "minmax":
        lo, hi = float(field.min()), float(field.max())
    else:
        lo, hi = float(scaling[0]), float(scaling[1])
    if hi == lo:
        pixels = np.full(field.shape, 128, dtype=np.uint8)
    else:
        scaled = np.rint(255.0 * (field - lo) / (hi - lo))
        pixels = np.clip(scaled, 0, 255).astype(np.uint8)
    nz, nx = field.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{nx} {nz}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


# -- run configuration ----------------------------------------------------------

_CONFIG_KEYS = {
    "true_model", "initial_model", "data",
    "sources", "receivers", "receiver_line",
    "frequencies", "batches", "paths", "f0",
    "variant", "lambda_fraction", "alpha", "inner_n",
    "v_min", "v_max", "bounds_mode",
    "pml_layers", "pml_exponent", "pml_damping", "pml_free_top",
    "k_max", "delta", "eps_n",
    "snr_db", "noise_seed", "seed", "mu1_tol",
}

_DEFAULTS = {
    "paths": "0",
    "f0": "5.0",
    "variant": "prsm",
    "lambda_fraction": "1e-4",
    "alpha": "0.5",
    "inner_n": "1",
    "bounds_mode": "bregman",
    "pml_layers": "10",
    "pml_exponent": "2.0",
    "pml_damping": "auto",
    "pml_free_top": "false",
    "k_max": "100",
    "delta": "1e-3",
    "eps_n": "auto",
    "snr_db": "inf",
    "noise_seed": "0",
    "seed": "1234",
    "mu1_tol": "1e-4",
}


@dataclass
class RunConfig:
    """Parsed and validated run configuration (flat key=value file)."""

    raw: dict
    base_dir: Path

    def __post_init__(self):
        unknown = set(self.raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.raw = {**_DEFAULTS, **self.raw}

    # -- typed accessors ---------------------------------------------------

    def _float(self, key):
        try:
            return float(self.raw[key])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc

    def _int(self, key):
        try:
            return int(self.raw[key])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc

    def path(self, key, must_exist=True):
        if key not in self.raw:
            raise ConfigError(f"config key {key!r} is required")
        p = self.base_dir / self.raw[key]
        if must_exist and not p.exists():
            raise ConfigError(f"config key {key!r}: file {p} does not exist")
        return p

    def has(self, key):
        return key in self.raw

    def frequencies(self):
        try:
            freqs = tuple(float(v) for v in self.raw["frequencies"].split())
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"config key 'frequencies': {exc}") from exc
        if not freqs:
            raise ConfigError("config key 'frequencies' must list at least one value")
        return freqs

    def geometry(self):
        if "sources" not in self.raw:
            raise ConfigError("config key 'sources' is required")
        try:
            sources = _parse_points(self.raw["sources"])
        except ValueError as exc:
            raise ConfigError(f"config key 'sources': {exc}") from exc
        if "receivers" in self.raw:
            try:
                receivers = _parse_points(self.raw["receivers"])
            except ValueError as exc:
                raise ConfigError(f"config key 'receivers': {exc}") from exc
        elif "receiver_line" in self.raw:
            try:
                x, z0, z1, count = self.raw["receiver_line"].split()
                receivers = [(float(x), z) for z in
                             np.linspace(float(z0), float(z1), int(count))]
            except ValueError as exc:
                raise ConfigError(f"config key 'receiver_line': {exc}") from exc
        else:
            raise ConfigError("need 'receivers' or 'receiver_line'")
        return AcquisitionGeometry(sources=tuple(sources), receivers=tuple(receivers))

    def bounds(self):
        from .grid import Bounds

        if ("v_min" in self.raw) != ("v_max" in self.raw):
            raise ConfigError("v_min and v_max must be given together")
        if "v_min" not in self.raw:
            return None
        return Bounds(self._float("v_min"), self._float("v_max"))

    def pml(self):
        from .helmholtz import PmlConfig

        damping = self.raw["pml_damping"]
        sides = {"top", "bottom", "left", "right"}
        if self.raw["pml_free_top"].lower() in ("true", "1", "yes"):
            sides.discard("top")
        return PmlConfig(
            n_layers=self._int("pml_layers"),
            profile_exponent=self._float("pml_exponent"),
            max_damping=None if damping == "auto" else float(damping),
            sides=frozenset(sides),
        )

    def settings(self):
        from .engine import Variant
        from .helmholtz import StencilScheme
        from .workflow import InversionSettings

        try:
            variant = Variant(self.raw["variant"].lower())
        except ValueError as exc:
            raise ConfigError(f"config key 'variant': {exc}") from exc
        return InversionSettings(
            variant=variant,
            alpha=self._float("alpha"),
            inner_iterations=self._int("inner_n"),
            lambda_fraction=self._float("lambda_fraction"),
            bounds=self.bounds(),
            bounds_mode=self.raw["bounds_mode"],
            pml=self.pml(),
            scheme=StencilScheme(),
            mu1_tol=self._float("mu1_tol"),
            seed=self._int("seed"),
        )

    def plan(self):
        from .workflow import ContinuationPlan

        freqs = self.frequencies()
        if "batches" in self.raw:
            batches = []
            for part in self.raw["batches"].split("|"):
                batch = tuple(float(v) for v in part.split())
                if not batch:
                    raise ConfigError("empty batch in 'batches'")
                batches.append(batch)
        else:
            batches = [freqs]
        paths = tuple(int(v) for v in self.raw["paths"].split())
        return ContinuationPlan(batches=tuple(batches), paths=paths)

    def criteria(self):
        from .workflow import StoppingCriteria

        eps = self.raw["eps_n"]
        return StoppingCriteria(
            k_max=self._int("k_max"),
            delta=self._float("delta"),
            eps_n=None if eps == "auto" else float(eps),
        )

    def snr_db(self):
        value = self.raw["snr_db"]
        if value.lower() in ("inf", "+inf", "none"):
            return math.inf
        return float(value)

    def resolved(self):
        """Flat dict of every key after defaulting (for run metadata)."""
        return dict(sorted(self.raw.items()))


def load_config(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    raw = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return RunConfig(raw=raw, base_dir=path.parent)
