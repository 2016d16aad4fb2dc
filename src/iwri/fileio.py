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
from .engine import Variant
from .errors import ConfigError, FormatError, ParameterError
from .grid import Bounds, Grid2D, VelocityModel
from .helmholtz import PmlConfig, StencilScheme
from .workflow import (ContinuationPlan, ConvergenceRecord, InversionSettings,
                       StoppingCriteria)

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


def _real(text, allowed=()):
    """float(text); NaN and infinities raise unless listed in ``allowed``."""
    value = float(text)
    if not (math.isfinite(value) or value in allowed):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_points(text):
    pts = []
    for item in text.split(";"):
        x, z = item.split(",")
        pts.append((_real(x), _real(z)))
    return tuple(pts)


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
        freqs = tuple(_real(v) for v in fields["freq"].split())
        scales = tuple(_real(v) for v in fields["scale"].split())
        eps = np.array([_real(v) for v in fields["eps"].split()])
        seed = None if fields["seed"] == "-" else int(fields["seed"])
        geometry = AcquisitionGeometry(sources=_parse_points(fields["src"]),
                                       receivers=_parse_points(fields["rec"]))
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
    try:
        return FrequencyDataset(frequencies=freqs, geometry=geometry, data=blocks,
                                noise_level=eps, source_scale=scales, seed=seed)
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}", offset=0) from exc


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


def _floats(text):
    values = tuple(_real(v) for v in text.split())
    if not values:
        raise ValueError("needs at least one value")
    return values


def _receiver_line(text):
    x, z0, z1, count = text.split()
    return tuple((_real(x), z) for z in np.linspace(_real(z0), _real(z1), int(count)))


def _float_or(word, value, allowed=()):
    """Parser of a finite float (or one in ``allowed``), or of ``word`` (any
    case) standing for ``value``."""
    return lambda text: value if text.lower() == word else _real(text, allowed)


def _choice(*options):
    def parse(text):
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {text!r}")
        return text
    return parse


def _boolean(text):
    words = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
    if text.lower() not in words:
        raise ValueError(f"expected true/false/yes/no/1/0, got {text!r}")
    return words[text.lower()]


# key: (default text, or None when the key has no default; parser of the text)
_CONFIG_KEYS = {
    "true_model": (None, str),
    "initial_model": (None, str),
    "data": (None, str),
    "sources": (None, _parse_points),
    "receivers": (None, _parse_points),
    "receiver_line": (None, _receiver_line),
    "frequencies": (None, _floats),
    "batches": (None, lambda text: tuple(_floats(part) for part in text.split("|"))),
    "paths": ("0", lambda text: tuple(int(v) for v in text.split())),
    "f0": ("5.0", _real),
    "variant": ("prsm", lambda text: Variant(text.lower())),
    "lambda_fraction": ("1e-4", _real),
    "alpha": ("0.5", _real),
    "inner_n": ("1", int),
    "v_min": (None, _real),
    "v_max": (None, _real),
    "bounds_mode": ("bregman", _choice("bregman", "clip")),
    "pml_layers": ("10", int),
    "pml_exponent": ("2.0", _real),
    "pml_damping": ("auto", _float_or("auto", None)),
    "pml_free_top": ("false", _boolean),
    "k_max": ("100", int),
    "delta": ("1e-3", _real),
    "eps_n": ("auto", _float_or("auto", None)),
    "snr_db": ("inf", _float_or("none", math.inf, allowed=(math.inf,))),  # inf: noiseless
    "noise_seed": ("0", int),
}


@dataclass
class RunConfig:
    """Run configuration (flat key=value file).  ``raw`` holds the text of
    every key after defaulting; each value is parsed once, on construction,
    and the accessors only assemble objects from the parsed values."""

    raw: dict
    base_dir: Path

    def __post_init__(self):
        unknown = set(self.raw) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        defaults = {key: default for key, (default, _) in _CONFIG_KEYS.items()
                    if default is not None}
        self.raw = {**defaults, **self.raw}
        self._values = {}
        for key, text in self.raw.items():
            try:
                self._values[key] = _CONFIG_KEYS[key][1](text)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc

    def value(self, key):
        """The parsed value of ``key``; ConfigError if the key is unset."""
        if key not in self._values:
            raise ConfigError(f"config key {key!r} is required")
        return self._values[key]

    def path(self, key):
        p = self.base_dir / self.value(key)
        if not p.exists():
            raise ConfigError(f"config key {key!r}: file {p} does not exist")
        return p

    def has(self, key):
        return key in self.raw

    def frequencies(self):
        return self.value("frequencies")

    def geometry(self):
        if self.has("receivers"):
            receivers = self.value("receivers")
        elif self.has("receiver_line"):
            receivers = self.value("receiver_line")
        else:
            raise ConfigError("need 'receivers' or 'receiver_line'")
        return AcquisitionGeometry(sources=self.value("sources"), receivers=receivers)

    def bounds(self):
        if self.has("v_min") != self.has("v_max"):
            raise ConfigError("v_min and v_max must be given together")
        return Bounds(self.value("v_min"), self.value("v_max")) if self.has("v_min") else None

    def pml(self):
        sides = {"top", "bottom", "left", "right"}
        if self.value("pml_free_top"):
            sides.discard("top")
        return PmlConfig(n_layers=self.value("pml_layers"),
                         profile_exponent=self.value("pml_exponent"),
                         max_damping=self.value("pml_damping"), sides=frozenset(sides))

    def settings(self):
        return InversionSettings(
            variant=self.value("variant"),
            alpha=self.value("alpha"),
            inner_iterations=self.value("inner_n"),
            lambda_fraction=self.value("lambda_fraction"),
            bounds=self.bounds(),
            bounds_mode=self.value("bounds_mode"),
            pml=self.pml(),
            scheme=StencilScheme(),
        )

    def plan(self):
        batches = self.value("batches") if self.has("batches") else (self.frequencies(),)
        return ContinuationPlan(batches=batches, paths=self.value("paths"))

    def criteria(self):
        return StoppingCriteria(k_max=self.value("k_max"), delta=self.value("delta"),
                                eps_n=self.value("eps_n"))

    def snr_db(self):
        return self.value("snr_db")

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
