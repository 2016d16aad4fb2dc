"""File formats: velocity models, frequency-domain datasets, convergence
CSVs, grayscale rasters, and the flat key=value run configuration.

All writers are deterministic byte-for-byte for identical inputs; floats
are serialized with shortest round-trip precision.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .acquisition import AcquisitionGeometry, FrequencyDataset
from .engine import Variant
from .errors import ConfigError, FormatError, IwriError
from .grid import Bounds, Grid2D, VelocityModel
from .helmholtz import PmlConfig, StencilScheme
from .workflow import (ContinuationPlan, ConvergenceRecord, InversionSettings,
                       StoppingCriteria)

MODEL_MAGIC = "IWRI-MODEL-1"
DATA_MAGIC = "IWRI-DATA-1"


def _write(path, header_lines, payload):
    """Write the ASCII ``header_lines``, each ended by a newline, then the
    ``payload`` bytes."""
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in header_lines).encode("ascii"))
        fh.write(payload)


def _read(path, magic, n_lines, parse, dtype):
    """Read ``n_lines`` ASCII header lines, the first ``magic``, then a payload
    of finite ``dtype`` items.  ``parse`` takes the lines after the magic and
    returns the item count and a function building the result from the
    payload; a ValueError or KeyError from either, or an IwriError from what
    they build, becomes a FormatError naming ``path``, as does every other defect."""
    blob = Path(path).read_bytes()
    lines, offset = [], 0
    for _ in range(n_lines):
        nl = blob.find(b"\n", offset)
        if nl < 0:
            raise FormatError(f"{path}: truncated header", offset=offset)
        try:
            lines.append(blob[offset:nl].decode("ascii"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: non-ascii header byte", offset=offset) from exc
        offset = nl + 1
    if lines[0] != magic:
        raise FormatError(f"{path}: bad magic {lines[0]!r}", offset=0)
    item = np.dtype(dtype).itemsize
    try:
        count, build = parse(lines[1:])
        if len(blob) - offset != count * item:
            raise FormatError(f"{path}: payload is {len(blob) - offset} bytes, "
                              f"expected {count * item}", offset=offset)
        values = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise FormatError(f"{path}: non-finite value at payload index {int(bad[0])}",
                              offset=offset + int(bad[0]) * item)
        return build(values)
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: malformed header: {exc}", offset=0) from exc
    except FormatError:
        raise
    except IwriError as exc:
        raise FormatError(f"{path}: {exc}", offset=0) from exc


# -- velocity model files ----------------------------------------------------


def write_model_file(model, path):
    """5-line text header (magic, nx, nz, dx, dz) + little-endian float32
    payload, row-major with x fastest, units m/s."""
    grid = model.grid
    _write(path, [MODEL_MAGIC, str(grid.nx), str(grid.nz), repr(grid.dx), repr(grid.dz)],
           model.values.astype("<f4").tobytes())


def read_model_file(path):
    def parse(lines):
        grid = Grid2D(int(lines[0]), int(lines[1]), _real(lines[2]), _real(lines[3]))
        return grid.n, lambda values: VelocityModel(grid, values)
    return _read(path, MODEL_MAGIC, 5, parse, "<f4")


# -- frequency-domain dataset files ------------------------------------------


def write_dataset(dataset, path):
    """Text header (counts, frequencies, source scales, noise levels, seed,
    geometry) + per-frequency complex128 blocks, source-major."""
    geo = dataset.geometry
    fmt = lambda v: repr(float(v))
    pos = lambda pts: ";".join(f"{fmt(x)},{fmt(z)}" for x, z in pts)
    _write(path, [
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
    ], b"".join(np.ascontiguousarray(block.T, dtype="<c16").tobytes() for block in dataset.data))


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
    def parse(lines):
        fields = dict(line.partition(" ")[::2] for line in lines)
        nfreq, nsrc, nrec = (int(fields[key]) for key in ("nfreq", "nsrc", "nrec"))
        freqs, scales, eps = (tuple(_real(v) for v in fields[key].split())
                              for key in ("freq", "scale", "eps"))
        if not len(freqs) == len(scales) == len(eps) == nfreq:
            raise ValueError("inconsistent per-frequency header counts")
        geometry = AcquisitionGeometry(sources=_parse_points(fields["src"]),
                                       receivers=_parse_points(fields["rec"]))
        if (geometry.n_sources, geometry.n_receivers) != (nsrc, nrec):
            raise ValueError(f"nsrc {nsrc}, nrec {nrec} disagree with {geometry.n_sources} "
                             f"src and {geometry.n_receivers} rec positions")
        seed = None if fields["seed"] == "-" else int(fields["seed"])
        return nfreq * nsrc * nrec, lambda raw: FrequencyDataset(
            frequencies=freqs, geometry=geometry,
            data=[block.T.copy() for block in raw.reshape(nfreq, nsrc, nrec)],
            noise_level=np.array(eps), source_scale=scales, seed=seed)
    return _read(path, DATA_MAGIC, 10, parse, "<c16")


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
    _write(path, lines, b"")


def read_convergence_csv(path):
    record = ConvergenceRecord()
    with open(path, newline="", encoding="ascii") as fh:
        for row in csv.DictReader(fh):
            optional = lambda key: float(row[key]) if row.get(key) else None
            record.append(int(row["k"]), float(row["data_misfit"]), float(row["pde_misfit"]),
                          optional("model_error"), optional("wavefield_error"),
                          int(row["pde_solves"]))
    return record


# -- grayscale raster ----------------------------------------------------------


def write_raster(field, path):
    """Binary P5 raster of a real 2D field, scaled from its minimum (black)
    to its maximum (white).  A flat field maps everything to mid-gray."""
    field = np.asarray(field, dtype=float)
    if field.ndim != 2:
        raise FormatError("raster export expects a 2D field")
    if not np.all(np.isfinite(field)):
        raise FormatError("raster export expects a finite field")
    lo, hi = float(field.min()), float(field.max())
    if hi == lo:
        pixels = np.full(field.shape, 128, dtype=np.uint8)
    else:
        pixels = np.rint(255.0 * (field - lo) / (hi - lo)).astype(np.uint8)
    nz, nx = field.shape
    _write(path, ["P5", f"{nx} {nz}", "255"], pixels.tobytes())


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


def _checked(parse, ok, rule):
    """Parser of a value of ``parse`` that passes ``ok``, which ``rule`` names."""
    def run(text):
        if not ok(value := parse(text)):
            raise ValueError(f"expected {rule}, got {text!r}")
        return value
    return run


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
    "f0": ("5.0", _checked(_real, lambda v: v > 0, "a positive number")),
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
    "noise_seed": ("0", _checked(int, lambda v: v >= 0, "a nonnegative integer")),
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
