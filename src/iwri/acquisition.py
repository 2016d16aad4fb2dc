"""Sources, receivers, frequency-domain data synthesis and noise injection."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GeometryError, ParameterError, ShapeError
from .grid import slowness_sq_to_velocity
from .helmholtz import build_kernel, forward_solve, pad_topology, resolve_pml


@dataclass(frozen=True)
class AcquisitionGeometry:
    """Point sources and receivers, positions in meters inside the physical grid."""

    sources: tuple
    receivers: tuple

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple((float(x), float(z)) for x, z in self.sources))
        object.__setattr__(self, "receivers", tuple((float(x), float(z)) for x, z in self.receivers))
        if not self.sources or not self.receivers:
            raise GeometryError("need at least one source and one receiver")

    @property
    def n_sources(self):
        return len(self.sources)

    @property
    def n_receivers(self):
        return len(self.receivers)

    def validate(self, grid):
        """Positions must fall inside the physical grid, and no receiver may
        share a cell with a source (singular near field)."""
        src_cells = set()
        for x, z in self.sources:
            if not grid.contains(x, z):
                raise GeometryError(f"source ({x}, {z}) outside physical grid")
            src_cells.add(grid.nearest_cell(x, z))
        for x, z in self.receivers:
            if not grid.contains(x, z):
                raise GeometryError(f"receiver ({x}, {z}) outside physical grid")
            if grid.nearest_cell(x, z) in src_cells:
                raise GeometryError(f"receiver ({x}, {z}) co-located with a source cell")


def build_observation(topology, receivers):
    """Sampling matrix P (one unit entry per row at the nearest cell of each
    receiver), acting on padded-grid wavefields."""
    grid = topology.grid
    rows, cols = [], []
    for i, (x, z) in enumerate(receivers):
        ix, iz = grid.nearest_cell(x, z)
        rows.append(i)
        cols.append(topology.pad_of_phys[grid.flat_index(ix, iz)])
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(len(receivers), topology.n_pad))


def build_source(topology, src_pos, amplitude=1.0):
    """Impulse source on the padded grid, scaled by 1/(dx*dz) so discrete
    solutions are grid-consistent with the continuum Green's function."""
    grid = topology.grid
    x, z = src_pos
    ix, iz = grid.nearest_cell(x, z)
    b = np.zeros(topology.n_pad, dtype=complex)
    b[topology.pad_of_phys[grid.flat_index(ix, iz)]] = amplitude / (grid.dx * grid.dz)
    return b


def source_matrix(topology, sources, amplitude):
    """The sources of one frequency as columns, each scaled by ``amplitude``."""
    return np.column_stack([build_source(topology, s, amplitude) for s in sources])


def ricker_spectrum(f, f0):
    """Amplitude spectrum of a zero-phase Ricker wavelet with dominant
    frequency f0: W(f) = (2/sqrt(pi)) (f^2/f0^3) exp(-(f/f0)^2)."""
    if not f0 > 0:  # NaN too
        raise ParameterError(f"dominant frequency must be positive, got {f0}")
    if not f >= 0:
        raise ParameterError(f"frequency must be nonnegative, got {f}")
    return (2.0 / math.sqrt(math.pi)) * (f**2 / f0**3) * math.exp(-((f / f0) ** 2))


# Per-frequency data threshold used when no noise has been injected.
NOISELESS_EPS = 1e-5


@dataclass
class FrequencyDataset:
    """Observed data per (frequency, source): complex arrays of shape
    (n_receivers, n_sources), plus the per-frequency noise level."""

    frequencies: tuple
    geometry: AcquisitionGeometry
    data: list
    noise_level: np.ndarray
    source_scale: tuple = ()
    seed: int | None = None

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
        if not all(0 < f < math.inf for f in freqs):
            raise ParameterError(f"frequencies must be finite and positive, got {freqs}")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ParameterError(f"frequencies must be strictly increasing, got {freqs}")
        self.frequencies = freqs
        self.data = [np.asarray(d, dtype=complex) for d in self.data]
        if len(self.data) != len(freqs):
            raise ShapeError("one data block per frequency required")
        shape = (self.geometry.n_receivers, self.geometry.n_sources)
        for d in self.data:
            if d.shape != shape:
                raise ShapeError(f"data block has shape {d.shape}, expected {shape}")
        self.noise_level = np.asarray(self.noise_level, dtype=float)
        if self.noise_level.shape != (len(freqs),):
            raise ShapeError("need one noise level per frequency")
        if not np.all((self.noise_level >= 0) & (self.noise_level < math.inf)):
            raise ParameterError(f"noise levels must be finite and nonnegative, "
                                 f"got {self.noise_level.tolist()}")
        if not self.source_scale:
            self.source_scale = tuple(1.0 for _ in freqs)
        if not all(math.isfinite(s) for s in self.source_scale):
            raise ParameterError(f"source scales must be finite, got {self.source_scale}")

    @property
    def n_frequencies(self):
        return len(self.frequencies)

    def subset(self, indices):
        """New dataset restricted to the given frequency indices."""
        indices = list(indices)
        return FrequencyDataset(
            frequencies=tuple(self.frequencies[i] for i in indices),
            geometry=self.geometry,
            data=[self.data[i].copy() for i in indices],
            noise_level=self.noise_level[indices].copy(),
            source_scale=tuple(self.source_scale[i] for i in indices),
            seed=self.seed,
        )


def synthesize_data(m_true, geometry, frequencies, pml, scheme, f0=5.0):
    """Model observed data in m_true: d = P A(m_true)^{-1} (W(f) b) per
    (frequency, source).  An unresolved PML takes its reference velocity
    from m_true (``resolve_pml``).  Deterministic; noise is added separately."""
    grid = m_true.grid
    geometry.validate(grid)
    pml = resolve_pml(pml, grid, None, slowness_sq_to_velocity(m_true))
    P = build_observation(pad_topology(grid, pml), geometry.receivers)
    data, scales = [], []
    for f in frequencies:
        kernel = build_kernel(grid, 2.0 * math.pi * f, pml, scheme)
        amplitude = ricker_spectrum(f, f0)
        b = source_matrix(kernel.topology, geometry.sources, amplitude)
        data.append(P @ forward_solve(kernel.assemble(m_true.values), b))
        scales.append(amplitude)
    return FrequencyDataset(
        frequencies=tuple(float(f) for f in frequencies),
        geometry=geometry,
        data=data,
        noise_level=np.full(len(data), NOISELESS_EPS),
        source_scale=tuple(scales),
    )


def add_noise(dataset, snr_db, seed):
    """Add complex Gaussian noise per frequency slice, scaled so the
    Frobenius-norm SNR 20 log10(||D||_F/||N||_F) equals snr_db exactly.

    Records the per-frequency noise norm as the dataset noise level.
    ``snr_db = inf`` leaves the data untouched (noiseless convention).
    Deterministic: each frequency's noise stream derives from
    (seed, frequency index).
    """
    if not dataset.data:
        raise ShapeError("cannot add noise to an empty dataset")
    if snr_db == math.inf:
        # no-noise sentinel: data untouched, seed marker stays unset
        return dataset.subset(range(dataset.n_frequencies))
    if not math.isfinite(snr_db):
        raise ParameterError("snr_db must be finite or +inf")
    noisy, levels = [], []
    for idx, block in enumerate(dataset.data):
        rng = np.random.default_rng([int(seed), idx])
        raw = rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape)
        signal = math.sqrt(float(np.sum(np.abs(block) ** 2)))
        target = signal * 10.0 ** (-snr_db / 20.0)
        raw_norm = math.sqrt(float(np.sum(np.abs(raw) ** 2)))
        noise = raw * (target / raw_norm)
        noisy.append(block + noise)
        levels.append(target)
    return FrequencyDataset(
        frequencies=dataset.frequencies,
        geometry=dataset.geometry,
        data=noisy,
        noise_level=np.array(levels),
        source_scale=dataset.source_scale,
        seed=seed,
    )
