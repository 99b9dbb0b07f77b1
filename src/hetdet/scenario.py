"""Burst containers, synthetic interference scenarios, and recorded-series I/O.

A burst is K complex pulses stored as (K, 2) in-phase/quadrature pairs.  Two
synthetic interference models are provided: per-sample variances drawn as
delta*U(0,1) + sigma_n2 (uniform heterogeneity) and unit-mean Gamma textures
scaling a common noise power (compound Gaussian).  Under the target hypothesis
a constant mean of squared norm sigma_n2*10^(snr_db/10) is added to every
sample; generators draw identically under both hypotheses so paired runs share
their noise realizations.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Burst",
    "GroundTruth",
    "Hypothesis",
    "InvariantBurst",
    "RecordedSeries",
    "ScenarioConfig",
    "gen_block",
    "gen_compound_gaussian",
    "gen_uniform_het",
    "ingest_recorded",
    "pulse_powers",
    "sliding_bursts",
    "to_invariant",
    "trial_rng",
]


def _frozen_array(value, shape_tail=None, name="array") -> np.ndarray:
    arr = np.array(value, dtype=float)
    if shape_tail is not None and arr.shape[len(arr.shape) - len(shape_tail):] != shape_tail:
        raise ValueError(f"{name} must end with shape {shape_tail}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


class Hypothesis(enum.Enum):
    """Which hypothesis a burst is generated under."""

    H0 = "h0"
    H1 = "h1"


@dataclass(frozen=True)
class Burst:
    """Immutable container of K complex samples as (K, 2) real pairs."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError("samples must have shape (K, 2) with K >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def k(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class InvariantBurst:
    """Unit directions of a burst together with the discarded norms."""

    directions: np.ndarray
    norms: np.ndarray

    def __post_init__(self):
        z = np.array(self.directions, dtype=float)
        n = np.array(self.norms, dtype=float)
        if z.ndim != 2 or z.shape[1] != 2 or n.shape != (z.shape[0],):
            raise ValueError("directions must be (K, 2) with matching norms (K,)")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(n))):
            raise ValueError("directions and norms must be finite")
        if np.any(n <= 0.0):
            raise ValueError("norms must be positive")
        z.flags.writeable = False
        n.flags.writeable = False
        object.__setattr__(self, "directions", z)
        object.__setattr__(self, "norms", n)

    @property
    def k(self) -> int:
        return self.directions.shape[0]


def directions(x: np.ndarray):
    """Unit directions and norms of the (..., 2) sample pairs in x."""
    norms = np.sqrt(np.sum(x * x, axis=-1))
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero-norm sample")
    return x / norms[..., None], norms


def to_invariant(burst: Burst) -> InvariantBurst:
    """Project a burst onto per-sample unit directions.

    The directions are the maximal invariant under positive per-sample
    scalings; any statistic computed from them alone is unaffected by
    arbitrary power heterogeneity.
    """
    z, norms = directions(burst.samples)
    return InvariantBurst(directions=z, norms=norms)


@dataclass(frozen=True)
class GroundTruth:
    """Realized generation parameters attached to a synthetic burst.

    `mean` is the mean actually present in the samples (zero under the null);
    `target_mean` is the configured target signature regardless of hypothesis,
    which is what a clairvoyant statistic must be evaluated with.
    """

    mean: np.ndarray
    target_mean: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen_array(self.mean, (2,), "mean"))
        object.__setattr__(self, "target_mean", _frozen_array(self.target_mean, (2,), "target_mean"))
        s2 = _frozen_array(self.sigma2, None, "sigma2")
        if s2.ndim != 1 or np.any(s2 <= 0):
            raise ValueError("sigma2 must be a positive vector")
        object.__setattr__(self, "sigma2", s2)


@dataclass(frozen=True)
class ScenarioConfig:
    """Physics of a synthetic scenario; exactly one interference model active.

    `delta` selects uniform heterogeneity (variances delta*U + sigma_n2),
    `texture_shape` the compound-Gaussian model (unit-mean Gamma textures of
    that shape scaling sigma_n2).  The variance floor c0 defaults to sigma_n2.
    """

    k: int
    delta: float | None = None
    texture_shape: float | None = None
    sigma_n2: float = 1.0
    snr_db: float = 0.0
    target_phase: float = 0.0
    c0: float | None = None

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError("k must be an integer >= 2")
        if (self.delta is None) == (self.texture_shape is None):
            raise ValueError("exactly one of delta and texture_shape must be set")
        if self.delta is not None and not (np.isfinite(self.delta) and self.delta >= 0):
            raise ValueError("delta must be finite and >= 0")
        if self.texture_shape is not None and not (
            np.isfinite(self.texture_shape) and self.texture_shape > 0
        ):
            raise ValueError("texture_shape must be finite and > 0")
        if not (np.isfinite(self.sigma_n2) and self.sigma_n2 > 0):
            raise ValueError("sigma_n2 must be finite and > 0")
        if np.isnan(self.snr_db) or self.snr_db == np.inf:
            raise ValueError("snr_db must not be NaN or +inf")
        if not np.isfinite(self.target_phase):
            raise ValueError("target_phase must be finite")
        if self.c0 is None:
            object.__setattr__(self, "c0", float(self.sigma_n2))
        elif not (np.isfinite(self.c0) and self.c0 > 0):
            raise ValueError("c0 must be finite and > 0")

    @property
    def target_mean(self) -> np.ndarray:
        """Configured target signature: norm set by the SNR, direction by the phase."""
        amplitude = float(np.sqrt(self.sigma_n2 * 10.0 ** (self.snr_db / 10.0)))
        return np.array(
            [amplitude * np.cos(self.target_phase), amplitude * np.sin(self.target_phase)]
        )


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one Monte Carlo trial.

    Streams are keyed by (seed, trial) alone, so any partition of trials over
    processes draws identical bursts.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial,))))


def _draw(cfg: ScenarioConfig, hypothesis: Hypothesis, rng: np.random.Generator):
    """One burst's raw draws: per-sample variances, then the (K, 2) normals."""
    if cfg.delta is not None:
        sigma2 = cfg.delta * rng.random(cfg.k) + cfg.sigma_n2
    else:
        sigma2 = cfg.sigma_n2 * rng.gamma(shape=cfg.texture_shape, scale=1.0 / cfg.texture_shape, size=cfg.k)
    g = rng.standard_normal((cfg.k, 2))
    x = np.sqrt(sigma2)[:, None] * g
    if hypothesis is Hypothesis.H1:
        x = x + cfg.target_mean
    return x, sigma2


def _generate(cfg, hypothesis, rng, model):
    if model == "uniform" and cfg.delta is None:
        raise ValueError("scenario does not carry a delta parameter")
    if model == "compound" and cfg.texture_shape is None:
        raise ValueError("scenario does not carry a texture_shape parameter")
    if not isinstance(hypothesis, Hypothesis):
        raise ValueError("hypothesis must be a Hypothesis value")
    x, sigma2 = _draw(cfg, hypothesis, rng)
    target = cfg.target_mean
    mean = target if hypothesis is Hypothesis.H1 else np.zeros(2)
    return Burst(x), GroundTruth(mean=mean, target_mean=target, sigma2=sigma2)


def gen_uniform_het(cfg: ScenarioConfig, hypothesis: Hypothesis, rng: np.random.Generator):
    """Draw one burst under uniform variance heterogeneity, with its ground truth."""
    return _generate(cfg, hypothesis, rng, "uniform")


def gen_compound_gaussian(cfg: ScenarioConfig, hypothesis: Hypothesis, rng: np.random.Generator):
    """Draw one burst under Gamma-texture compound-Gaussian interference."""
    return _generate(cfg, hypothesis, rng, "compound")


def gen_block(cfg: ScenarioConfig, hypothesis: Hypothesis, seed: int, start: int, count: int):
    """Raw arrays for trials start..start+count-1: samples (B, K, 2), variances (B, K).

    Each trial uses its own keyed stream (see trial_rng), making the block
    contents independent of how trials are grouped into blocks.
    """
    x = np.empty((count, cfg.k, 2))
    sigma2 = np.empty((count, cfg.k))
    for i in range(count):
        rng = trial_rng(seed, start + i)
        x[i], sigma2[i] = _draw(cfg, hypothesis, rng)
    return x, sigma2


@dataclass(frozen=True)
class RecordedSeries:
    """Rectangular grid of recorded complex returns, one row per range bin."""

    cells: np.ndarray
    bin_labels: np.ndarray
    offset: float = 0.0
    offset_mode: str = "literal"

    def __post_init__(self):
        cells = np.array(self.cells, dtype=complex)
        labels = np.array(self.bin_labels, dtype=int)
        if cells.ndim != 2 or labels.shape != (cells.shape[0],):
            raise ValueError("cells must be (n_bins, n_pulses) with matching bin_labels")
        if not np.all(np.isfinite(cells)):
            raise ValueError("cells must be finite")
        if len(set(labels.tolist())) != labels.size:
            raise ValueError("bin_labels must be unique")
        cells.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "bin_labels", labels)

    @property
    def n_bins(self) -> int:
        return self.cells.shape[0]

    @property
    def n_pulses(self) -> int:
        return self.cells.shape[1]

    def row(self, bin_label: int) -> np.ndarray:
        hits = np.nonzero(self.bin_labels == bin_label)[0]
        if hits.size != 1:
            raise ValueError(f"unknown range bin {bin_label}")
        return self.cells[hits[0]]


def ingest_recorded(path, offset: float = 0.0, offset_mode: str = "literal", seed: int | None = None) -> RecordedSeries:
    """Read a recorded series from delimiter-separated text.

    The file needs a `bin_index, pulse_index, re, im` header and one row per
    (bin, pulse) cell; every bin must cover pulses 0..T-1 exactly once.  A
    nonzero offset is applied either literally (added to every complex sample)
    or, with mode "noise", as an independent white complex Gaussian floor of
    total power `offset` (variance offset/2 per axis) drawn from `seed`.
    """
    if offset_mode not in ("literal", "noise"):
        raise ValueError("offset_mode must be 'literal' or 'noise'")
    if not np.isfinite(offset):
        raise ValueError("offset must be finite")
    if offset_mode == "noise" and offset < 0:
        raise ValueError("noise offset must be >= 0")
    entries = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != ["bin_index", "pulse_index", "re", "im"]:
            raise ValueError(f"{path}: expected header 'bin_index, pulse_index, re, im'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                b = int(row[0])
                p = int(row[1])
                value = complex(float(row[2]), float(row[3]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if (b, p) in entries:
                raise ValueError(f"{path}:{lineno}: duplicate cell ({b}, {p})")
            entries[(b, p)] = value
    if not entries:
        raise ValueError(f"{path}: no data rows")
    bins = sorted({b for b, _ in entries})
    pulses = sorted({p for _, p in entries})
    n_pulses = len(pulses)
    if pulses != list(range(n_pulses)):
        raise ValueError(f"{path}: pulse indices must cover 0..{n_pulses - 1} exactly")
    cells = np.empty((len(bins), n_pulses), dtype=complex)
    for i, b in enumerate(bins):
        for p in range(n_pulses):
            try:
                cells[i, p] = entries[(b, p)]
            except KeyError:
                raise ValueError(f"{path}: bin {b} is missing pulse {p}") from None
    if offset != 0.0:
        if offset_mode == "literal":
            cells = cells + offset
        else:
            rng = np.random.default_rng(seed)
            scale = np.sqrt(offset / 2.0)
            noise = scale * (rng.standard_normal(cells.shape) + 1j * rng.standard_normal(cells.shape))
            cells = cells + noise
    return RecordedSeries(cells=cells, bin_labels=np.array(bins), offset=float(offset), offset_mode=offset_mode)


def sliding_bursts(series: RecordedSeries, bin_label: int, k: int, stride: int) -> np.ndarray:
    """Overlapping K-pulse bursts along one range bin, stacked as (W, k, 2).

    Produces W = floor((T - k)/stride) + 1 bursts for T recorded pulses;
    window i holds pulses i*stride .. i*stride + k - 1.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    row = series.row(bin_label)
    if k > row.size:
        raise ValueError(f"burst length {k} exceeds the {row.size} recorded pulses")
    windows = sliding_window_view(row, k)[::stride]
    return np.stack([windows.real, windows.imag], axis=-1)


def pulse_powers(series: RecordedSeries, bin_label: int) -> np.ndarray:
    """Squared magnitude of each pulse in one range bin."""
    row = series.row(bin_label)
    return np.abs(row) ** 2
