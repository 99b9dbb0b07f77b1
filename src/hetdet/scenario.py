"""Synthetic interference scenarios, burst generation, and recorded-series I/O.

A burst is K complex pulses stored as (K, 2) in-phase/quadrature pairs, and
B bursts are stacked as one (B, K, 2) array.  Two synthetic interference
models are provided: per-sample variances drawn as delta*U(0,1) + sigma_n2
(uniform heterogeneity) and unit-mean Gamma textures scaling a common noise
power (compound Gaussian).  Under the target hypothesis a constant mean of
squared norm sigma_n2*10^(snr_db/10) is added to every sample; `gen_block`
draws identically under both hypotheses so paired runs share their noise
realizations.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import _pair_sum, _per_plane, _sq_norm

__all__ = [
    "Hypothesis",
    "RecordedSeries",
    "ScenarioConfig",
    "directions",
    "gen_block",
    "ingest_recorded",
    "pulse_powers",
    "sliding_bursts",
    "trial_rng",
]


class Hypothesis(enum.Enum):
    """Which hypothesis a burst is generated under."""

    H0 = "h0"
    H1 = "h1"


def directions(x: np.ndarray):
    """Unit directions and norms of the (..., 2) sample pairs in x.

    The directions are the maximal invariant under positive per-sample
    scalings; any statistic computed from them alone is unaffected by
    arbitrary power heterogeneity.
    """
    return _directions(x, _sq_norm(x))


def _directions(x: np.ndarray, sq_norms: np.ndarray):
    """directions(x) from the squared norms of its pairs, for a caller that has them."""
    norms = np.sqrt(sq_norms)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero-norm sample")
    return _per_plane(np.divide, x, norms), norms


@dataclass(frozen=True)
class ScenarioConfig:
    """Physics of a synthetic scenario; exactly one interference model active.

    `delta` selects uniform heterogeneity (variances delta*U + sigma_n2),
    `texture_shape` the compound-Gaussian model (unit-mean Gamma textures of
    that shape scaling sigma_n2).  The estimators' variance floor is not part
    of the scenario: it is `EstimationConfig.c0`.
    """

    k: int
    delta: float | None = None
    texture_shape: float | None = None
    sigma_n2: float = 1.0
    snr_db: float = 0.0
    target_phase: float = 0.0

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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx, NEP 19) and
# the PCG64 multiplier.  `_draw_block` rebuilds each trial's `trial_rng` stream
# from them, bit for bit, without constructing a SeedSequence per trial.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, at least one."""
    return [(n >> (32 * j)) & _MASK32 for j in range(max(1, -(-n.bit_length() // 32)))]


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays.

    Every call advances one multiplier, the same for every row, so rows
    hashed in the same order share their constants.
    """

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix_pool(entropy: np.ndarray) -> list[np.ndarray]:
    """SeedSequence.mix_entropy over the rows of a (B, L >= 4) uint32 array."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    return pool


def _stream_states(seed: int, trials) -> np.ndarray:
    """(B, 4) uint64: `SeedSequence(seed, spawn_key=(t,)).generate_state(4, np.uint64)` per trial.

    Trials whose index needs a different number of 32-bit words (for example
    on either side of 2**32) hash as separate groups.
    """
    seed_words = _words(seed)
    # With a spawn key present, the run entropy is zero-padded to the pool size.
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    index = np.array(list(trials), dtype=object)
    width = len(_words(int(index.max()))) if index.size else 1
    words = np.empty((index.size, width), dtype=np.uint32)
    for j in range(width):
        words[:, j] = (index >> (32 * j)) & _MASK32
    # A trial's key has as many words as it needs, and at least one.
    n_words = np.max(np.where(words != 0, np.arange(1, width + 1), 1), axis=1)
    out = np.empty((index.size, 4), dtype=np.uint64)
    for n in np.unique(n_words):
        rows = np.flatnonzero(n_words == n)
        entropy = np.empty((rows.size, len(seed_words) + n), dtype=np.uint32)
        entropy[:, : len(seed_words)] = seed_words
        entropy[:, len(seed_words):] = words[rows, :n]
        pool = _mix_pool(entropy)
        # generate_state(4, np.uint64): eight hashed words cycling over the
        # pool, paired little-endian into 64-bit words.
        hashmix = _hasher(_INIT_B, _MULT_B)
        words32 = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
        for j in range(4):
            out[rows, j] = words32[2 * j] | (words32[2 * j + 1] << np.uint64(32))
    return out


def _draw_law(cfg: ScenarioConfig):
    """All that a trial's raw draws read of the scenario: equal laws draw equal bits."""
    return cfg.k, cfg.texture_shape if cfg.delta is None else None


def _fill_draws(cfg: ScenarioConfig, rng: np.random.Generator, u: np.ndarray, g: np.ndarray):
    """One burst's raw draws in stream order: variance variates into u (K,), normals into g (K, 2)."""
    if cfg.delta is not None:
        rng.random(out=u)
    else:
        u[:] = rng.gamma(shape=cfg.texture_shape, scale=1.0 / cfg.texture_shape, size=cfg.k)
    rng.standard_normal(out=g)


def _bursts(cfg: ScenarioConfig, hypothesis: Hypothesis, u: np.ndarray, g: np.ndarray):
    """Samples (B, K, 2) and per-sample variances (B, K) from raw draws u (B, K), g (B, K, 2)."""
    if not isinstance(hypothesis, Hypothesis):
        raise ValueError("hypothesis must be a Hypothesis value")
    if cfg.delta is not None:
        sigma2 = cfg.delta * u + cfg.sigma_n2
    else:
        sigma2 = cfg.sigma_n2 * u
    x = _per_plane(np.multiply, g, np.sqrt(sigma2))
    if hypothesis is Hypothesis.H1:
        x = _pair_sum(x, cfg.target_mean)
    return x, sigma2


def gen_block(cfg: ScenarioConfig, hypothesis: Hypothesis, seed: int, start: int, count: int):
    """Raw arrays for trials start..start+count-1: samples (B, K, 2), variances (B, K).

    Each trial draws from exactly its `trial_rng(seed, trial)` stream, making
    the block contents independent of how trials are grouped into blocks.
    """
    return _bursts(cfg, hypothesis, *_draw_block(cfg, seed, start, count))


def _draw_block(cfg: ScenarioConfig, seed: int, start: int, count: int):
    """Raw draws u (B, K) and g (B, K, 2) of trials start..start+count-1.

    They depend on the scenario only through its `_draw_law`, so scenarios
    that differ in anything else can turn one set of draws into their bursts.
    The streams' PCG64 states come from one vectorized SeedSequence hash per
    block and are loaded in turn into a single generator.
    """
    # Rejects what trial_rng would reject; a seed of None draws fresh entropy.
    seed = operator.index(np.random.SeedSequence(seed).entropy)
    if operator.index(start) < 0:
        raise ValueError("start must be non-negative")
    u = np.empty((count, cfg.k))
    g = np.empty((count, cfg.k, 2))
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    for i, (w0, w1, w2, w3) in enumerate(_stream_states(seed, range(start, start + count)).tolist()):
        # pcg64_set_seed: inc = 2i + 1, state = (inc + s) * M + inc, mod 2**128.
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = (((w0 << 64 | w1) + inc) * _PCG64_MULT + inc) & _MASK128
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        _fill_draws(cfg, rng, u[i], g[i])
    return u, g


@dataclass(frozen=True)
class RecordedSeries:
    """Rectangular grid of recorded complex returns, one row per range bin."""

    cells: np.ndarray
    bin_labels: np.ndarray

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


_ROW = np.dtype([("bin", np.int64), ("pulse", np.int64), ("re", float), ("im", float)])


def _parse_rows(rows) -> np.ndarray:
    """`bin, pulse, re, im` text rows as a structured array; floats parse as float() does."""
    return np.loadtxt(rows, dtype=_ROW, delimiter=",", comments=None, ndmin=1)


def _numbered_rows(path) -> list:
    """(file line number, text) of every non-blank line after the header."""
    with open(path, encoding="utf-8") as fh:
        return [(n, line) for n, line in enumerate(fh, start=1) if n > 1 and line.strip()]


def _check_offset(offset: float, offset_mode: str, seed: int | None):
    """Reject an offset `ingest_recorded` cannot apply, or not reproducibly."""
    if offset_mode not in ("literal", "noise"):
        raise ValueError("offset_mode must be 'literal' or 'noise'")
    if not np.isfinite(offset):
        raise ValueError("offset must be finite")
    if offset_mode == "noise" and offset < 0:
        raise ValueError("noise offset must be >= 0")
    if offset_mode == "noise" and offset > 0 and seed is None:
        raise ValueError("a nonzero noise offset needs a seed")


def _in_order_pulses(b: np.ndarray, p: np.ndarray) -> int:
    """T if rows b, p list bins in ascending order, each with pulses 0..T-1 in order; else 0."""
    n_pulses = int(np.argmax(b != b[0])) or b.size
    if b.size % n_pulses:
        return 0
    grid_b, grid_p = b.reshape(-1, n_pulses), p.reshape(-1, n_pulses)
    in_order = (
        np.all(grid_p == np.arange(n_pulses))
        and np.all(grid_b == grid_b[:, :1])
        and np.all(grid_b[1:, 0] > grid_b[:-1, 0])
    )
    return n_pulses if in_order else 0


def ingest_recorded(path, offset: float = 0.0, offset_mode: str = "literal", seed: int | None = None) -> RecordedSeries:
    """Read a recorded series from delimiter-separated text.

    The file needs a `bin_index, pulse_index, re, im` header and one row per
    (bin, pulse) cell; every bin must cover pulses 0..T-1 exactly once.  A
    nonzero offset is applied either literally (added to every complex sample)
    or, with mode "noise", as an independent white complex Gaussian floor of
    total power `offset` (variance offset/2 per axis) drawn from the required `seed`.
    """
    _check_offset(offset, offset_mode, seed)
    with open(path, encoding="utf-8") as fh:
        if [c.strip().lower() for c in fh.readline().split(",")] != ["bin_index", "pulse_index", "re", "im"]:
            raise ValueError(f"{path}: expected header 'bin_index, pulse_index, re, im'")
        rows = (line for line in fh if line.strip())
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{path}: no data rows")
        try:
            table = _parse_rows(itertools.chain([first], rows))
        except ValueError:
            # Only a failed parse reads the file again, to find the bad line.
            for n, line in _numbered_rows(path):
                fields = line.split(",")
                if len(fields) != 4:
                    raise ValueError(f"{path}:{n}: expected 4 fields, got {len(fields)}") from None
                try:
                    _parse_rows([line])
                except ValueError:
                    raise ValueError(
                        f"{path}:{n}: cannot read {line.strip()!r} as integer, integer, float, float"
                    ) from None
            raise
    finite = np.isfinite(table["re"]) & np.isfinite(table["im"])
    if not finite.all():
        n, line = _numbered_rows(path)[int(np.argmin(finite))]
        raise ValueError(f"{path}:{n}: re and im must be finite, got {line.strip()!r}")
    b, p = table["bin"], table["pulse"]
    n_pulses = _in_order_pulses(b, p)
    if n_pulses:
        # Rows already in (bin, pulse) order, as the package's writers emit
        # them, are the grid itself: no sort places them.
        bins, key = b[::n_pulses].copy(), slice(None)
    else:
        bins, bin_pos = np.unique(b, return_inverse=True)
        pulses = np.unique(p)
        n_pulses = pulses.size
        if pulses[0] != 0 or pulses[-1] != n_pulses - 1:
            raise ValueError(f"{path}: pulse indices must cover 0..{n_pulses - 1} exactly")
        key = bin_pos * n_pulses + p
        first_seen = np.unique(key, return_index=True)[1]
        if first_seen.size < key.size:
            repeat = np.ones(key.size, dtype=bool)
            repeat[first_seen] = False
            i = int(np.argmax(repeat))
            raise ValueError(f"{path}:{_numbered_rows(path)[i][0]}: duplicate cell ({b[i]}, {p[i]})")
        if key.size < bins.size * n_pulses:
            filled = np.zeros(bins.size * n_pulses, dtype=bool)
            filled[key] = True
            j = int(np.argmin(filled))
            raise ValueError(f"{path}: bin {bins[j // n_pulses]} is missing pulse {j % n_pulses}")
        del bin_pos, first_seen
    cells = np.empty(b.size, dtype=complex)
    cells.real[key] = table["re"]
    cells.imag[key] = table["im"]
    cells = cells.reshape(bins.size, n_pulses)
    if offset != 0.0:
        if offset_mode == "literal":
            with np.errstate(over="ignore"):  # an overflow is named below, not warned of
                cells = cells + offset
        else:
            rng = np.random.default_rng(seed)
            scale = np.sqrt(offset / 2.0)
            noise = scale * (rng.standard_normal(cells.shape) + 1j * rng.standard_normal(cells.shape))
            cells = cells + noise
        finite = np.isfinite(cells.reshape(-1)[key])
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(
                f"{path}:{_numbered_rows(path)[i][0]}: cell ({b[i]}, {p[i]}) overflows with the "
                f"{offset_mode} offset {offset!r}"
            )
    del table, b, p, key, finite  # the row table goes before RecordedSeries copies the grid
    return RecordedSeries(cells=cells, bin_labels=bins)


def _window_count(n_pulses: int, k: int, stride: int) -> int:
    """How many K-pulse windows at `stride` fit in n_pulses >= k pulses."""
    return (n_pulses - k) // stride + 1


def sliding_bursts(
    series: RecordedSeries, bin_label: int, k: int, stride: int, start: int = 0, count: int | None = None
) -> np.ndarray:
    """Overlapping K-pulse bursts along one range bin, stacked as (count, k, 2).

    A bin of T recorded pulses holds W = floor((T - k)/stride) + 1 windows;
    window i holds pulses i*stride .. i*stride + k - 1.  Returns windows
    start .. start + count - 1 (by default every window from `start` on) as
    one new C-contiguous float array, so a caller can score a long bin in
    blocks without holding all W windows at once.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    row = series.row(bin_label)
    if k > row.size:
        raise ValueError(f"burst length {k} exceeds the {row.size} recorded pulses")
    n_windows = _window_count(row.size, k, stride)
    if start < 0:
        raise ValueError("start must be >= 0")
    if count is None:
        count = n_windows - start
    elif count < 1:
        raise ValueError("count must be >= 1")
    if start + count > n_windows or count < 1:
        raise ValueError(f"windows from {start} run past the last of the bin's {n_windows} windows")
    first = start * stride
    windows = sliding_window_view(row[first : first + (count - 1) * stride + k], k)[::stride]
    return np.stack([windows.real, windows.imag], axis=-1)


def pulse_powers(series: RecordedSeries, bin_label: int) -> np.ndarray:
    """Squared magnitude of each pulse in one range bin."""
    row = series.row(bin_label)
    return np.abs(row) ** 2
