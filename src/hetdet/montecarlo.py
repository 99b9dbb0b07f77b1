"""Monte Carlo harness: threshold calibration, Pfa/Pd estimation, traces.

Trials are simulated in fixed 512-trial blocks, each drawing its bursts from
per-trial streams keyed by (seed, trial index).  `_block_results` runs every
block, of trials or of a recorded bin's windows, in this process or through
one pool, and yields the results in block order, so they are bit-identical
for any worker count and any scheduling.

A run over several (scenario, detectors) points simulates each trial once:
one block function scores a trial range at every point, drawing once per
distinct draw law (a delta or SNR grid shares one set of draws, a Gamma-shape
grid draws per point), and every block of a sweep or a calibration goes
through one process pool.  A `pd_curves` calibration is one such run: its
fixed detectors at the matched scenario and each truth-reading detector at
every SNR.  `_exceedance_curves` keeps per-point exceedance counts as blocks
arrive, never a point's statistics, for simulated points and recorded bins.

Thresholds are upper order statistics of the simulated null distribution
(rank ceil((1 - pfa) * trials), ascending), tested with strict exceedance.
A calibration streams each detector's statistics through `_UpperTail`, which
keeps only the trials - rank + 1 largest, about pfa * trials values, so the
eta is the smallest kept value, bit for bit the rank-th of the sorted
statistics.  Confidence intervals are Wilson score at 95%.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .detectors import NonFiniteStatistic, ZeroNormSample, statistics_batch
from .estimation import (
    EstimationConfig,
    cyclic_em_batch,
    cyclic_ml_batch,
    em_init,
    em_mean_batch,
    em_sigma_batch,
    ml_init,
)
from .numerics import _sq_norm
from .scenario import (
    Hypothesis,
    ScenarioConfig,
    _bursts,
    _draw_block,
    _draw_law,
    directions,
    gen_block,
)

BLOCK_SIZE = 512
MAX_TRIALS = 2**40  # 8 TiB of float64 per detector's statistics; over 150 CPU-days of bursts
_WILSON_Z = 1.96

__all__ = [
    "AlgorithmTag",
    "BLOCK_SIZE",
    "CurvePoint",
    "MAX_TRIALS",
    "calibrate_thresholds",
    "convergence_trace",
    "curve_point",
    "pd_curves",
    "pfa_sweep",
    "sample_statistics",
    "statistics_for_bursts",
    "wilson_interval",
    "write_curves_csv",
    "write_manifest",
    "write_trace_csv",
]


@dataclass(frozen=True)
class CurvePoint:
    """One estimated probability with its 95% confidence interval."""

    abscissa: float
    estimate: float
    ci_low: float
    ci_high: float
    trials: int

    def __post_init__(self):
        if not (0.0 <= self.estimate <= 1.0):
            raise ValueError("estimate must lie in [0, 1]")
        if not (self.ci_low <= self.estimate <= self.ci_high):
            raise ValueError("estimate must lie inside its interval")
        if self.trials < 1:
            raise ValueError("trials must be positive")


class AlgorithmTag(enum.Enum):
    """Which iterative procedure a convergence trace follows."""

    ALG1 = "alg1"
    EM_M = "em-m"
    EM_SIGMA = "em-sigma"
    CYCLIC_EM = "cyclic-em"

    @classmethod
    def parse(cls, token: str) -> "AlgorithmTag":
        try:
            return cls(token)
        except ValueError:
            valid = ", ".join(t.value for t in cls)
            raise ValueError(f"unknown algorithm {token!r}; expected one of: {valid}") from None


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1 or not (0 <= successes <= trials):
        raise ValueError("need 0 <= successes <= trials with trials >= 1")
    z2 = _WILSON_Z * _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = _WILSON_Z * np.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    # Rounding can push a bound past [0, 1] or just inside the point estimate
    # at phat = 0 or 1; the interval must always cover phat.
    low = min(max(0.0, center - half), phat)
    high = max(min(1.0, center + half), phat)
    return float(low), float(high)


def curve_point(abscissa: float, successes: int, trials: int) -> CurvePoint:
    """Wrap an exceedance count into a CurvePoint with its Wilson interval."""
    low, high = wilson_interval(successes, trials)
    return CurvePoint(float(abscissa), successes / trials, low, high, trials)


class _Block(NamedTuple):
    """`count` bursts from `start`: trials, or the windows of recorded bin `bin`."""

    start: int
    count: int
    bin: int | None = None

    def at(self, burst: int = 0) -> str:
        """Name burst `burst` of the block by its trial, or by its bin and window."""
        unit = "trial" if self.bin is None else f"bin {self.bin}, window"
        return f"{unit} {self.start + burst}"


def _trial_blocks(trials: int) -> list:
    if trials < 1:
        raise ValueError("trials must be positive")
    if trials > MAX_TRIALS:
        raise ValueError("trials must be at most MAX_TRIALS = 2**40")
    return [_Block(start, min(BLOCK_SIZE, trials - start)) for start in range(0, trials, BLOCK_SIZE)]


def _sample_block(context, block: _Block) -> list:
    """[{kind: statistics}] per (scenario, kinds) point for the block's trials."""
    cfg, points, hypothesis, seed = context
    draws = {}
    results = []
    for scen, kinds in points:
        law = _draw_law(scen)
        if law not in draws:
            draws[law] = _draw_block(scen, seed, block.start, block.count)
        x, sigma2 = _bursts(scen, hypothesis, *draws[law])
        results.append(statistics_batch(x, kinds, cfg, true_mean=scen.target_mean, true_sigma2=sigma2))
    return results


_task = None  # (fn, context) in a pool worker, set once by the pool's initializer


def _start_worker(*task):
    global _task
    _task = task


def _run_block(block: _Block, task=None):
    """fn(context, block) for the (fn, context) `task`, by default the pool worker's."""
    fn, context = task or _task
    try:
        return fn(context, block)
    except (NonFiniteStatistic, ZeroNormSample) as exc:
        # The burst index is relative to the block.
        raise ValueError(f"{exc} ({block.at(exc.burst)})") from None


def _block_results(fn, context, blocks: list, workers: int):
    """Yield fn(context, block) for each block, in block order.

    One worker, or one block, runs in this process; otherwise one pool runs
    every block.  If a pool worker dies, raises ValueError naming the first
    block whose result never came.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    if workers == 1 or len(blocks) == 1:
        for block in blocks:
            yield _run_block(block, (fn, context))
        return
    # The pool starts all of its workers at the first submit, used or not.
    done = 0
    pool = ProcessPoolExecutor(min(workers, len(blocks)), initializer=_start_worker, initargs=(fn, context))
    with pool:
        try:
            for result in pool.map(_run_block, blocks):
                yield result
                done += 1
        except BrokenProcessPool:
            raise ValueError(f"a worker process died; the block at {blocks[done].at()} never finished") from None


def _scored(cfg, points, hypothesis: Hypothesis, trials: int, seed: int, workers: int):
    """Yield (point index, {kind: statistics}) per block of the trials and (scenario, kinds) point.

    The trials are simulated once, through one pool, and points whose
    scenarios share a draw law share the draws.
    """
    context = (cfg, points, hypothesis, seed)
    for block in _block_results(_sample_block, context, _trial_blocks(trials), workers):
        yield from enumerate(block)


def sample_statistics(
    kinds,
    cfg: EstimationConfig | None,
    scen: ScenarioConfig,
    hypothesis: Hypothesis,
    trials: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Simulate `trials` bursts and return {kind: (trials,) statistic array}.

    The clairvoyant statistic is evaluated at the scenario's target signature
    and each trial's realized variances, under either hypothesis.  If a pool
    worker dies, raises ValueError naming the first trial of the first block
    whose result never came.
    """
    kinds = list(kinds)
    blocks = [stats for _, stats in _scored(cfg, [(scen, kinds)], hypothesis, trials, seed, workers)]
    return {kind: np.concatenate([stats[kind] for stats in blocks]) for kind in kinds}


def statistics_for_bursts(bursts, kinds, cfg: EstimationConfig | None = None) -> dict:
    """Requested statistics over stacked equal-length bursts, shape (W, K, 2).

    This is the input `sliding_bursts` returns; ragged input is rejected.
    """
    x = np.asarray(bursts, dtype=float)
    if x.size == 0:
        raise ValueError("at least one burst is required")
    return statistics_batch(x, kinds, cfg)


class _UpperTail:
    """The CFAR threshold of `trials` statistics that arrive in blocks.

    The eta at `nominal_pfa` is the rank-th smallest statistic, rank =
    ceil((1 - pfa) * trials), which is the `keep`-th largest, keep = trials -
    rank + 1.  Blocks are held as they arrive; once more than 2 * keep values
    are held, one `np.partition` cuts them back to the largest `keep`.  So at
    most 2 * keep values are held between blocks, each cut follows at least
    keep new values and the work stays linear in `trials`.  A kept value is a
    statistic itself, so `eta` has the bits of np.sort(all)[rank - 1].
    """

    def __init__(self, nominal_pfa: float, trials: int):
        self.keep = trials - int(np.ceil((1.0 - nominal_pfa) * trials)) + 1
        self.blocks = []
        self.held = 0

    def add(self, values: np.ndarray):
        self.blocks.append(values)
        self.held += values.size
        if self.held > 2 * self.keep:
            self.blocks = [self._largest()]
            self.held = self.keep

    def _largest(self) -> np.ndarray:
        """The `keep` largest values held, the keep-th largest first."""
        values = np.concatenate(self.blocks)
        cut = values.size - self.keep
        values.partition(cut)
        return values[cut:].copy()  # a view would keep every value alive

    def eta(self) -> float:
        """The keep-th largest statistic added; every statistic must have been added."""
        return float(self._largest()[0])


def _calibration_floor(nominal_pfa: float) -> int:
    """The fewest calibration trials at `nominal_pfa`: about 100 null exceedances."""
    if not (0.0 < nominal_pfa < 1.0):
        raise ValueError("nominal_pfa must lie in (0, 1)")
    floor = 100.0 / nominal_pfa
    if floor == np.inf:
        raise ValueError(f"pfa {nominal_pfa!r} is too small: ceil(100/pfa) trials overflow a float")
    return int(np.ceil(floor))


def _check_calibration_size(trials: int, nominal_pfa: float):
    floor = _calibration_floor(nominal_pfa)
    if trials < floor:
        raise ValueError(
            f"calibration needs at least ceil(100/pfa) = {floor} trials, got {trials}"
        )


def calibrate_thresholds(
    kinds,
    cfg: EstimationConfig | None,
    scen: ScenarioConfig,
    nominal_pfa: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Calibrate each requested detector from one shared null simulation.

    Returns {kind: eta}, each eta a float.
    """
    return _calibrate(cfg, [(scen, list(kinds))], nominal_pfa, trials, seed, workers)[0]


def _calibrate(cfg, points, nominal_pfa: float, trials: int, seed: int, workers: int) -> list:
    """{kind: eta} per (scenario, kinds) point, all from one null simulation of the trials.

    Each block's statistics go into their `_UpperTail` as the block arrives,
    so only the statistics at or above each eta are kept.
    """
    _check_calibration_size(trials, nominal_pfa)
    tails = [{kind: _UpperTail(nominal_pfa, trials) for kind in kinds} for _, kinds in points]
    for i, stats in _scored(cfg, points, Hypothesis.H0, trials, seed, workers):
        for kind, tail in tails[i].items():
            tail.add(stats[kind])
    return [{kind: tail.eta() for kind, tail in point_tails.items()} for point_tails in tails]


def _h0_abscissa(scen: ScenarioConfig) -> float:
    return float(scen.delta if scen.delta is not None else scen.texture_shape)


def _exceedance_curves(kinds, thresholds: dict, abscissas, trials: int, scored) -> dict:
    """{kind: [CurvePoint per abscissa]}, the exceedance rates of `trials` bursts per point.

    `scored` yields (point index, {kind: statistics}) for each block of a
    point's bursts, simulated trials or a recorded bin's windows.  Each
    block's statistics are reduced to exceedance counts as it arrives, so
    only the counts are kept.  A kind's threshold is one eta, or one per
    point; a statistic strictly above it is a detection, a tie is not.
    """
    counts = {kind: [0] * len(abscissas) for kind in kinds}
    for i, stats in scored:
        for kind in kinds:
            eta = thresholds[kind] if np.ndim(thresholds[kind]) == 0 else thresholds[kind][i]
            counts[kind][i] += int(np.count_nonzero(stats[kind] > eta))
    return {
        kind: [curve_point(abscissa, counts[kind][i], trials) for i, abscissa in enumerate(abscissas)]
        for kind in kinds
    }


def pfa_sweep(
    kinds,
    cfg: EstimationConfig | None,
    thresholds: dict,
    scens,
    trials: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Estimated Pfa for several detectors across mismatched scenarios.

    Every scenario scores one shared simulation of the trials; returns
    {kind: [CurvePoint, ...]}.
    """
    kinds = list(kinds)
    scens = list(scens)
    if not scens:
        raise ValueError("at least one scenario is required")
    for kind in kinds:
        if kind not in thresholds:
            raise ValueError(f"missing threshold for {kind.value}")
    scored = _scored(cfg, [(scen, kinds) for scen in scens], Hypothesis.H0, trials, seed, workers)
    return _exceedance_curves(kinds, thresholds, [_h0_abscissa(scen) for scen in scens], trials, scored)


def _grid_scenario(scen: ScenarioConfig, grid_kind: str, value: float) -> ScenarioConfig:
    """The scenario of one grid point: a heterogeneity level, Gamma shape or SNR."""
    if grid_kind == "delta":
        return replace(scen, delta=value, texture_shape=None)
    if grid_kind == "q":
        return replace(scen, delta=None, texture_shape=value)
    return replace(scen, snr_db=value)


def pd_curves(
    kinds,
    cfg: EstimationConfig | None,
    scen: ScenarioConfig,
    snr_grid,
    nominal_pfa: float,
    cal_trials: int,
    trials: int,
    seed: int,
    cal_seed: int,
    workers: int = 1,
):
    """Pd-versus-SNR curves for several detectors with shared simulations.

    Thresholds are calibrated under the null of `scen` itself, the matched
    scenario, from the stream `cal_seed`, which should differ from the
    detection trials' `seed`.  At each SNR every requested statistic sees the
    same bursts, so comparisons across detectors and along the grid are
    paired.  Returns (curves, thresholds): {kind: [CurvePoint, ...]} and
    {kind: eta} (a tuple of etas, one per SNR, for the clairvoyant detector).
    """
    kinds = list(kinds)
    if len(set(kinds)) != len(kinds) or not kinds:
        raise ValueError("kinds must be non-empty and unique")
    grid = [float(snr) for snr in snr_grid]
    if not grid:
        raise ValueError("grid must be non-empty")
    scens = [_grid_scenario(scen, "snr", snr) for snr in grid]  # ScenarioConfig rejects NaN and +inf
    # The truth's mean moves with SNR, so a detector that reads it gets one eta
    # per SNR.  One pass over the null trials calibrates every point.
    moving = [k for k in kinds if k.requires_truth]
    fixed = [k for k in kinds if k not in moving]
    cal_points = [(scen, fixed)] if fixed else []
    if moving:
        cal_points += [(at, moving) for at in scens]
    etas = _calibrate(cfg, cal_points, nominal_pfa, cal_trials, cal_seed, workers)
    thresholds = etas.pop(0) if fixed else {}
    thresholds.update({k: tuple(at[k] for at in etas) for k in moving})

    scored = _scored(cfg, [(at, kinds) for at in scens], Hypothesis.H1, trials, seed, workers)
    return _exceedance_curves(kinds, thresholds, grid, trials, scored), thresholds


def _trace_block(context, block: _Block) -> np.ndarray:
    """Per-iteration sums of |log-likelihood change| over the block's trials."""
    algorithm, scen, seed, cfg = context
    x, _ = gen_block(scen, Hypothesis.H1, seed, block.start, block.count)
    if algorithm is AlgorithmTag.ALG1:
        _, _, trace, _ = cyclic_ml_batch(x, ml_init(_sq_norm(x), cfg), cfg.c0, cfg.n_co1, 0.0)
    else:
        z = directions(x)[0]
        m0, s20 = em_init(x, z, cfg)
        if algorithm is AlgorithmTag.EM_M:
            _, trace, _ = em_mean_batch(z, m0, s20, cfg.n_em_m, 0.0)
        elif algorithm is AlgorithmTag.EM_SIGMA:
            _, trace, _ = em_sigma_batch(z, m0, s20, cfg.c0, cfg.n_em_sigma, 0.0)
        else:
            _, _, trace, _ = cyclic_em_batch(
                z, m0, s20, cfg.c0, cfg.n_co2, cfg.n_em_m, cfg.n_em_sigma, 0.0, 0.0, 0.0
            )
    return np.sum(np.abs(np.diff(trace, axis=1)), axis=0)


def convergence_trace(
    algorithm: AlgorithmTag,
    scen: ScenarioConfig,
    trials: int,
    seed: int,
    cfg: EstimationConfig | None = None,
) -> list:
    """Mean absolute log-likelihood change per iteration, averaged over trials.

    Every trial is drawn under the target hypothesis at `scen.snr_db`.
    Stopping tolerances are disabled so every trial runs to the configured
    iteration cap; the trace is then well defined at every index.  The
    cyclic-ML trace starts at iteration 2 (the first iteration has no
    predecessor), the EM traces at iteration 1 against their initialization.
    The blocks' sums are added in block order, so the trace's bits depend on
    `BLOCK_SIZE`, not on anything else about the run.
    """
    if not isinstance(algorithm, AlgorithmTag):
        raise ValueError("algorithm must be an AlgorithmTag")
    context = (algorithm, scen, seed, cfg if cfg is not None else EstimationConfig())
    sums = None
    for block_sum in _block_results(_trace_block, context, _trial_blocks(trials), 1):
        sums = block_sum if sums is None else sums + block_sum
    first = 2 if algorithm is AlgorithmTag.ALG1 else 1
    return [(first + j, float(s / trials)) for j, s in enumerate(sums)]


def write_curves_csv(path, curves: dict) -> None:
    """Write {kind: [CurvePoint, ...]} as long-format CSV.

    Float fields use shortest round-trip formatting, so equal results give
    byte-identical files.
    """
    lines = ["detector,abscissa,estimate,ci_low,ci_high,trials"]
    for kind, points in curves.items():
        for pt in points:
            lines.append(
                f"{kind.value},{float(pt.abscissa)!r},{float(pt.estimate)!r},"
                f"{float(pt.ci_low)!r},{float(pt.ci_high)!r},{pt.trials}"
            )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace_csv(path, algorithm: AlgorithmTag, trace, trials: int) -> None:
    """Write a convergence trace as long-format CSV."""
    lines = ["algorithm,iteration,mean_abs_change,trials"]
    for iteration, change in trace:
        lines.append(f"{algorithm.value},{iteration},{float(change)!r},{trials}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_manifest(path, payload: dict) -> None:
    """Write a reproducibility manifest as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
