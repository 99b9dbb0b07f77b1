"""Monte Carlo harness: threshold calibration, Pfa/Pd estimation, traces.

Trials are simulated in fixed 512-trial blocks, each drawing its bursts from
per-trial streams keyed by (seed, trial index).  Aggregation concatenates
blocks in index order, so results are bit-identical for any worker count and
any scheduling; the sequential path runs the very same block function.

A run over several (scenario, detectors) points simulates each trial once:
one block function scores a trial range at every point, drawing once per
distinct draw law (a delta or SNR grid shares one set of draws, a Gamma-shape
grid draws per point), and every block of a sweep or a calibration goes
through one process pool.  A `pd_curves` calibration is one such run: its
fixed detectors at the matched scenario and each truth-reading detector at
every SNR.  Curves keep per-point exceedance counts as blocks arrive, never a
point's statistics.

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


def _sample_block(args):
    """[{kind: statistics}] per (scenario, kinds) point for trials start..start+count-1."""
    cfg, points, hypothesis, seed, start, count = args
    draws = {}
    results = []
    for scen, kinds in points:
        law = _draw_law(scen)
        if law not in draws:
            draws[law] = _draw_block(scen, seed, start, count)
        x, sigma2 = _bursts(scen, hypothesis, *draws[law])
        try:
            stats = statistics_batch(x, kinds, cfg, true_mean=scen.target_mean, true_sigma2=sigma2)
        except (NonFiniteStatistic, ZeroNormSample) as exc:
            # The burst index is relative to the block; name the trial too.
            raise ValueError(f"{exc} (trial {start + exc.burst})") from None
        results.append(stats)
    return results


def _block_results(cfg, points, hypothesis, trials: int, seed: int, workers: int):
    """Yield each block's `_sample_block` result over (scenario, kinds) points, in trial order.

    Every block goes through one pool.  If a pool worker dies, raises
    ValueError naming the first trial of the first block whose result never
    came.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if trials > MAX_TRIALS:
        raise ValueError("trials must be at most MAX_TRIALS = 2**40")
    if workers < 1:
        raise ValueError("workers must be positive")
    points = tuple((scen, tuple(kinds)) for scen, kinds in points)
    starts = range(0, trials, BLOCK_SIZE)
    blocks = [(cfg, points, hypothesis, seed, start, min(BLOCK_SIZE, trials - start)) for start in starts]
    if workers == 1 or len(blocks) == 1:
        for block in blocks:
            yield _sample_block(block)
        return
    # The pool forks all of its workers at the first submit, used or not.
    done = 0
    with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
        try:
            for result in pool.map(_sample_block, blocks):
                yield result
                done += 1
        except BrokenProcessPool:
            start = starts[done]
            raise ValueError(f"a worker process died; the block at trial {start} never finished") from None


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
    blocks = list(_block_results(cfg, [(scen, kinds)], hypothesis, trials, seed, workers))
    return {kind: np.concatenate([b[0][kind] for b in blocks]) for kind in kinds}


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
    for block in _block_results(cfg, points, Hypothesis.H0, trials, seed, workers):
        for point_tails, stats in zip(tails, block):
            for kind, tail in point_tails.items():
                tail.add(stats[kind])
    return [{kind: tail.eta() for kind, tail in point_tails.items()} for point_tails in tails]


def _h0_abscissa(scen: ScenarioConfig) -> float:
    return float(scen.delta if scen.delta is not None else scen.texture_shape)


def _exceeding(stats: np.ndarray, threshold, i: int) -> int:
    """How many statistics strictly exceed the threshold at point i (one eta, or one per point).

    A tie is no detection.
    """
    eta = threshold if np.ndim(threshold) == 0 else threshold[i]
    return int(np.count_nonzero(stats > eta))


def _exceedance_curves(kinds, cfg, thresholds: dict, points, hypothesis, trials, seed, workers) -> dict:
    """Exceedance-rate curves over (abscissa, scenario) points.

    Every detector sees the same simulated bursts at each point, and every
    point the same trials: the trials are simulated once, through one pool,
    and points whose scenarios share a draw law share the draws.  Each
    block's statistics are reduced to exceedance counts as the block
    arrives, so only the counts are kept.
    """
    counts = {kind: [0] * len(points) for kind in kinds}
    scored = [(scen, kinds) for _, scen in points]
    for block in _block_results(cfg, scored, hypothesis, trials, seed, workers):
        for i, stats in enumerate(block):
            for kind in kinds:
                counts[kind][i] += _exceeding(stats[kind], thresholds[kind], i)
    return {
        kind: [curve_point(abscissa, counts[kind][i], trials) for i, (abscissa, _) in enumerate(points)]
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
    points = [(_h0_abscissa(scen), scen) for scen in scens]
    return _exceedance_curves(kinds, cfg, thresholds, points, Hypothesis.H0, trials, seed, workers)


def _snr_points(scen: ScenarioConfig, snr_grid) -> list:
    """(SNR, scenario) per grid value; ScenarioConfig rejects NaN and +inf."""
    points = [(float(snr), replace(scen, snr_db=float(snr))) for snr in snr_grid]
    if not points:
        raise ValueError("grid must be non-empty")
    return points


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
    points = _snr_points(scen, snr_grid)
    # The truth's mean moves with SNR, so a detector that reads it gets one eta
    # per SNR.  One pass over the null trials calibrates every point.
    moving = [k for k in kinds if k.requires_truth]
    fixed = [k for k in kinds if k not in moving]
    cal_points = [(scen, fixed)] if fixed else []
    if moving:
        cal_points += [(at, moving) for _, at in points]
    etas = _calibrate(cfg, cal_points, nominal_pfa, cal_trials, cal_seed, workers)
    thresholds = etas.pop(0) if fixed else {}
    thresholds.update({k: tuple(at[k] for at in etas) for k in moving})

    curves = _exceedance_curves(kinds, cfg, thresholds, points, Hypothesis.H1, trials, seed, workers)
    return curves, thresholds


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
    """
    if not isinstance(algorithm, AlgorithmTag):
        raise ValueError("algorithm must be an AlgorithmTag")
    if trials < 1:
        raise ValueError("trials must be positive")
    if trials > MAX_TRIALS:
        raise ValueError("trials must be at most MAX_TRIALS = 2**40")
    if cfg is None:
        cfg = EstimationConfig()
    sums = None
    for start in range(0, trials, BLOCK_SIZE):
        count = min(BLOCK_SIZE, trials - start)
        x, _ = gen_block(scen, Hypothesis.H1, seed, start, count)
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
        changes = np.abs(np.diff(trace, axis=1))
        block_sum = np.sum(changes, axis=0)
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
