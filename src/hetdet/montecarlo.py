"""Monte Carlo harness: threshold calibration, Pfa/Pd estimation, traces.

Trials are simulated in fixed 512-trial blocks, each drawing its bursts from
per-trial streams keyed by (seed, trial index).  Aggregation concatenates
blocks in index order, so results are bit-identical for any worker count and
any scheduling; the sequential path runs the very same block function.

Thresholds are upper order statistics of the simulated null distribution
(rank ceil((1 - pfa) * trials), ascending), tested with strict exceedance.
Confidence intervals are Wilson score at 95%.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from .detectors import DetectorKind, NonFiniteStatistic, statistics_batch
from .estimation import (
    EstimationConfig,
    cyclic_em_batch,
    cyclic_ml_batch,
    em_init,
    em_mean_batch,
    em_sigma_batch,
    ml_init,
)
from .scenario import Hypothesis, ScenarioConfig, directions, gen_block

BLOCK_SIZE = 512
_WILSON_Z = 1.96

__all__ = [
    "AlgorithmTag",
    "BLOCK_SIZE",
    "CalibratedThreshold",
    "CurvePoint",
    "calibrate_threshold",
    "calibrate_thresholds",
    "convergence_trace",
    "curve_point",
    "estimate_pfa",
    "exceedance_curves",
    "pd_curve",
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
class CalibratedThreshold:
    """A threshold with the provenance needed to reproduce it."""

    detector: DetectorKind
    eta: float
    nominal_pfa: float
    trials: int
    seed: int
    calibration_scenario: ScenarioConfig

    def __post_init__(self):
        if not isinstance(self.detector, DetectorKind):
            raise ValueError("detector must be a DetectorKind")
        if not np.isfinite(self.eta):
            raise ValueError("eta must be finite")
        if not (0.0 < self.nominal_pfa < 1.0):
            raise ValueError("nominal_pfa must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be positive")


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
    kinds, cfg, scen, hypothesis, seed, start, count = args
    x, sigma2 = gen_block(scen, hypothesis, seed, start, count)
    try:
        return statistics_batch(x, kinds, cfg, true_mean=scen.target_mean, true_sigma2=sigma2)
    except NonFiniteStatistic as exc:
        # The burst index is relative to the block; name the trial too.
        raise ValueError(f"{exc} (trial {start + exc.burst})") from None


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
    if trials < 1:
        raise ValueError("trials must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    if not isinstance(hypothesis, Hypothesis):
        raise ValueError("hypothesis must be a Hypothesis value")
    starts = list(range(0, trials, BLOCK_SIZE))
    blocks = [
        (tuple(kinds), cfg, scen, hypothesis, seed, start, min(BLOCK_SIZE, trials - start))
        for start in starts
    ]
    if workers == 1 or len(blocks) == 1:
        results = [_sample_block(b) for b in blocks]
    else:
        # The pool forks all of its workers at the first submit, used or not.
        results = []
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            try:
                for result in pool.map(_sample_block, blocks):
                    results.append(result)
            except BrokenProcessPool:
                start = starts[len(results)]
                raise ValueError(f"a worker process died; the block at trial {start} never finished") from None
    return {kind: np.concatenate([r[kind] for r in results]) for kind in kinds}


def statistics_for_bursts(bursts, kinds, cfg: EstimationConfig | None = None) -> dict:
    """Requested statistics over stacked equal-length bursts, shape (W, K, 2).

    This is the input `sliding_bursts` returns; ragged input is rejected.
    """
    x = np.asarray(bursts, dtype=float)
    if x.size == 0:
        raise ValueError("at least one burst is required")
    return statistics_batch(x, kinds, cfg)


def _rank_threshold(stats: np.ndarray, nominal_pfa: float) -> float:
    rank = int(np.ceil((1.0 - nominal_pfa) * stats.size))
    return float(np.sort(stats)[rank - 1])


def _check_calibration_size(trials: int, nominal_pfa: float):
    if not (0.0 < nominal_pfa < 1.0):
        raise ValueError("nominal_pfa must lie in (0, 1)")
    floor = int(np.ceil(100.0 / nominal_pfa))
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
    """Calibrate each requested detector from one shared null simulation."""
    kinds = list(kinds)
    _check_calibration_size(trials, nominal_pfa)
    stats = sample_statistics(kinds, cfg, scen, Hypothesis.H0, trials, seed, workers)
    return {
        kind: CalibratedThreshold(
            kind, _rank_threshold(stats[kind], nominal_pfa), nominal_pfa, trials, seed, scen
        )
        for kind in kinds
    }


def calibrate_threshold(
    detector: DetectorKind,
    cfg: EstimationConfig | None,
    scen: ScenarioConfig,
    nominal_pfa: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> CalibratedThreshold:
    """Set a detector's threshold to the empirical null quantile."""
    return calibrate_thresholds([detector], cfg, scen, nominal_pfa, trials, seed, workers)[detector]


def _h0_abscissa(scen: ScenarioConfig) -> float:
    return float(scen.delta if scen.delta is not None else scen.texture_shape)


def exceedance_curves(kinds, thresholds: dict, samples) -> dict:
    """Exceedance-rate curves from (abscissa, {kind: statistics}) samples.

    `samples` may be a generator, so only one point's statistics need be
    held at a time.  A threshold is one CalibratedThreshold, or a sequence
    holding one per point.  Returns {kind: [CurvePoint, ...]}.
    """
    curves = {kind: [] for kind in kinds}
    for i, (abscissa, stats) in enumerate(samples):
        for kind in kinds:
            th = thresholds[kind]
            eta = th.eta if isinstance(th, CalibratedThreshold) else th[i].eta
            exceed = int(np.count_nonzero(stats[kind] > eta))
            curves[kind].append(curve_point(abscissa, exceed, stats[kind].size))
    return curves


def _exceedance_curves(kinds, cfg, thresholds: dict, points, hypothesis, trials, seed, workers) -> dict:
    """Exceedance-rate curves over (abscissa, scenario) points.

    Every detector sees the same simulated bursts at each point.
    """
    samples = (
        (abscissa, sample_statistics(kinds, cfg, scen, hypothesis, trials, seed, workers))
        for abscissa, scen in points
    )
    return exceedance_curves(kinds, thresholds, samples)


def estimate_pfa(
    detector: DetectorKind,
    cfg: EstimationConfig | None,
    scen_mismatched: ScenarioConfig,
    threshold: CalibratedThreshold,
    trials: int,
    seed: int,
    workers: int = 1,
) -> CurvePoint:
    """Estimated false-alarm rate of a calibrated detector at one scenario."""
    if threshold.detector is not detector:
        raise ValueError("threshold was calibrated for a different detector")
    curves = pfa_sweep([detector], cfg, {detector: threshold}, [scen_mismatched], trials, seed, workers)
    return curves[detector][0]


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

    One shared simulation per scenario; returns {kind: [CurvePoint, ...]}.
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


def pd_curve(
    detector: DetectorKind,
    cfg: EstimationConfig | None,
    scen: ScenarioConfig,
    threshold: CalibratedThreshold,
    snr_grid,
    trials: int,
    seed: int,
    workers: int = 1,
) -> list:
    """Detection probability along an SNR grid, one fixed threshold.

    The clairvoyant detector's null distribution moves with the target
    signature, so it needs a per-SNR threshold; use `pd_curves` for it.
    """
    if detector is DetectorKind.CD:
        raise ValueError("cd needs per-SNR thresholds; use pd_curves")
    if threshold.detector is not detector:
        raise ValueError("threshold was calibrated for a different detector")
    curves = _exceedance_curves(
        [detector], cfg, {detector: threshold}, _snr_points(scen, snr_grid),
        Hypothesis.H1, trials, seed, workers,
    )
    return curves[detector]


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
    cal_seed: int | None = None,
    cal_scenario: ScenarioConfig | None = None,
    workers: int = 1,
):
    """Pd-versus-SNR curves for several detectors with shared simulations.

    Thresholds are calibrated under the null of `cal_scenario` (the matched
    scenario by default) from a stream separate from the detection trials.
    At each SNR every requested statistic sees the same bursts, so
    comparisons across detectors and along the grid are paired.  Returns
    (curves, thresholds): {kind: [CurvePoint, ...]} and {kind:
    CalibratedThreshold} (a tuple of them, one per SNR, for the clairvoyant
    detector).
    """
    kinds = list(kinds)
    if len(set(kinds)) != len(kinds) or not kinds:
        raise ValueError("kinds must be non-empty and unique")
    points = _snr_points(scen, snr_grid)
    _check_calibration_size(cal_trials, nominal_pfa)
    if cal_seed is None:
        cal_seed = seed + 1
    if cal_scenario is None:
        cal_scenario = scen

    thresholds = {}
    fixed = [k for k in kinds if k is not DetectorKind.CD]
    if fixed:
        thresholds.update(
            calibrate_thresholds(fixed, cfg, cal_scenario, nominal_pfa, cal_trials, cal_seed, workers)
        )
    if DetectorKind.CD in kinds:
        thresholds[DetectorKind.CD] = tuple(
            calibrate_thresholds(
                [DetectorKind.CD], cfg, replace(cal_scenario, snr_db=snr),
                nominal_pfa, cal_trials, cal_seed, workers,
            )[DetectorKind.CD]
            for snr, _ in points
        )

    curves = _exceedance_curves(kinds, cfg, thresholds, points, Hypothesis.H1, trials, seed, workers)
    return curves, thresholds


def convergence_trace(
    algorithm: AlgorithmTag,
    scen: ScenarioConfig,
    snr_db: float,
    trials: int,
    seed: int,
    cfg: EstimationConfig | None = None,
) -> list:
    """Mean absolute log-likelihood change per iteration, averaged over trials.

    Stopping tolerances are disabled so every trial runs to the configured
    iteration cap; the trace is then well defined at every index.  The
    cyclic-ML trace starts at iteration 2 (the first iteration has no
    predecessor), the EM traces at iteration 1 against their initialization.
    """
    if not isinstance(algorithm, AlgorithmTag):
        raise ValueError("algorithm must be an AlgorithmTag")
    if trials < 1:
        raise ValueError("trials must be positive")
    if cfg is None:
        cfg = EstimationConfig()
    scen = replace(scen, snr_db=float(snr_db))
    sums = None
    for start in range(0, trials, BLOCK_SIZE):
        count = min(BLOCK_SIZE, trials - start)
        x, _ = gen_block(scen, Hypothesis.H1, seed, start, count)
        if algorithm is AlgorithmTag.ALG1:
            _, _, trace, _ = cyclic_ml_batch(x, ml_init(x, cfg), cfg.c0, cfg.n_co1, 0.0)
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
