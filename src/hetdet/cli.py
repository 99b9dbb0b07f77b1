"""Command-line front end for the detection experiments.

Five subcommands drive the Monte Carlo harness: `calibrate` computes
thresholds, `cfar-sweep` estimates false-alarm rates under mismatched
interference (synthetic grids or recorded data), `pd-curve` sweeps detection
probability over SNR, `convergence` averages estimator likelihood changes,
and `power-trace` exports per-pulse powers of a recorded series.

Options may come from a JSON config file (`--config`) whose keys are the
subcommand's flag names with underscores; explicit flags override file
values, and any other key is rejected.  Progress goes to standard error;
standard output carries only the paths of written artifacts.
Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .detectors import DetectorKind
from .estimation import EstimationConfig
from .montecarlo import (
    AlgorithmTag,
    CalibratedThreshold,
    calibrate_thresholds,
    convergence_trace,
    exceedance_curves,
    pd_curves,
    pfa_sweep,
    statistics_for_bursts,
    write_curves_csv,
    write_manifest,
    write_trace_csv,
)
from .scenario import ScenarioConfig, _check_offset, ingest_recorded, pulse_powers, sliding_bursts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Invalid flags, config file, or parameter combination."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved description of one CLI run."""

    command: str
    scenario: ScenarioConfig
    estimation: EstimationConfig
    detectors: tuple
    pfa: float
    trials: int
    seed: int
    out: str
    workers: int
    grid: tuple = ()
    grid_kind: str | None = None
    cal_trials: int = 0
    cal_seed: int = 0
    algorithm: AlgorithmTag | None = None
    recorded: str | None = None
    bins: tuple | None = None
    bin_label: int | None = None
    stride: int = 0
    offset: float = 0.0
    offset_mode: str = "literal"
    offset_seed: int | None = None


def _add_shared(sub, scenario=True, detectors=True, calibration=True):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--seed", type=int, help="base seed (default 0)")
    sub.add_argument("--trials", type=int, help="Monte Carlo trials (default 10000)")
    sub.add_argument("--out", help="output artifact path")
    if scenario:
        sub.add_argument("--k", type=int, help="pulses per burst (default 16)")
        sub.add_argument("--delta", type=float, help="uniform heterogeneity level")
        sub.add_argument("--texture-shape", type=float, help="compound-Gaussian Gamma shape")
        sub.add_argument("--sigma-n2", type=float, help="thermal noise power (default 1)")
        sub.add_argument("--c0", type=float, help="variance floor (default: sigma_n2)")
        sub.add_argument("--target-phase", type=float, help="target signature phase (default 0)")
        sub.add_argument(
            "--paper-init",
            action="store_const",
            const=True,
            help="use the magnitude-dependent EM initialization instead of the scale-free one",
        )
    if detectors:
        # The commands that score detectors are the ones that open a process pool.
        sub.add_argument("--workers", type=int, help="worker processes (default: available CPUs)")
        sub.add_argument("--detectors", help="comma list of detector tags (default: all)")
        sub.add_argument("--pfa", type=float, help="nominal false-alarm rate (default 0.01)")
    if calibration:
        sub.add_argument("--cal-trials", type=int, help="calibration trials (default ceil(100/pfa))")
        sub.add_argument("--cal-seed", type=int, help="calibration seed (default seed + 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetdet",
        description="Monte Carlo experiments for adaptive detection in heterogeneous interference",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    cal = subs.add_parser("calibrate", help="compute detection thresholds under a null scenario")
    _add_shared(cal, calibration=False)
    cal.add_argument("--snr-db", type=float, help="target SNR for the clairvoyant statistic")

    sweep = subs.add_parser("cfar-sweep", help="estimate Pfa across mismatched interference")
    _add_shared(sweep)
    sweep.add_argument("--delta-grid", help="comma list of heterogeneity levels")
    sweep.add_argument("--q-grid", help="comma list of Gamma texture shapes")
    sweep.add_argument("--snr-db", type=float, help="target SNR for the clairvoyant statistic")
    sweep.add_argument("--recorded", help="recorded-series CSV to sweep instead of synthetic grids")
    sweep.add_argument("--bins", help="comma list of range-bin labels (default: all bins)")
    sweep.add_argument("--stride", type=int, help="sliding-window stride (default: k)")
    sweep.add_argument("--offset", type=float, help="additive offset for recorded samples")
    sweep.add_argument("--offset-mode", choices=["literal", "noise"], help="offset semantics")
    sweep.add_argument("--offset-seed", type=int, help="seed for the noise offset draw")

    pd = subs.add_parser("pd-curve", help="estimate Pd along an SNR grid")
    _add_shared(pd)
    pd.add_argument("--snr-grid", help="comma list of SNR values in dB (required)")

    conv = subs.add_parser("convergence", help="average estimator likelihood changes per iteration")
    _add_shared(conv, detectors=False, calibration=False)
    conv.add_argument("--algorithm", help="one of: " + ", ".join(t.value for t in AlgorithmTag))
    conv.add_argument("--snr-db", type=float, help="target SNR in dB (default 10)")

    power = subs.add_parser("power-trace", help="export per-pulse powers of a recorded series")
    power.add_argument("--config", help="JSON config file; flags override its values")
    power.add_argument("--recorded", help="recorded-series CSV (required)")
    power.add_argument("--bin", type=int, dest="bin_label", help="single range-bin label (default: all)")
    power.add_argument("--offset", type=float, help="additive offset for recorded samples")
    power.add_argument("--offset-mode", choices=["literal", "noise"], help="offset semantics")
    power.add_argument("--offset-seed", type=int, help="seed for the noise offset draw")
    power.add_argument("--out", help="output artifact path")
    return parser


def _load_config_file(path: str, command: str, allowed: set) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {', '.join(unknown)}")
    return data


class _Resolver:
    """Flag-over-file-over-default merge for one parsed command line."""

    def __init__(self, args, file_cfg):
        self.args = args
        self.file = file_cfg

    def get(self, key, default=None):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        if key in self.file:
            return self.file[key]
        return default

    def number(self, key, default, kind, minimum=None):
        raw = self.get(key, default)
        if raw is None:
            return None
        try:
            value = _coerce(raw, kind)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a {kind.__name__}") from None
        if minimum is not None and value < minimum:
            raise ConfigError(f"{key} must be >= {minimum}")
        return value


def _coerce(raw, kind):
    """kind(raw), refusing JSON values int() would misread: true as 1, 300.7 as 300."""
    if isinstance(raw, bool) or (kind is int and isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(f"not a {kind.__name__}: {raw!r}")
    return kind(raw)


def _parse_list(raw, key, kind) -> tuple:
    if raw is None:
        return ()
    if isinstance(raw, str):
        raw = [part for part in raw.split(",") if part.strip()]
    try:
        return tuple(_coerce(v, kind) for v in raw)
    except (TypeError, ValueError):
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"{key} must be a comma list of {noun}") from None


def _parse_detectors(raw, recorded: bool) -> tuple:
    """The requested detectors; by default every one the data can score."""
    if raw is None:
        tokens = [k.value for k in DetectorKind if not (recorded and k.requires_truth)]
    elif isinstance(raw, str):
        tokens = [part.strip() for part in raw.split(",") if part.strip()]
    else:
        tokens = [str(part) for part in raw]
    if not tokens:
        raise ConfigError("detectors must be non-empty")
    try:
        kinds = tuple(DetectorKind.parse(token) for token in tokens)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if len(set(kinds)) != len(kinds):
        raise ConfigError("duplicate detector tags")
    return kinds


def _check_out_path(out: str):
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"output directory does not exist: {parent}")
    if not os.access(parent, os.W_OK):
        raise ConfigError(f"output directory is not writable: {parent}")


def _build_scenario(res: _Resolver, snr_db: float = 0.0) -> ScenarioConfig:
    delta = res.number("delta", None, float)
    texture = res.number("texture_shape", None, float)
    if delta is None and texture is None:
        delta = 0.0
    try:
        return ScenarioConfig(
            k=res.number("k", 16, int),
            delta=delta,
            texture_shape=texture,
            sigma_n2=res.number("sigma_n2", 1.0, float),
            snr_db=snr_db,
            target_phase=res.number("target_phase", 0.0, float),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _grid_scenario(scen: ScenarioConfig, grid_kind: str, value: float) -> ScenarioConfig:
    """The scenario of one grid point: a heterogeneity level, Gamma shape or SNR."""
    if grid_kind == "delta":
        return replace(scen, delta=value, texture_shape=None)
    if grid_kind == "q":
        return replace(scen, delta=None, texture_shape=value)
    return replace(scen, snr_db=value)


def _parse_grid(res: _Resolver, scen: ScenarioConfig, grid_kind: str) -> tuple:
    """The `<grid_kind>_grid` values, each checked by the scenario it will build.

    A bad value is a configuration error, found before any simulation runs.
    """
    key = f"{grid_kind}_grid"
    grid = _parse_list(res.get(key), key, float)
    if not grid:
        raise ConfigError(f"--{grid_kind}-grid needs at least one value")
    try:
        for value in grid:
            _grid_scenario(scen, grid_kind, value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    return grid


def _offset_fields(res: _Resolver) -> dict:
    """The recorded-sample offset settings, checked before any file is read."""
    offset = res.number("offset", 0.0, float)
    mode = str(res.get("offset_mode", "literal"))
    try:
        _check_offset(offset, mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    seed = res.number("offset_seed", None, int)
    return {"offset": offset, "offset_mode": mode, "offset_seed": seed}


def _build_estimation(res: _Resolver, scen: ScenarioConfig) -> EstimationConfig:
    paper_init = res.get("paper_init", False)
    if not isinstance(paper_init, bool):
        raise ConfigError("paper_init must be a boolean")
    try:
        return EstimationConfig(c0=res.number("c0", scen.sigma_n2, float), paper_init=paper_init)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(argv=None) -> RunConfig:
    """Parse flags (and an optional config file) into a resolved RunConfig."""
    args = _build_parser().parse_args(argv)
    command = args.command
    # A config file takes exactly the keys the subcommand has flags for.
    keys = set(vars(args)) - {"command", "config"}
    file_cfg = _load_config_file(args.config, command, keys) if args.config else {}
    res = _Resolver(args, file_cfg)

    out = res.get("out")
    if out is None:
        raise ConfigError("--out is required")
    _check_out_path(out)
    seed = res.number("seed", 0, int)
    trials = res.number("trials", 10000, int, minimum=1)
    workers = 1
    if "workers" in keys:
        workers = res.number("workers", os.cpu_count() or 1, int, minimum=1)
    recorded = res.get("recorded")

    if command == "power-trace":
        if recorded is None:
            raise ConfigError("--recorded is required for power-trace")
        return RunConfig(
            command=command,
            scenario=ScenarioConfig(k=2, delta=0.0),
            estimation=EstimationConfig(),
            detectors=(),
            pfa=0.01,
            trials=trials,
            seed=seed,
            out=out,
            workers=workers,
            bin_label=res.number("bin_label", None, int),
            recorded=str(recorded),
            **_offset_fields(res),
        )

    snr_db = res.number("snr_db", 10.0 if command == "convergence" else 0.0, float)
    scen = _build_scenario(res, snr_db=snr_db)
    est = _build_estimation(res, scen)
    pfa = res.number("pfa", 0.01, float)
    if not 0.0 < pfa < 1.0:
        raise ConfigError("pfa must lie in (0, 1)")
    detectors = ()
    if "detectors" in keys:
        detectors = _parse_detectors(res.get("detectors"), recorded is not None)
    floor = int(np.ceil(100.0 / pfa))
    cal_trials = res.number("cal_trials", floor, int, minimum=1)
    cal_seed = res.number("cal_seed", seed + 1, int)
    if command in ("cfar-sweep", "pd-curve") and cal_trials < floor:
        raise ConfigError(f"cal_trials must be at least ceil(100 / pfa) = {floor}")
    if command == "calibrate" and trials < floor:
        raise ConfigError(f"trials must be at least ceil(100 / pfa) = {floor}")

    base = RunConfig(
        command=command, scenario=scen, estimation=est, detectors=detectors,
        pfa=pfa, trials=trials, seed=seed, out=out, workers=workers,
    )
    if command == "calibrate":
        return base

    if command == "cfar-sweep":
        if scen.delta not in (None, 0.0) or scen.texture_shape is not None:
            raise ConfigError("cfar-sweep takes its interference models from the grids")
        delta_grid = res.get("delta_grid")
        q_grid = res.get("q_grid")
        if recorded is not None:
            if delta_grid is not None or q_grid is not None:
                raise ConfigError("recorded mode does not take synthetic grids")
            bad = [k.value for k in detectors if k.requires_truth]
            if bad:
                raise ConfigError(f"recorded data carries no ground truth for: {', '.join(bad)}")
            bins = _parse_list(res.get("bins"), "bins", int)
            if len(set(bins)) != len(bins):
                raise ConfigError("duplicate range bins")
            return replace(
                base,
                cal_trials=cal_trials, cal_seed=cal_seed,
                recorded=str(recorded),
                bins=bins or None,
                stride=res.number("stride", scen.k, int, minimum=1),
                **_offset_fields(res),
            )
        if (delta_grid is None) == (q_grid is None):
            raise ConfigError("exactly one of --delta-grid and --q-grid is required")
        grid_kind = "delta" if delta_grid is not None else "q"
        return replace(
            base, grid=_parse_grid(res, scen, grid_kind), grid_kind=grid_kind,
            cal_trials=cal_trials, cal_seed=cal_seed,
        )

    if command == "pd-curve":
        return replace(
            base, grid=_parse_grid(res, scen, "snr"), grid_kind="snr",
            cal_trials=cal_trials, cal_seed=cal_seed,
        )

    try:
        algorithm = AlgorithmTag.parse(str(res.get("algorithm", "alg1")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return replace(base, algorithm=algorithm)


def _finish(out: str, payload: dict) -> int:
    """Write the manifest beside the artifact `out`, then print both paths."""
    stem, ext = os.path.splitext(out)
    manifest = (stem if ext == ".csv" else out) + ".manifest.json"
    write_manifest(manifest, payload)
    _emit(out)
    _emit(manifest)
    return EXIT_OK


def _mean_interference_power(scen: ScenarioConfig) -> float:
    if scen.delta is not None:
        return scen.sigma_n2 + scen.delta / 2.0
    return scen.sigma_n2


def _base_manifest(config: RunConfig, wall_s: float) -> dict:
    return {
        "command": config.command,
        "version": __version__,
        "scenario": config.scenario,
        "estimation": config.estimation,
        "detectors": list(config.detectors),
        "pfa": config.pfa,
        "trials": config.trials,
        "seed": config.seed,
        "workers": config.workers,
        "mean_interference_power": _mean_interference_power(config.scenario),
        "wall_time_s": wall_s,
    }


def _threshold_etas(thresholds: dict) -> dict:
    out = {}
    for kind, th in thresholds.items():
        if isinstance(th, CalibratedThreshold):
            out[kind.value] = th.eta
        else:
            out[kind.value] = [t.eta for t in th]
    return out


def _emit(path: str):
    print(path)


def _progress(message: str):
    print(message, file=sys.stderr)


def _run_calibrate(config: RunConfig) -> int:
    started = time.monotonic()
    _progress(
        f"calibrating {len(config.detectors)} detector(s): "
        f"{config.trials} null trials at pfa {config.pfa}"
    )
    thresholds = calibrate_thresholds(
        config.detectors, config.estimation, config.scenario,
        config.pfa, config.trials, config.seed, config.workers,
    )
    payload = _base_manifest(config, time.monotonic() - started)
    payload["thresholds"] = {k.value: thresholds[k] for k in config.detectors}
    write_manifest(config.out, payload)
    _emit(config.out)
    return EXIT_OK


def _run_cfar_sweep(config: RunConfig) -> int:
    started = time.monotonic()
    white = replace(config.scenario, delta=0.0, texture_shape=None)

    def calibrate():
        _progress(f"calibrating under white noise: {config.cal_trials} trials")
        return calibrate_thresholds(
            config.detectors, config.estimation, white,
            config.pfa, config.cal_trials, config.cal_seed, config.workers,
        )

    if config.recorded is not None:
        # Read and check the file first: a bad input should not cost a calibration.
        series = ingest_recorded(
            config.recorded, config.offset, config.offset_mode, config.offset_seed
        )
        bins = config.bins if config.bins is not None else tuple(series.bin_labels.tolist())
        missing = [b for b in bins if b not in series.bin_labels]
        if missing:
            raise ValueError(f"unknown range bin {missing[0]}")
        if config.scenario.k > series.n_pulses:
            raise ValueError(
                f"burst length {config.scenario.k} exceeds the {series.n_pulses} recorded pulses"
            )
        thresholds = calibrate()
        window_counts = {}

        def bin_statistics():
            for bin_label in bins:
                windows = sliding_bursts(series, bin_label, config.scenario.k, config.stride)
                window_counts[int(bin_label)] = len(windows)
                _progress(f"bin {bin_label}: {len(windows)} sliding bursts")
                stats = statistics_for_bursts(windows, config.detectors, config.estimation)
                yield float(bin_label), stats

        curves = exceedance_curves(config.detectors, thresholds, bin_statistics())
        extra = {
            "recorded": config.recorded,
            "bins": [int(b) for b in bins],
            "stride": config.stride,
            "offset": config.offset,
            "offset_mode": config.offset_mode,
            "offset_seed": config.offset_seed,
            "windows_per_bin": window_counts,
        }
    else:
        thresholds = calibrate()
        scens = [_grid_scenario(white, config.grid_kind, value) for value in config.grid]
        _progress(
            f"estimating pfa on {len(scens)} {config.grid_kind} points, "
            f"{config.trials} trials each"
        )
        curves = pfa_sweep(
            config.detectors, config.estimation, thresholds, scens,
            config.trials, config.seed, config.workers,
        )
        extra = {"grid_kind": config.grid_kind, "grid": list(config.grid)}
    write_curves_csv(config.out, curves)
    payload = _base_manifest(config, time.monotonic() - started)
    payload.update(extra)
    payload["cal_trials"] = config.cal_trials
    payload["cal_seed"] = config.cal_seed
    payload["calibration_scenario"] = white
    payload["thresholds"] = _threshold_etas(thresholds)
    return _finish(config.out, payload)


def _run_pd_curve(config: RunConfig) -> int:
    started = time.monotonic()
    _progress(
        f"pd-curve over {len(config.grid)} SNR points: {config.trials} trials each, "
        f"calibration {config.cal_trials} trials"
    )
    curves, thresholds = pd_curves(
        config.detectors, config.estimation, config.scenario, snr_grid=config.grid,
        nominal_pfa=config.pfa, cal_trials=config.cal_trials, trials=config.trials,
        seed=config.seed, cal_seed=config.cal_seed, workers=config.workers,
    )
    write_curves_csv(config.out, curves)
    payload = _base_manifest(config, time.monotonic() - started)
    payload["grid_kind"] = "snr"
    payload["grid"] = list(config.grid)
    payload["cal_trials"] = config.cal_trials
    payload["cal_seed"] = config.cal_seed
    payload["thresholds"] = _threshold_etas(thresholds)
    return _finish(config.out, payload)


def _run_convergence(config: RunConfig) -> int:
    started = time.monotonic()
    _progress(
        f"tracing {config.algorithm.value} at snr {config.scenario.snr_db} dB "
        f"over {config.trials} trials"
    )
    trace = convergence_trace(
        config.algorithm, config.scenario, config.trials, config.seed, config.estimation,
    )
    write_trace_csv(config.out, config.algorithm, trace, config.trials)
    payload = _base_manifest(config, time.monotonic() - started)
    payload["algorithm"] = config.algorithm
    return _finish(config.out, payload)


def _run_power_trace(config: RunConfig) -> int:
    started = time.monotonic()
    series = ingest_recorded(
        config.recorded, config.offset, config.offset_mode, config.offset_seed
    )
    single = config.bin_label is not None
    bins = [config.bin_label] if single else [int(b) for b in series.bin_labels]
    lines = ["pulse_index,power" if single else "bin_index,pulse_index,power"]
    for bin_label in bins:
        prefix = "" if single else f"{bin_label},"
        for pulse, value in enumerate(pulse_powers(series, bin_label)):
            lines.append(f"{prefix}{pulse},{float(value)!r}")
    with open(config.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    payload = {
        "command": config.command,
        "version": __version__,
        "recorded": config.recorded,
        "bins": bins,
        "n_pulses": series.n_pulses,
        "offset": config.offset,
        "offset_mode": config.offset_mode,
        "offset_seed": config.offset_seed,
        "wall_time_s": time.monotonic() - started,
    }
    return _finish(config.out, payload)


_RUNNERS = {
    "calibrate": _run_calibrate,
    "cfar-sweep": _run_cfar_sweep,
    "pd-curve": _run_pd_curve,
    "convergence": _run_convergence,
    "power-trace": _run_power_trace,
}


def run(config: RunConfig) -> int:
    """Execute a resolved run; raises on failure."""
    return _RUNNERS[config.command](config)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
