"""Command-line front end for the detection experiments.

Five subcommands drive the Monte Carlo harness: `calibrate` computes
thresholds, `cfar-sweep` estimates false-alarm rates under mismatched
interference (synthetic grids or recorded data), `pd-curve` sweeps detection
probability over SNR, `convergence` averages estimator likelihood changes,
and `power-trace` exports per-pulse powers of a recorded series.

Options may come from a JSON config file (`--config`) whose keys are the
subcommand's flag names with underscores; explicit flags override file
values, and any other key is rejected.  A run also refuses every setting,
flag or key, that it would not read.  Progress goes to standard error;
standard output carries only the paths of written artifacts.
Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .detectors import DetectorKind
from .estimation import EstimationConfig
from .montecarlo import (
    MAX_TRIALS,
    AlgorithmTag,
    _Block,
    _block_results,
    _calibration_floor,
    _check_calibration_size,
    _exceedance_curves,
    _grid_scenario,
    calibrate_thresholds,
    convergence_trace,
    pd_curves,
    pfa_sweep,
    statistics_for_bursts,
    write_curves_csv,
    write_manifest,
    write_trace_csv,
)
from .scenario import ScenarioConfig, _check_offset, _window_count, ingest_recorded, pulse_powers, sliding_bursts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# Windows a recorded sweep scores per statistics call: large enough to spread
# the per-call cost, and fixed, so a bin's memory does not grow with its pulses.
_WINDOW_BLOCK = 1024


class ConfigError(Exception):
    """Invalid flags, config file, or parameter combination."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved description of one CLI run.

    A command fills only the fields it reads; every other field is None, so
    the manifest, which records every field that is set, lists exactly the
    settings the run used, and `parse_config` refuses a setting it would not.
    """

    command: str
    out: str
    scenario: ScenarioConfig | None = None
    estimation: EstimationConfig | None = None
    detectors: tuple | None = None
    pfa: float | None = None
    trials: int | None = None
    seed: int | None = None
    workers: int | None = None
    grid: tuple | None = None
    grid_kind: str | None = None
    cal_trials: int | None = None
    cal_seed: int | None = None
    algorithm: AlgorithmTag | None = None
    recorded: str | None = None
    bins: tuple | None = None
    bin_label: int | None = None
    stride: int | None = None
    offset: float | None = None
    offset_mode: str | None = None
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
        sub.add_argument("--cal-seed", type=int, help="calibration seed (default: --seed plus one)")


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


# Config-file keys whose value must be text; `detectors` may also be a list of it.
_TEXT_KEYS = ("out", "recorded", "offset_mode", "algorithm", "detectors")


def _merge_config_file(args):
    """Fill each dest whose flag was not given from the `--config` JSON object.

    The file takes exactly the keys the subcommand has flags for.
    """
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(data) - (set(vars(args)) - {"command", "config"}))
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
    for key, value in data.items():
        items = value if key == "detectors" and isinstance(value, list) else [value]
        if key in _TEXT_KEYS and not all(isinstance(v, str) for v in items):
            lists = " or a list of strings" if key == "detectors" else ""
            raise ConfigError(f"{key} must be a string{lists}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def _number(given, key, default, kind, minimum=None, maximum=None):
    """The number `key`, taken out of `given` (else `default`), as a `kind`."""
    raw = given.pop(key, default)
    if raw is None:
        return None
    try:
        value = _coerce(raw, kind)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a {kind.__name__}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{key} must be <= {maximum}")
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
        tokens = list(raw)
    if not tokens:
        raise ConfigError("detectors must be non-empty")
    kinds = tuple(DetectorKind.parse(token) for token in tokens)
    if len(set(kinds)) != len(kinds):
        raise ConfigError("duplicate detector tags")
    return kinds


def _available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_out_path(out: str):
    if os.path.isdir(out):
        raise ConfigError(f"output path is a directory: {out}")
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"output directory does not exist: {parent}")
    if not os.access(parent, os.W_OK):
        raise ConfigError(f"output directory is not writable: {parent}")


def _build_scenario(given, command: str, recorded: bool) -> ScenarioConfig:
    """The burst scenario, from the settings the run reads.

    A `cfar-sweep` takes its interference from its grids or its file, so its
    scenario is white noise; a recorded one reads no target SNR or phase either.
    """
    white = command == "cfar-sweep"
    delta = None if white else _number(given, "delta", None, float)
    texture = None if white else _number(given, "texture_shape", None, float)
    if delta is None and texture is None:
        delta = 0.0
    snr_db = 10.0 if command == "convergence" else 0.0
    return ScenarioConfig(
        k=_number(given, "k", 16, int),
        delta=delta,
        texture_shape=texture,
        sigma_n2=_number(given, "sigma_n2", 1.0, float),
        snr_db=snr_db if recorded else _number(given, "snr_db", snr_db, float),
        target_phase=0.0 if recorded else _number(given, "target_phase", 0.0, float),
    )


def _parse_grid(given, scen: ScenarioConfig, grid_kind: str) -> dict:
    """The `<grid_kind>_grid` fields, each value checked by the scenario it will build.

    A bad value is a configuration error, found before any simulation runs.
    """
    key = f"{grid_kind}_grid"
    grid = _parse_list(given.pop(key, None), key, float)
    if not grid:
        raise ConfigError(f"--{grid_kind}-grid needs at least one value")
    try:
        for value in grid:
            _grid_scenario(scen, grid_kind, value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    return {"grid": grid, "grid_kind": grid_kind}


def _offset_fields(given) -> dict:
    """The recorded-sample offset settings, checked before any file is read."""
    offset = _number(given, "offset", 0.0, float)
    mode = given.pop("offset_mode", "literal")
    draws = mode == "noise" and offset != 0.0  # only a draw reads offset_seed
    seed = _number(given, "offset_seed", None, int, minimum=0) if draws else None
    _check_offset(offset, mode, seed)
    return {"offset": offset, "offset_mode": mode, "offset_seed": seed}


def _build_estimation(given, scen: ScenarioConfig) -> EstimationConfig:
    paper_init = given.pop("paper_init", False)
    if not isinstance(paper_init, bool):
        raise ConfigError("paper_init must be a boolean")
    return EstimationConfig(c0=_number(given, "c0", scen.sigma_n2, float), paper_init=paper_init)


def _calibration_size(given, key: str, pfa: float, default: int) -> int:
    """The trial count `key`, held to montecarlo's calibration floor at `pfa`."""
    trials = _number(given, key, default, int, minimum=1, maximum=MAX_TRIALS)
    try:
        _check_calibration_size(trials, pfa)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    return trials


def parse_config(argv=None) -> RunConfig:
    """Parse flags (and an optional config file) into a resolved RunConfig.

    `_resolve` takes out each setting it reads; one left over is refused.
    """
    args = _build_parser().parse_args(argv)
    if args.config:
        _merge_config_file(args)
    command = mode = args.command
    given = {k: v for k, v in vars(args).items() if v is not None and k not in ("command", "config")}
    if mode == "cfar-sweep":
        mode = "recorded mode" if "recorded" in given else "synthetic mode"
    try:
        config = _resolve(command, given)
    except ValueError as exc:
        # The library's own checks (scenario, estimation, offset, tags) reject
        # a bad value before any simulation: a configuration error.
        raise ConfigError(str(exc)) from None
    if given:
        raise ConfigError(f"{mode} does not take: {', '.join(given)}")
    return config


def _resolve(command: str, given: dict) -> RunConfig:
    """The settings the command reads, each taken out of `given`; the rest stay None."""
    out = given.pop("out", None)
    if out is None:
        raise ConfigError("--out is required")
    for path in dict.fromkeys((out, _manifest_path(command, out))):
        _check_out_path(path)
    recorded = given.pop("recorded", None)

    if command == "power-trace":
        if recorded is None:
            raise ConfigError("--recorded is required for power-trace")
        return RunConfig(
            command, out, recorded=recorded,
            bin_label=_number(given, "bin_label", None, int), **_offset_fields(given),
        )

    # A recorded sweep draws only its calibration: there seed only sets cal_seed's default.
    reads_seed = recorded is None or "cal_seed" not in given
    seed = _number(given, "seed", 0, int, minimum=0) if reads_seed else None
    scen = _build_scenario(given, command, recorded is not None)
    settings = {"scenario": scen, "estimation": _build_estimation(given, scen)}
    if command == "convergence":
        algorithm = AlgorithmTag.parse(given.pop("algorithm", "alg1"))
        return RunConfig(
            command, out, seed=seed, workers=1, algorithm=algorithm,
            trials=_number(given, "trials", 10000, int, minimum=1, maximum=MAX_TRIALS), **settings,
        )

    pfa = _number(given, "pfa", 0.01, float)
    if not 0.0 < pfa < 1.0:
        raise ConfigError("pfa must lie in (0, 1)")
    floor = _calibration_floor(pfa)  # refuses a pfa whose floor overflows
    detectors = _parse_detectors(given.pop("detectors", None), recorded is not None)
    settings.update(
        detectors=detectors, pfa=pfa,
        workers=_number(given, "workers", _available_cpus(), int, minimum=1),
    )
    if command == "calibrate":
        trials = _calibration_size(given, "trials", pfa, 10000)
        return RunConfig(command, out, trials=trials, seed=seed, **settings)

    settings.update(
        cal_trials=_calibration_size(given, "cal_trials", pfa, floor),
        cal_seed=_number(given, "cal_seed", seed + 1 if reads_seed else None, int, minimum=0),
    )
    if recorded is not None:
        bad = [k.value for k in detectors if k.requires_truth]
        if bad:
            raise ConfigError(f"recorded data carries no ground truth for: {', '.join(bad)}")
        bins = _parse_list(given.pop("bins"), "bins", int) if "bins" in given else None
        if bins == ():
            raise ConfigError("--bins needs at least one value")
        if bins and len(set(bins)) != len(bins):
            raise ConfigError("duplicate range bins")
        return RunConfig(
            command, out, recorded=recorded, bins=bins,
            stride=_number(given, "stride", scen.k, int, minimum=1),
            **_offset_fields(given), **settings,
        )
    if command == "cfar-sweep":
        if ("delta_grid" in given) == ("q_grid" in given):
            raise ConfigError("exactly one of --delta-grid and --q-grid is required")
        settings.update(_parse_grid(given, scen, "delta" if "delta_grid" in given else "q"))
    else:
        settings.update(_parse_grid(given, scen, "snr"))
    trials = _number(given, "trials", 10000, int, minimum=1, maximum=MAX_TRIALS)
    return RunConfig(command, out, trials=trials, seed=seed, **settings)


def _manifest(config: RunConfig, started: float, **results) -> dict:
    """A run's manifest: every setting its config holds, then its results and wall time."""
    payload = {"version": __version__}
    for field in fields(config):
        value = getattr(config, field.name)
        if value is not None and field.name != "out":
            payload[field.name] = value
    scen = config.scenario
    if scen is not None:
        # The mean of the uniform model's variances; Gamma textures have unit mean.
        payload["mean_interference_power"] = scen.sigma_n2 + (scen.delta or 0.0) / 2.0
    payload.update(results, wall_time_s=time.monotonic() - started)
    return payload


def _manifest_path(command: str, out: str) -> str:
    """The one rule naming a manifest: beside the artifact `out`, or `out` itself for calibrate."""
    stem, ext = os.path.splitext(out)
    beside = (stem if ext == ".csv" else out) + ".manifest.json"
    return out if command == "calibrate" else beside


def _progress(message: str):
    print(message, file=sys.stderr)


def _check_bins(config: RunConfig, series, bins):
    """Check the recorded bins before calibrating: a bad input should not cost one.

    Each bin must exist and hold a burst.  For a detector that reads
    directions, no window may hold a zero sample: the zero test of
    `scenario.directions`, here naming the bin and the pulse.
    """
    k, stride = config.scenario.k, config.stride
    if k > series.n_pulses:
        raise ValueError(f"burst length {k} exceeds the {series.n_pulses} recorded pulses")
    directions = any(kind.reads_directions for kind in config.detectors)
    for bin_label in bins:
        row = series.row(bin_label)
        zero = row.real * row.real + row.imag * row.imag == 0.0
        if directions and zero.any():
            hits = np.argwhere(np.lib.stride_tricks.sliding_window_view(zero, k)[::stride])
            if hits.size:
                window, offset = hits[0]
                raise ValueError(
                    f"bin {bin_label}, pulse {window * stride + offset}: "
                    "cannot normalize a zero-norm sample"
                )


def _window_block(context, block: _Block) -> dict:
    """{kind: statistics} of the block's sliding windows."""
    config, series = context
    windows = sliding_bursts(series, block.bin, config.scenario.k, config.stride, block.start, block.count)
    return statistics_for_bursts(windows, config.detectors, config.estimation)


def _recorded_curves(config: RunConfig, series, bins, n_windows: int, thresholds: dict) -> dict:
    """{kind: [CurvePoint per bin]}: the Pfa of each bin's `n_windows` sliding windows.

    The windows are cut and scored `_WINDOW_BLOCK` at a time, through
    `config.workers` processes, and counted as each block arrives, so
    nothing held grows with a bin's pulse count.
    """
    starts = range(0, n_windows, _WINDOW_BLOCK)
    blocks = [_Block(start, min(_WINDOW_BLOCK, n_windows - start), b) for b in bins for start in starts]
    _progress(f"scoring {len(bins)} bin(s): {n_windows} sliding bursts each")
    results = _block_results(_window_block, (config, series), blocks, config.workers)
    scored = zip((i for i in range(len(bins)) for _ in starts), results)  # blocks run bin by bin
    return _exceedance_curves(config.detectors, thresholds, [float(b) for b in bins], n_windows, scored)


def _run_calibrate(config: RunConfig) -> dict:
    _progress(
        f"calibrating {len(config.detectors)} detector(s): "
        f"{config.trials} null trials at pfa {config.pfa}"
    )
    thresholds = calibrate_thresholds(
        config.detectors, config.estimation, config.scenario,
        config.pfa, config.trials, config.seed, config.workers,
    )
    return {"thresholds": thresholds}


def _run_cfar_sweep(config: RunConfig) -> dict:
    def calibrate():
        # The sweep's own scenario is white noise: it reads no delta or texture shape.
        _progress(f"calibrating under white noise: {config.cal_trials} trials")
        return calibrate_thresholds(
            config.detectors, config.estimation, config.scenario,
            config.pfa, config.cal_trials, config.cal_seed, config.workers,
        )

    results = {}
    if config.recorded is not None:
        series = ingest_recorded(
            config.recorded, config.offset, config.offset_mode, config.offset_seed
        )
        bins = config.bins if config.bins is not None else tuple(series.bin_labels.tolist())
        _check_bins(config, series, bins)
        thresholds = calibrate()
        n_windows = _window_count(series.n_pulses, config.scenario.k, config.stride)
        results = {"bins": [int(b) for b in bins], "windows_per_bin": {int(b): n_windows for b in bins}}
        curves = _recorded_curves(config, series, bins, n_windows, thresholds)
    else:
        thresholds = calibrate()
        scens = [_grid_scenario(config.scenario, config.grid_kind, value) for value in config.grid]
        _progress(
            f"estimating pfa on {len(scens)} {config.grid_kind} points, "
            f"{config.trials} trials each"
        )
        curves = pfa_sweep(
            config.detectors, config.estimation, thresholds, scens,
            config.trials, config.seed, config.workers,
        )
    write_curves_csv(config.out, curves)
    return {"thresholds": thresholds, **results}


def _run_pd_curve(config: RunConfig) -> dict:
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
    return {"thresholds": thresholds}


def _run_convergence(config: RunConfig) -> dict:
    _progress(
        f"tracing {config.algorithm.value} at snr {config.scenario.snr_db} dB "
        f"over {config.trials} trials"
    )
    trace = convergence_trace(
        config.algorithm, config.scenario, config.trials, config.seed, config.estimation,
    )
    write_trace_csv(config.out, config.algorithm, trace, config.trials)
    return {}


def _run_power_trace(config: RunConfig) -> dict:
    series = ingest_recorded(
        config.recorded, config.offset, config.offset_mode, config.offset_seed
    )
    single = config.bin_label is not None
    bins = [config.bin_label] if single else [int(b) for b in series.bin_labels]
    if single:
        series.row(config.bin_label)  # an unknown bin fails before the artifact is opened
    with open(config.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("pulse_index,power\n" if single else "bin_index,pulse_index,power\n")
        # Each bin's lines are written as they are formatted, one bin at a time.
        for bin_label in bins:
            prefix = "" if single else f"{bin_label},"
            powers = pulse_powers(series, bin_label).tolist()
            fh.write("".join(f"{prefix}{pulse},{value!r}\n" for pulse, value in enumerate(powers)))
    return {"bins": bins, "n_pulses": series.n_pulses}


_RUNNERS = {
    "calibrate": _run_calibrate,
    "cfar-sweep": _run_cfar_sweep,
    "pd-curve": _run_pd_curve,
    "convergence": _run_convergence,
    "power-trace": _run_power_trace,
}


def run(config: RunConfig) -> int:
    """Execute a resolved run, time it, write its manifest and print both paths; raises on failure.

    The runner writes only the artifact; calibrate's artifact is its manifest, printed once.
    """
    started = time.monotonic()
    results = _RUNNERS[config.command](config)
    manifest = _manifest_path(config.command, config.out)
    write_manifest(manifest, _manifest(config, started, **results))
    print(*dict.fromkeys((config.out, manifest)), sep="\n")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return run(parse_config(argv))
    except ConfigError as exc:
        code, error = EXIT_CONFIG, exc
    except (ValueError, OSError) as exc:
        code, error = EXIT_RUNTIME, exc
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
