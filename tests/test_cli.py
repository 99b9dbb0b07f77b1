"""End-to-end checks of the command-line front end.

Runs every subcommand in-process through `main` with small trial counts,
and checks flag/config-file precedence, artifact contents, determinism of
written CSV bytes, and the exit-code contract (0 ok, 2 config, 3 runtime).
"""

import argparse
import functools
import hashlib
import json
import multiprocessing
import os
import time
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hetdet import cli, estimation, montecarlo
from hetdet.cli import ConfigError, _build_parser, main, parse_config
from hetdet.detectors import DetectorKind, NonFiniteStatistic
from hetdet.estimation import EstimationConfig
from hetdet.montecarlo import calibrate_thresholds
from hetdet.scenario import RecordedSeries, ScenarioConfig, ingest_recorded, pulse_powers

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "recorded_clutter.csv")
DEFAULT_DETECTORS = ["gd-he", "agd", "c-gd-he", "c-agd", "cd", "ed", "chd", "ca-chd"]


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _subparsers():
    """{command: its argparse subparser}."""
    parser = _build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(subs.choices)


def _dies_in_worker(context, block):
    """Stand-in block function that ends its pool worker process."""
    os._exit(1)


_window_block = cli._window_block


def _dies_in_second_window_block(context, block):
    """Stand-in recorded block function: the worker given window 3 of a bin exits without a result."""
    if block.start == 3:
        time.sleep(1.0)  # the first block's result arrives before the pool breaks
        os._exit(1)
    return _window_block(context, block)


def _zeroed_fixture(tmp_path):
    """A copy of the recorded fixture whose bin 2, pulse 50 is exactly zero."""
    lines = ["2,50,0.0,0.0" if line.startswith("2,50,") else line for line in _lines(FIXTURE)]
    path = tmp_path / "zero.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestParseConfig:
    def test_defaults(self, tmp_path):
        out = str(tmp_path / "curve.csv")
        cfg = parse_config(["pd-curve", "--snr-grid", "0,5", "--out", out])
        assert cfg.command == "pd-curve"
        assert cfg.scenario.k == 16
        assert cfg.scenario.delta == 0.0
        assert cfg.scenario.sigma_n2 == 1.0
        assert cfg.pfa == 0.01
        assert cfg.trials == 10000
        assert cfg.seed == 0
        assert cfg.cal_trials == 10000
        assert cfg.cal_seed == 1
        assert cfg.grid == (0.0, 5.0)
        # Pinned literally: a new kind joins the default set only by editing this list.
        assert [k.value for k in cfg.detectors] == DEFAULT_DETECTORS
        recorded = parse_config(["cfar-sweep", "--recorded", FIXTURE, "--out", out])
        assert [k.value for k in recorded.detectors] == [t for t in DEFAULT_DETECTORS if t != "cd"]
        assert cfg.estimation.c0 == 1.0
        assert not cfg.estimation.paper_init

    def test_default_workers_are_the_cpus_this_process_may_use(self, tmp_path, monkeypatch):
        argv = ["pd-curve", "--snr-grid", "0", "--out", str(tmp_path / "c.csv")]
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert parse_config(argv).workers == 1
        # Without an affinity mask, every CPU the host counts; without a count, one.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert parse_config(argv).workers == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert parse_config(argv).workers == 1

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": 8, "seed": 5, "trials": 700, "pfa": 0.1}))
        out = str(tmp_path / "curve.csv")
        cfg = parse_config(
            ["pd-curve", "--config", str(path), "--seed", "9", "--snr-grid", "3", "--out", out]
        )
        assert cfg.seed == 9
        assert cfg.scenario.k == 8
        assert cfg.trials == 700
        assert cfg.pfa == 0.1
        assert cfg.cal_seed == 10

    def test_file_supplies_grid_and_detectors(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"snr_grid": [1.0, 2.0], "detectors": ["ed", "chd"]}))
        cfg = parse_config(
            ["pd-curve", "--config", str(path), "--out", str(tmp_path / "c.csv")]
        )
        assert cfg.grid == (1.0, 2.0)
        assert cfg.detectors == (DetectorKind.ED, DetectorKind.CHD)

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(["pd-curve", "--config", str(path), "--snr-grid", "1",
                          "--out", str(tmp_path / "c.csv")])

    @pytest.mark.parametrize("command", sorted(_subparsers()))
    def test_every_flag_is_a_config_key(self, tmp_path, command):
        flags = [a for a in _subparsers()[command]._actions if a.option_strings]
        path = tmp_path / "cfg.json"
        for action in flags:
            if action.dest in ("help", "config"):
                continue
            value = action.const if action.const is not None else (action.type or str)(1)
            path.write_text(json.dumps({action.dest: value}))
            try:
                parse_config([command, "--config", str(path), "--out", str(tmp_path / "c.csv")])
            except ConfigError as exc:
                assert "unknown config key" not in str(exc), action.dest

    def test_convergence_takes_no_workers_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"workers": 2}))
        with pytest.raises(ConfigError, match="unknown config keys for convergence: workers"):
            parse_config(["convergence", "--config", str(path), "--out", str(tmp_path / "c.csv")])

    def test_paper_init_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"paper_init": True}))
        cfg = parse_config(["pd-curve", "--config", str(path), "--snr-grid", "1",
                            "--out", str(tmp_path / "c.csv")])
        assert cfg.estimation.paper_init

    def test_scenario_flags_flow_through(self, tmp_path):
        cfg = parse_config(
            ["pd-curve", "--texture-shape", "0.5", "--sigma-n2", "2.0", "--c0", "0.25",
             "--snr-grid", "1", "--out", str(tmp_path / "c.csv")]
        )
        assert cfg.scenario.texture_shape == 0.5
        assert cfg.scenario.delta is None
        assert cfg.scenario.sigma_n2 == 2.0
        assert cfg.estimation.c0 == 0.25

    def test_c0_defaults_to_noise_power(self, tmp_path):
        args = ["pd-curve", "--snr-grid", "1", "--sigma-n2", "3", "--out", str(tmp_path / "c.csv")]
        assert parse_config(args).estimation.c0 == 3.0
        assert parse_config([*args, "--c0", "0.5"]).estimation.c0 == 0.5
        with pytest.raises(ConfigError, match="c0"):
            parse_config([*args, "--c0", "0"])

    def test_missing_out_rejected(self):
        with pytest.raises(ConfigError, match="--out"):
            parse_config(["pd-curve", "--snr-grid", "1"])

    def test_missing_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="snr_grid|snr-grid"):
            parse_config(["pd-curve", "--out", str(tmp_path / "c.csv")])

    def test_cfar_sweep_requires_exactly_one_grid(self, tmp_path):
        out = str(tmp_path / "s.csv")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(["cfar-sweep", "--out", out])
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(["cfar-sweep", "--delta-grid", "0", "--q-grid", "1", "--out", out])

    @pytest.mark.parametrize(
        "flags, given",
        [(["--delta", "5"], "delta"), (["--delta", "0"], "delta"),
         (["--texture-shape", "2"], "texture_shape")],
    )
    def test_cfar_sweep_rejects_base_model_flags(self, tmp_path, flags, given):
        """A sweep takes its interference from its grids: it reads no base model, at any value."""
        with pytest.raises(ConfigError, match=f"^synthetic mode does not take: {given}$"):
            parse_config(["cfar-sweep", *flags, "--delta-grid", "0,5",
                          "--out", str(tmp_path / "s.csv")])

    def test_recorded_mode_conflicts(self, tmp_path):
        out = str(tmp_path / "s.csv")
        with pytest.raises(ConfigError, match="^recorded mode does not take: delta_grid$"):
            parse_config(["cfar-sweep", "--recorded", FIXTURE, "--delta-grid", "0",
                          "--out", out])
        with pytest.raises(ConfigError, match="ground truth"):
            parse_config(["cfar-sweep", "--recorded", FIXTURE, "--detectors", "cd",
                          "--out", out])

    @pytest.mark.parametrize(
        "file_cfg, flags",
        [({}, ["--trials", "0"]), ({"trials": 500}, []), ({}, ["--snr-db", "7"]),
         ({"snr_db": 7.0}, []), ({}, ["--target-phase", "1.0"]), ({"target_phase": 1.0}, [])],
    )
    def test_recorded_mode_refuses_unread_settings(self, tmp_path, capsys, file_cfg, flags):
        """A recorded sweep reads no trial count, SNR or target phase: refuse them."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        args = ["cfar-sweep", "--config", str(path), "--recorded", FIXTURE, "--detectors", "ed",
                *flags, "--out", str(tmp_path / "s.csv")]
        with pytest.raises(ConfigError, match="recorded mode does not take"):
            parse_config(args)
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: recorded mode does not take")

    @pytest.mark.parametrize(
        "file_cfg, flags, given",
        [({}, ["--bins", "3,4", "--stride", "5"], "bins, stride"), ({"offset": 2.0}, [], "offset"),
         ({}, ["--offset-mode", "noise", "--offset-seed", "4"], "offset_mode, offset_seed"),
         ({"offset_seed": 4}, [], "offset_seed")],
    )
    def test_synthetic_mode_refuses_recorded_settings(self, tmp_path, capsys, file_cfg, flags,
                                                      given):
        """A synthetic sweep reads no bins, stride or offset: refuse them."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        args = ["cfar-sweep", "--config", str(path), "--delta-grid", "0", "--detectors", "ed",
                *flags, "--out", str(tmp_path / "s.csv")]
        with pytest.raises(ConfigError, match=f"synthetic mode does not take: {given}$"):
            parse_config(args)
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: synthetic mode does not take: {given}\n"

    @pytest.mark.parametrize("file_cfg, flags", [({}, ["--bins", "0,0"]), ({"bins": [2, 1, 2]}, [])])
    def test_duplicate_recorded_bins_rejected(self, tmp_path, capsys, file_cfg, flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        args = ["cfar-sweep", "--config", str(path), "--recorded", FIXTURE, "--detectors", "ed",
                *flags, "--out", str(tmp_path / "s.csv")]
        with pytest.raises(ConfigError, match="duplicate range bins"):
            parse_config(args)
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: duplicate range bins")

    def test_calibration_floor_enforced(self, tmp_path):
        out = str(tmp_path / "c.csv")
        with pytest.raises(ConfigError, match="ceil"):
            parse_config(["pd-curve", "--snr-grid", "1", "--cal-trials", "50",
                          "--pfa", "0.1", "--out", out])
        with pytest.raises(ConfigError, match="ceil"):
            parse_config(["calibrate", "--trials", "500", "--pfa", "0.01",
                          "--out", str(tmp_path / "t.json")])

    @pytest.mark.parametrize("out", ["/nonexistent/dir/c.csv", "{tmp}", "{tmp}/c.csv"])
    def test_unwritable_out_rejected(self, tmp_path, capsys, out):
        """An artifact or manifest path that cannot be written fails before any simulation."""
        (tmp_path / "c.manifest.json").mkdir()
        args = ["pd-curve", "--detectors", "ed", "--snr-grid", "1", "--pfa", "0.1",
                "--cal-trials", "1000", "--trials", "500", "--out", out.format(tmp=tmp_path)]
        with pytest.raises(ConfigError, match="directory"):
            parse_config(args)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "directory" in err and "pd-curve over" not in err
        assert not (tmp_path / "c.csv").exists()

    def test_unfinishable_default_calibration_refused(self, tmp_path, capsys):
        """At pfa 1e-300 the default cal_trials, ceil(100/pfa), is about 1e302 trials."""
        args = ["pd-curve", "--detectors", "ed", "--pfa", "1e-300", "--snr-grid", "1",
                "--workers", "1", "--out", str(tmp_path / "c.csv")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: cal_trials must be <= {2**40}\n"

    @pytest.mark.parametrize("source", ["flag", "key"])
    @pytest.mark.parametrize(
        "command, key",
        [(["pd-curve", "--snr-grid", "1"], "trials"), (["pd-curve", "--snr-grid", "1"], "cal_trials"),
         (["cfar-sweep", "--delta-grid", "0"], "trials"), (["convergence"], "trials"),
         (["calibrate"], "trials")],
    )
    def test_trial_counts_bounded(self, tmp_path, capsys, command, key, source):
        """No trial count may exceed 2**40: the bound resolves, one more is refused unrun."""
        path = tmp_path / "cfg.json"
        pool = [] if command[0] == "convergence" else ["--detectors", "ed", "--workers", "1"]

        def args(count):
            path.write_text(json.dumps({key: count} if source == "key" else {}))
            flags = [f"--{key.replace('_', '-')}", str(count)] if source == "flag" else []
            return [*command, *pool, "--config", str(path), *flags,
                    "--out", str(tmp_path / "c.csv")]

        assert getattr(parse_config(args(2**40)), key) == 2**40
        assert main(args(2**40 + 1)) == 2
        assert capsys.readouterr().err == f"error: {key} must be <= {2**40}\n"

    @pytest.mark.parametrize(
        "contents, message",
        [(None, "cannot read config file"), ("{bad", "config file is not valid JSON"),
         ("[1, 2]", "config file must hold a JSON object")],
    )
    def test_unreadable_config_file_rejected(self, tmp_path, capsys, contents, message):
        path = tmp_path / "cfg.json"
        if contents is not None:
            path.write_text(contents)
        args = ["pd-curve", "--config", str(path), "--snr-grid", "1",
                "--out", str(tmp_path / "c.csv")]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "file_cfg, flags, message",
        [({}, ["--detectors", ","], "detectors must be non-empty"),
         ({"detectors": []}, [], "detectors must be non-empty"),
         ({}, ["--detectors", "ed,ed"], "duplicate detector tags")],
    )
    def test_bad_detector_list_rejected(self, tmp_path, capsys, file_cfg, flags, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        args = ["pd-curve", "--config", str(path), *flags, "--snr-grid", "1",
                "--out", str(tmp_path / "c.csv")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_finite_target_phase_rejected(self, tmp_path, capsys):
        args = ["pd-curve", "--snr-grid", "1", "--target-phase", "inf",
                "--out", str(tmp_path / "c.csv")]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: target_phase must be finite\n"

    def test_unknown_detector_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(["pd-curve", "--snr-grid", "1", "--detectors", "ed,bogus",
                          "--out", str(tmp_path / "c.csv")])

    def test_pfa_range_checked(self, tmp_path):
        with pytest.raises(ConfigError, match="pfa"):
            parse_config(["pd-curve", "--snr-grid", "1", "--pfa", "1.5",
                          "--out", str(tmp_path / "c.csv")])

    @pytest.mark.parametrize(
        "command",
        [["calibrate"], ["cfar-sweep", "--delta-grid", "0"], ["cfar-sweep", "--recorded", FIXTURE],
         ["pd-curve", "--snr-grid", "1"]],
    )
    def test_pfa_whose_floor_overflows_refused(self, tmp_path, capsys, command):
        """At pfa 1e-320, ceil(100/pfa) is infinite: a configuration error, not a traceback."""
        args = [*command, "--pfa", "1e-320", "--workers", "1", "--out", str(tmp_path / "c.csv")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == "error: pfa 1e-320 is too small: ceil(100/pfa) trials overflow a float\n"

    @pytest.mark.parametrize(
        "values",
        [{"trials": 300.7}, {"k": 16.9}, {"seed": 1.5}, {"trials": True}, {"cal_seed": False},
         {"target_phase": True}, {"sigma_n2": True}, {"snr_grid": [True, 2.0]},
         {"paper_init": 1}],
    )
    def test_file_numbers_are_not_reinterpreted(self, tmp_path, values):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"snr_grid": [1.0], **values}))
        with pytest.raises(ConfigError, match=next(iter(values))):
            parse_config(["pd-curve", "--config", str(path), "--out", str(tmp_path / "c.csv")])

    @pytest.mark.parametrize(
        "command, file_cfg, flags, key",
        [(["cfar-sweep", "--delta-grid", "0"], {}, ["--seed", "-1"], "seed"),
         (["cfar-sweep", "--delta-grid", "0"], {"cal_seed": -1}, [], "cal_seed"),
         (["calibrate"], {"seed": -1}, [], "seed"),
         (["power-trace", "--recorded", FIXTURE, "--offset-mode", "noise"], {},
          ["--offset", "0.5", "--offset-seed", "-3"], "offset_seed"),
         (["cfar-sweep", "--recorded", FIXTURE, "--offset-mode", "noise"],
          {"offset": 0.5, "offset_seed": -3}, [], "offset_seed")],
    )
    def test_negative_seed_rejected(self, tmp_path, capsys, command, file_cfg, flags, key):
        """A negative seed is a configuration error, found before any simulation."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        args = [*command, "--config", str(path), *flags, "--out", str(tmp_path / "c.csv")]
        with pytest.raises(ConfigError, match=f"^{key} must be >= 0$"):
            parse_config(args)
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {key} must be >= 0\n"

    @pytest.mark.parametrize(
        "file_cfg, flags",
        [({}, ["--offset", "inf"]), ({}, ["--offset", "-1", "--offset-mode", "noise"]),
         ({"offset_mode": "bogus"}, []),
         # A noise offset drawn without a seed would write other bytes on every run.
         ({}, ["--offset", "0.5", "--offset-mode", "noise"]),
         ({"offset": 0.5, "offset_mode": "noise"}, [])],
    )
    @pytest.mark.parametrize("command", [["power-trace"], ["cfar-sweep", "--detectors", "ed"]])
    def test_bad_offset_rejected(self, tmp_path, capsys, command, file_cfg, flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        args = [*command, "--config", str(path), "--recorded", FIXTURE, *flags,
                "--out", str(tmp_path / "p.csv")]
        with pytest.raises(ConfigError, match="offset"):
            parse_config(args)
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "file_cfg, flags", [({}, ["--offset-seed", "4"]), ({"offset_seed": 4}, [])]
    )
    @pytest.mark.parametrize("offset", [["--offset", "0.5"], ["--offset-mode", "noise"]])
    @pytest.mark.parametrize(
        "command, mode",
        [(["power-trace"], "power-trace"), (["cfar-sweep", "--detectors", "ed"], "recorded mode")],
    )
    def test_unread_offset_seed_refused(self, tmp_path, capsys, command, mode, offset, file_cfg,
                                        flags):
        """Only a nonzero noise offset draws: a literal or zero offset reads no seed."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        args = [*command, "--config", str(path), "--recorded", FIXTURE, *offset, *flags,
                "--out", str(tmp_path / "p.csv")]
        with pytest.raises(ConfigError, match=f"^{mode} does not take: offset_seed$"):
            parse_config(args)
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {mode} does not take: offset_seed\n"

    @pytest.mark.parametrize(
        "command, file_cfg",
        [(["pd-curve", "--snr-grid", "1"], {"detectors": 5}),
         (["pd-curve", "--snr-grid", "1"], {"detectors": ["ed", 5]}),
         (["pd-curve", "--snr-grid", "1"], {"out": 5}),
         (["cfar-sweep"], {"recorded": 5}),
         (["power-trace", "--recorded", FIXTURE], {"offset_mode": 0}),
         (["convergence"], {"algorithm": 1})],
    )
    def test_file_text_of_wrong_type_rejected(self, tmp_path, capsys, command, file_cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        args = [*command, "--config", str(path), "--out", str(tmp_path / "c.csv")]
        key = next(iter(file_cfg))
        with pytest.raises(ConfigError, match=f"{key} must be a string"):
            parse_config(args)
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be a string")

    def test_integral_float_accepted_for_integer_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": 300.0, "k": 8.0}))
        cfg = parse_config(["pd-curve", "--config", str(path), "--snr-grid", "1",
                            "--out", str(tmp_path / "c.csv")])
        assert cfg.trials == 300 and isinstance(cfg.trials, int)
        assert cfg.scenario.k == 8


# A valid value, other than the default, of every setting, as its flag takes it.
SETTING_VALUES = {
    "seed": "3", "trials": "20000", "k": "8", "delta": "5", "texture_shape": "0.5",
    "sigma_n2": "2", "c0": "0.5", "target_phase": "1", "workers": str(os.cpu_count() + 1),
    "detectors": "ed", "pfa": "0.05", "cal_trials": "20000", "cal_seed": "7",
    "delta_grid": "0,5", "q_grid": "1", "snr_db": "3", "recorded": FIXTURE, "bins": "0",
    "stride": "3", "offset": "0.5", "offset_mode": "noise", "offset_seed": "4",
    "bin_label": "0", "snr_grid": "1,2", "algorithm": "em-m",
}
# Each command, and each mode of cfar-sweep, with only the settings it requires.
BASE_RUNS = {
    "calibrate": ["calibrate"],
    "synthetic-sweep": ["cfar-sweep", "--delta-grid", "0"],
    "recorded-sweep": ["cfar-sweep", "--recorded", FIXTURE],
    "pd-curve": ["pd-curve", "--snr-grid", "1"],
    "convergence": ["convergence"],
    "power-trace": ["power-trace", "--recorded", FIXTURE],
}


def _settings_alone():
    for name, base in BASE_RUNS.items():
        for action in _subparsers()[base[0]]._actions:
            flag = action.option_strings[:1]
            if flag and action.dest not in ("help", "config", "out") and flag[0] not in base:
                yield pytest.param(base, action, id=f"{name}-{action.dest}")


@pytest.mark.parametrize("base, action", list(_settings_alone()))
def test_every_given_setting_is_read_or_refused(tmp_path, base, action):
    """A setting given alone changes the resolved run, or the run refuses it as unread.

    So no run takes a setting and ignores it, and no manifest leaves one out.
    """
    out = ["--out", str(tmp_path / "c.csv")]
    value = [] if action.const is not None else [SETTING_VALUES[action.dest]]
    # The two grids exclude each other: the q grid replaces the delta grid.
    run = base[:1] if action.dest == "q_grid" and "--delta-grid" in base else base
    try:
        config = parse_config([*run, action.option_strings[0], *value, *out])
    except ConfigError as exc:
        assert "does not take" in str(exc)
    else:
        assert config != parse_config([*base, *out])


def test_readme_commands_resolve(tmp_path):
    """Every `hetdet` example in README.md is a run the parser accepts."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        commands = [line.split()[1:] for line in fh if line.startswith("hetdet ")]
    assert commands
    for argv in commands:
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / argv[out])
        parse_config(argv)


class TestMainExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        code = main(["pd-curve", "--detectors", "bogus", "--snr-grid", "1",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_runtime_error_is_3(self, tmp_path, capsys):
        code = main(["power-trace", "--recorded", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["cfar-sweep", "--delta-grid", "0,-1"], ["cfar-sweep", "--q-grid", "2,0"],
         ["cfar-sweep", "--delta-grid", ","], ["pd-curve", "--snr-grid", "nan"]],
    )
    def test_bad_grid_is_2_before_calibration(self, tmp_path, capsys, args):
        code = main(args + ["--detectors", "ed", "--out", str(tmp_path / "c.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "calibrat" not in err

    @pytest.mark.parametrize(
        "args, code",
        [(["--recorded", "{tmp}/missing.csv"], 3),
         (["--recorded", FIXTURE, "--offset", "nan"], 2),
         (["--recorded", FIXTURE, "--k", "999"], 3),
         (["--recorded", FIXTURE, "--bins", "0,7"], 3),
         (["--recorded", "{tmp}/zero.csv", "--detectors", "agd,ed"], 3)],
    )
    def test_bad_recorded_input_fails_before_calibration(self, tmp_path, capsys, args, code):
        _zeroed_fixture(tmp_path)
        args = [a.replace("{tmp}", str(tmp_path)) for a in args]
        assert main(["cfar-sweep", "--detectors", "ed", "--pfa", "0.1", "--cal-trials", "1000",
                     *args, "--out", str(tmp_path / "c.csv")]) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and "calibrat" not in err

    def test_zero_recorded_sample_fails_only_direction_detectors(self, tmp_path, capsys):
        args = ["cfar-sweep", "--recorded", _zeroed_fixture(tmp_path), "--pfa", "0.1",
                "--cal-trials", "1000", "--workers", "1", "--out", str(tmp_path / "c.csv")]
        for detectors in ("agd,ed", "c-gd-he", "ed,c-agd"):
            assert main([*args, "--detectors", detectors]) == 3
            err = capsys.readouterr().err
            assert err == "error: bin 2, pulse 50: cannot normalize a zero-norm sample\n"
        assert main([*args, "--detectors", "ed,gd-he"]) == 0
        assert capsys.readouterr().err.startswith("calibrating")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_zero_norm_synthetic_sample_is_named_by_its_trial(self, tmp_path, capsys, workers):
        # At q = 0.01 numpy's Gamma sampler returns textures of exactly 0.0.
        code = main(["cfar-sweep", "--q-grid", "0.01", "--detectors", "ed,gd-he,c-agd",
                     "--pfa", "0.1", "--cal-trials", "1000", "--trials", "2000",
                     "--workers", workers, "--out", str(tmp_path / "q.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.endswith("\nerror: cannot normalize a zero-norm sample at burst 131, pulse 3 (trial 131)\n")

    def test_non_finite_statistic_is_3(self, tmp_path, capsys, monkeypatch):
        fused = estimation._em_mean

        def poisoned(p, sig, core):
            mean = fused(p, sig, core)
            mean[0] = np.nan
            return mean

        monkeypatch.setattr(estimation, "_em_mean", poisoned)
        code = main(["pd-curve", "--detectors", "ed,c-gd-he", "--snr-grid", "6", "--pfa", "0.5",
                     "--cal-trials", "200", "--trials", "10", "--workers", "1",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 3
        assert "c-gd-he statistic is not finite at burst 0" in capsys.readouterr().err

    def test_dead_worker_is_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(montecarlo, "_sample_block", _dies_in_worker)
        code = main(["calibrate", "--detectors", "ed", "--pfa", "0.1", "--trials", "1024",
                     "--workers", "2", "--out", str(tmp_path / "thr.json")])
        err = capsys.readouterr().err
        assert code == 3
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "never finished" in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("row", ["0,1,nan,0.5", "0,1,0.5,inf"])
    def test_non_finite_recorded_sample_is_named_by_its_line(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"bin_index,pulse_index,re,im\n0,0,1.0,1.0\n{row}\n")
        assert main(["power-trace", "--recorded", str(bad), "--out", str(tmp_path / "p.csv")]) == 3
        assert capsys.readouterr().err == f"error: {bad}:3: re and im must be finite, got {row!r}\n"

    @pytest.mark.parametrize("command", [["power-trace"],
                                         ["cfar-sweep", "--k", "2", "--pfa", "0.1", "--cal-trials", "1000"]])
    def test_offset_overflow_is_named_by_its_line(self, tmp_path, capsys, command):
        big = tmp_path / "big.csv"
        big.write_text("bin_index,pulse_index,re,im\n0,1,1.0,1.0\n\n0,0,1.7e308,0\n")
        # A warning would reach stderr ahead of the error in a real run.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*command, "--recorded", str(big), "--offset", "1e308",
                         "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            f"error: {big}:4: cell (0, 0) overflows with the literal offset 1e+308\n"
        )

    def test_malformed_recorded_file_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("bin_index,pulse_index,re,im\n0,0,oops,1.0\n")
        code = main(["power-trace", "--recorded", str(bad), "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert "error:" in capsys.readouterr().err
        bad.write_text("bin_index,pulse_index,re,im\n")
        code = main(["power-trace", "--recorded", str(bad), "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {bad}: no data rows\n"


class TestCalibrateCommand:
    def test_artifact_and_stdout(self, tmp_path, capsys):
        out = str(tmp_path / "thr.json")
        code = main(["calibrate", "--detectors", "ed,chd", "--k", "8", "--pfa", "0.1",
                     "--trials", "1000", "--seed", "3", "--out", out])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == out
        payload = json.loads(_read_bytes(out))
        assert payload["command"] == "calibrate"
        assert payload["scenario"]["k"] == 8
        assert set(payload["thresholds"]) == {"ed", "chd"}
        expected = calibrate_thresholds(
            (DetectorKind.ED, DetectorKind.CHD), None,
            ScenarioConfig(k=8, delta=0.0), 0.1, 1000, 3,
        )
        assert payload["thresholds"] == {"ed": expected[DetectorKind.ED],
                                         "chd": expected[DetectorKind.CHD]}

    def test_thresholds_match_pd_curve_calibration(self, tmp_path, capsys):
        """calibrate --trials N --seed S writes the thresholds pd-curve calibrates
        with --cal-trials N --cal-seed S under the same scenario."""
        shared = ["--detectors", "ed,gd-he", "--k", "8", "--delta", "10", "--pfa", "0.1"]
        thr = str(tmp_path / "thr.json")
        assert main(["calibrate", *shared, "--trials", "1000", "--seed", "7", "--workers", "1",
                     "--out", thr]) == 0
        assert main(["pd-curve", *shared, "--snr-grid", "0", "--cal-trials", "1000",
                     "--cal-seed", "7", "--trials", "50", "--workers", "2",
                     "--out", str(tmp_path / "pd.csv")]) == 0
        capsys.readouterr()
        calibrated = json.loads(_read_bytes(thr))["thresholds"]
        assert set(calibrated) == {"ed", "gd-he"}
        manifest = json.loads(_read_bytes(str(tmp_path / "pd.manifest.json")))
        assert calibrated == manifest["thresholds"]


class TestCfarSweepCommand:
    def test_delta_grid_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        args = ["cfar-sweep", "--detectors", "ed", "--delta-grid", "0,5", "--k", "8",
                "--pfa", "0.1", "--cal-trials", "1000", "--trials", "500",
                "--seed", "2", "--out", out]
        assert main(args) == 0
        captured = capsys.readouterr()
        manifest_path = str(tmp_path / "sweep.manifest.json")
        assert captured.out.splitlines() == [out, manifest_path]
        rows = _lines(out)
        assert rows[0] == "detector,abscissa,estimate,ci_low,ci_high,trials"
        assert len(rows) == 3
        assert rows[1].startswith("ed,0.0,") and rows[2].startswith("ed,5.0,")
        manifest = json.loads(_read_bytes(manifest_path))
        assert manifest["grid"] == [0.0, 5.0]
        assert manifest["cal_seed"] == 3
        assert manifest["scenario"]["delta"] == 0.0
        assert "ed" in manifest["thresholds"]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ["cfar-sweep", "--detectors", "chd", "--q-grid", "0.5", "--k", "8",
                "--pfa", "0.1", "--cal-trials", "1000", "--trials", "400"]
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        capsys.readouterr()
        assert _read_bytes(a) == _read_bytes(b)


class TestPdCurveCommand:
    def test_worker_count_does_not_change_bytes(self, tmp_path, capsys):
        args = ["pd-curve", "--detectors", "ed,ca-chd", "--delta", "4", "--k", "8",
                "--snr-grid", "0,10", "--pfa", "0.1", "--cal-trials", "1000",
                "--trials", "600", "--seed", "11"]
        a = str(tmp_path / "w1.csv")
        b = str(tmp_path / "w3.csv")
        assert main(args + ["--workers", "1", "--out", a]) == 0
        assert main(args + ["--workers", "3", "--out", b]) == 0
        capsys.readouterr()
        assert _read_bytes(a) == _read_bytes(b)
        rows = _lines(a)
        assert len(rows) == 5
        assert {row.split(",")[0] for row in rows[1:]} == {"ed", "ca-chd"}

    def test_clairvoyant_threshold_is_per_snr(self, tmp_path, capsys):
        out = str(tmp_path / "cd.csv")
        assert main(["pd-curve", "--detectors", "cd,ed", "--delta", "4", "--k", "8",
                     "--snr-grid", "0,5,10", "--pfa", "0.1", "--cal-trials", "1000",
                     "--trials", "300", "--out", out]) == 0
        capsys.readouterr()
        manifest = json.loads(_read_bytes(str(tmp_path / "cd.manifest.json")))
        assert isinstance(manifest["thresholds"]["ed"], float)
        assert isinstance(manifest["thresholds"]["cd"], list)
        assert len(manifest["thresholds"]["cd"]) == 3


class TestConvergenceCommand:
    def test_cyclic_ml_trace(self, tmp_path, capsys):
        out = str(tmp_path / "conv.csv")
        assert main(["convergence", "--algorithm", "alg1", "--delta", "5", "--k", "8",
                     "--snr-db", "10", "--trials", "300", "--out", out]) == 0
        capsys.readouterr()
        rows = _lines(out)
        assert rows[0] == "algorithm,iteration,mean_abs_change,trials"
        iterations = [int(row.split(",")[1]) for row in rows[1:]]
        assert iterations == list(range(2, 16))
        changes = [float(row.split(",")[2]) for row in rows[1:]]
        assert changes[-1] < changes[0]
        manifest = json.loads(_read_bytes(str(tmp_path / "conv.manifest.json")))
        assert manifest["algorithm"] == "alg1"
        assert manifest["scenario"]["snr_db"] == 10.0
        assert manifest["workers"] == 1
        assert "snr_db" not in manifest

    def test_em_mean_trace(self, tmp_path, capsys):
        out = str(tmp_path / "em.csv")
        assert main(["convergence", "--algorithm", "em-m", "--delta", "5", "--k", "8",
                     "--trials", "200", "--out", out]) == 0
        capsys.readouterr()
        rows = _lines(out)
        iterations = [int(row.split(",")[1]) for row in rows[1:]]
        assert iterations == list(range(1, 21))

    def test_unknown_algorithm_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="algorithm"):
            parse_config(["convergence", "--algorithm", "newton",
                          "--out", str(tmp_path / "c.csv")])


class TestPowerTraceCommand:
    def test_single_bin_matches_ingest(self, tmp_path, capsys):
        out = str(tmp_path / "power.csv")
        assert main(["power-trace", "--recorded", FIXTURE, "--bin", "1",
                     "--out", out]) == 0
        capsys.readouterr()
        rows = _lines(out)
        assert rows[0] == "pulse_index,power"
        assert len(rows) == 129
        series = ingest_recorded(FIXTURE)
        expected = pulse_powers(series, 1)
        got = np.array([float(row.split(",")[1]) for row in rows[1:]])
        np.testing.assert_array_equal(got, expected)

    def test_all_bins_schema(self, tmp_path, capsys):
        out = str(tmp_path / "power.csv")
        assert main(["power-trace", "--recorded", FIXTURE, "--out", out]) == 0
        capsys.readouterr()
        rows = _lines(out)
        assert rows[0] == "bin_index,pulse_index,power"
        assert len(rows) == 1 + 3 * 128
        assert {row.split(",")[0] for row in rows[1:]} == {"0", "1", "2"}

    def test_unknown_bin_writes_no_artifact(self, tmp_path, capsys):
        out = tmp_path / "power.csv"
        code = main(["power-trace", "--recorded", FIXTURE, "--bin", "9", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "error: unknown range bin 9\n"
        assert not out.exists()

    def test_noise_offset_is_reproducible(self, tmp_path, capsys):
        args = ["power-trace", "--recorded", FIXTURE, "--bin", "0", "--offset", "0.5",
                "--offset-mode", "noise", "--offset-seed", "9"]
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        capsys.readouterr()
        assert _read_bytes(a) == _read_bytes(b)


class TestRecordedSweep:
    def test_window_counts_and_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "rec.csv")
        assert main(["cfar-sweep", "--detectors", "ed,ca-chd", "--recorded", FIXTURE,
                     "--bins", "0,2", "--k", "16", "--stride", "8", "--pfa", "0.1",
                     "--cal-trials", "1000", "--out", out]) == 0
        capsys.readouterr()
        rows = _lines(out)
        assert len(rows) == 1 + 2 * 2
        n_windows = (128 - 16) // 8 + 1
        for row in rows[1:]:
            assert int(row.split(",")[5]) == n_windows
        manifest = json.loads(_read_bytes(str(tmp_path / "rec.manifest.json")))
        assert manifest["windows_per_bin"] == {"0": n_windows, "2": n_windows}
        assert manifest["stride"] == 8

    def test_default_covers_all_bins(self, tmp_path, capsys):
        out = str(tmp_path / "rec.csv")
        assert main(["cfar-sweep", "--detectors", "ed", "--recorded", FIXTURE,
                     "--k", "16", "--pfa", "0.1", "--cal-trials", "1000",
                     "--out", out]) == 0
        capsys.readouterr()
        rows = _lines(out)
        assert [row.split(",")[1] for row in rows[1:]] == ["0.0", "1.0", "2.0"]
        assert all(int(row.split(",")[5]) == 8 for row in rows[1:])


# Every manifest records the settings its command reads, then its results,
# and nothing else: a recorded sweep reads no trials or seed (its windows come
# from the file), convergence no pfa or detectors, power-trace no model.
_RUN = {"command", "version", "wall_time_s"}
_MODEL = {"scenario", "estimation", "mean_interference_power"}
_POOL = {"detectors", "pfa", "workers"}
_CALIBRATED = {"cal_trials", "cal_seed", "thresholds"}
MANIFEST_KEYS = {
    "calibrate": (
        ["calibrate", "--detectors", "ed", "--pfa", "0.1", "--trials", "1000", "--workers", "1"],
        _RUN | _MODEL | _POOL | {"trials", "seed", "thresholds"},
    ),
    "cfar-sweep-delta-grid": (
        ["cfar-sweep", "--detectors", "ed", "--delta-grid", "0,5", "--k", "8", "--pfa", "0.1",
         "--cal-trials", "1000", "--trials", "100", "--workers", "1"],
        _RUN | _MODEL | _POOL | _CALIBRATED
        | {"trials", "seed", "grid", "grid_kind"},
    ),
    "cfar-sweep-recorded": (
        ["cfar-sweep", "--detectors", "ed", "--recorded", FIXTURE, "--pfa", "0.1",
         "--cal-trials", "1000", "--workers", "1"],
        _RUN | _MODEL | _POOL | _CALIBRATED
        | {"recorded", "stride", "offset", "offset_mode", "bins", "windows_per_bin"},
    ),
    "pd-curve": (
        ["pd-curve", "--detectors", "ed,cd", "--snr-grid", "0,5", "--k", "8", "--pfa", "0.1",
         "--cal-trials", "1000", "--trials", "100", "--workers", "1"],
        _RUN | _MODEL | _POOL | _CALIBRATED | {"trials", "seed", "grid", "grid_kind"},
    ),
    "convergence": (
        ["convergence", "--algorithm", "em-m", "--k", "8", "--trials", "20"],
        _RUN | _MODEL | {"trials", "seed", "workers", "algorithm"},
    ),
    "power-trace": (
        ["power-trace", "--recorded", FIXTURE, "--bin", "1"],
        _RUN | {"recorded", "bin_label", "offset", "offset_mode", "bins", "n_pulses"},
    ),
}


@pytest.mark.parametrize("name", sorted(MANIFEST_KEYS))
def test_manifest_keys(tmp_path, capsys, name):
    args, keys = MANIFEST_KEYS[name]
    calibrate = args[0] == "calibrate"
    out = str(tmp_path / ("thr.json" if calibrate else "artifact.csv"))
    assert main([*args, "--out", out]) == 0
    manifest = capsys.readouterr().out.split()[-1]
    assert manifest == (out if calibrate else str(tmp_path / "artifact.manifest.json"))
    assert set(json.loads(_read_bytes(manifest))) == keys


# Small runs whose CSV bytes are pinned: a refactor that claims to change no
# output must leave every hash alone.  Manifests carry wall_time_s, so they
# are pinned apart, by test_pinned_manifest_bytes below.
PINNED_ARTIFACTS = {
    "cfar-sweep-delta-grid": (
        ["cfar-sweep", "--detectors", "gd-he,c-agd,ed,chd,ca-chd", "--delta-grid", "0,5,20",
         "--k", "8", "--pfa", "0.1", "--cal-trials", "1000", "--trials", "300", "--seed", "4",
         "--workers", "1"],
        "4d72a89f4d8ff042b51af7106a42307158edbc159083d4966784f817a976b97a",
    ),
    "pd-curve-adaptive-cd": (
        ["pd-curve", "--detectors", "agd,c-gd-he,cd,ed", "--delta", "4", "--k", "8",
         "--snr-grid", "0,6", "--pfa", "0.1", "--cal-trials", "1000", "--trials", "200",
         "--seed", "5", "--workers", "1"],
        "b0e0ca94c659208791375035089d4525a208e1ed14dfc3dd1427d63ef8a66d5e",
    ),
    # A Gamma-shape grid, whose points draw under different laws, through a pool.
    "cfar-sweep-q-grid-pool": (
        ["cfar-sweep", "--detectors", "gd-he,agd,c-agd,ed,ca-chd", "--q-grid", "0.5,2",
         "--k", "8", "--pfa", "0.1", "--cal-trials", "1000", "--trials", "1100", "--seed", "4",
         "--workers", "2"],
        "1e589971c244208190e3d0647cfab98e68b9cd0219b3106be701ef4711525d52",
    ),
    # Per-SNR cd thresholds and a partial last block, through a pool; the same
    # bytes at --workers 1.
    "pd-curve-adaptive-cd-pool": (
        ["pd-curve", "--detectors", "agd,c-gd-he,cd,ed", "--delta", "4", "--k", "8",
         "--snr-grid", "0,6", "--pfa", "0.1", "--cal-trials", "1000", "--trials", "1100",
         "--seed", "5", "--workers", "2"],
        "acf35c1a6d6fb5f49b3702b0a6543aa5cb4ad217d39c655a03ad68c60642be5d",
    ),
    "convergence-alg1": (
        ["convergence", "--algorithm", "alg1", "--delta", "5", "--k", "8", "--trials", "100"],
        "88ec091c7b015e14423ebe469a5722e60995a76e3166c326a860fc06c27b09de",
    ),
    "convergence-em-m": (
        ["convergence", "--algorithm", "em-m", "--delta", "5", "--k", "8", "--trials", "100"],
        "e7b4a6735be11eca61c93c21ca1a6563b3d92798c8418e95c2df0f752bfae153",
    ),
    "convergence-em-sigma": (
        ["convergence", "--algorithm", "em-sigma", "--delta", "5", "--k", "8", "--trials", "100"],
        "4d2be230871ec9fbbd8edb00080e2258591e4cddf08baf0beedc7b4995ed6ff1",
    ),
    "convergence-cyclic-em": (
        ["convergence", "--algorithm", "cyclic-em", "--delta", "5", "--k", "8", "--trials", "100"],
        "5c9c7c668c891c3b6c5958f6b6af039704cfca048772b2b401840774fcf32329",
    ),
    "power-trace": (
        ["power-trace", "--recorded", FIXTURE],
        "433475d359e3f1dddedc1e9b7ef23afdc054ed68b1d327f2d67c4344e8bcdb9a",
    ),
    "cfar-sweep-recorded": (
        ["cfar-sweep", "--detectors", "gd-he,agd,c-gd-he,c-agd,ed,chd,ca-chd",
         "--recorded", FIXTURE, "--k", "8", "--stride", "4", "--pfa", "0.1",
         "--cal-trials", "1000", "--workers", "1"],
        "9f445a0c65215505716d3e84576dda282e56cdff31b2762fbf5836eca95b31bc",
    ),
    # The same windows scored through a pool give the same bytes.
    "cfar-sweep-recorded-pool": (
        ["cfar-sweep", "--detectors", "gd-he,agd,c-gd-he,c-agd,ed,chd,ca-chd",
         "--recorded", FIXTURE, "--k", "8", "--stride", "4", "--pfa", "0.1",
         "--cal-trials", "1000", "--workers", "2"],
        "9f445a0c65215505716d3e84576dda282e56cdff31b2762fbf5836eca95b31bc",
    ),
    # The default detector set of a recorded sweep: every detector but cd, in
    # DetectorKind order, so the same bytes as the explicit list above.
    "cfar-sweep-recorded-default-detectors": (
        ["cfar-sweep", "--recorded", FIXTURE, "--k", "8", "--stride", "4", "--pfa", "0.1",
         "--cal-trials", "1000", "--workers", "1"],
        "9f445a0c65215505716d3e84576dda282e56cdff31b2762fbf5836eca95b31bc",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
def test_pinned_artifact_bytes(tmp_path, capsys, name):
    args, digest = PINNED_ARTIFACTS[name]
    out = str(tmp_path / "artifact.csv")
    assert main([*args, "--out", out]) == 0
    capsys.readouterr()
    assert hashlib.sha256(_read_bytes(out)).hexdigest() == digest


# The MANIFEST_KEYS runs' manifests, pinned like the CSVs: each is hashed
# without wall_time_s and with `recorded` cut to its file name (the fixture's
# absolute path depends on the checkout), in the writer's own JSON format.
# A key that differs between machines, such as an environment record, must be
# left out of the hash in the same way.
PINNED_MANIFESTS = {
    "calibrate": "3a8c6aa0206f1df8d9338bae25a5c69c3fc90732fa8a13afbb7e77b1449519bc",
    "cfar-sweep-delta-grid": "f6051b1d2944624b94101632b3ed3808ac6775287e4195f12180caf3e592588a",
    "cfar-sweep-recorded": "280adf5e2edcda14263a60eff2a5dc253fbd72ec6cab903822cf57b5b4622800",
    "convergence": "b973aac359ec85ff3a7b3eaf628c3db85059af7a93c606c590bba45a7cbcbca5",
    "pd-curve": "8f147ea67345e2c2707c4c0d66ecb5c3e471e58ae3f2bb23d702fd07ada785f6",
    "power-trace": "3160f1853f24766bc7418adfd734458b3c0be6d5ba57af68d76225790c6fcc9d",
}


def _manifest_digest(tmp_path, capsys, name):
    """The pinned-form sha256 of the manifest that MANIFEST_KEYS run `name` writes."""
    args, _ = MANIFEST_KEYS[name]
    out = str(tmp_path / ("thr.json" if args[0] == "calibrate" else "artifact.csv"))
    assert main([*args, "--out", out]) == 0
    manifest = json.loads(_read_bytes(capsys.readouterr().out.split()[-1]))
    del manifest["wall_time_s"]
    if "recorded" in manifest:
        manifest["recorded"] = os.path.basename(manifest["recorded"])
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(MANIFEST_KEYS))
def test_pinned_manifest_bytes(tmp_path, capsys, name):
    assert _manifest_digest(tmp_path, capsys, name) == PINNED_MANIFESTS[name]


class TestRecordedBlocks:
    """A recorded sweep scores each bin `cli._WINDOW_BLOCK` windows at a time, through its pool."""

    _etas = []

    def _calibrated(self, *args):
        if not self._etas:
            self._etas.append(calibrate_thresholds(*args))
        return self._etas[0]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @settings(max_examples=3, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(block=st.integers(1, 40))
    def test_any_partition_keeps_the_pinned_bytes(self, tmp_path, capsys, workers, block):
        args, digest = PINNED_ARTIFACTS["cfar-sweep-recorded"]
        out = str(tmp_path / "artifact.csv")
        with pytest.MonkeyPatch.context() as patch:
            # The windows' partition cannot move the white-noise etas: calibrate once.
            patch.setattr(cli, "calibrate_thresholds", self._calibrated)
            patch.setattr(cli, "_WINDOW_BLOCK", block)
            assert main([*args, "--workers", workers, "--out", out]) == 0
        capsys.readouterr()
        assert hashlib.sha256(_read_bytes(out)).hexdigest() == digest

    @pytest.mark.parametrize("block", [1, 3])
    def test_block_partition_keeps_the_pinned_bytes(self, tmp_path, capsys, monkeypatch, block):
        monkeypatch.setattr(cli, "_WINDOW_BLOCK", block)
        cut = cli.sliding_bursts
        ranges = []

        def recorded_cut(series, bin_label, k, stride, start, count):
            ranges.append((bin_label, start, count))
            return cut(series, bin_label, k, stride, start, count)

        monkeypatch.setattr(cli, "sliding_bursts", recorded_cut)
        for name in ("cfar-sweep-recorded", "cfar-sweep-recorded-default-detectors"):
            args, digest = PINNED_ARTIFACTS[name]
            out = str(tmp_path / f"{name}.csv")
            assert main([*args, "--out", out]) == 0
            capsys.readouterr()
            assert hashlib.sha256(_read_bytes(out)).hexdigest() == digest
            # Each of the 3 bins' 31 windows (k 8, stride 4) is scored once, in order.
            assert ranges == [(b, s, min(block, 31 - s)) for b in (0, 1, 2) for s in range(0, 31, block)]
            ranges.clear()
        digest = _manifest_digest(tmp_path, capsys, "cfar-sweep-recorded")
        assert digest == PINNED_MANIFESTS["cfar-sweep-recorded"]

    def test_scoring_memory_does_not_grow_with_the_bin(self):
        # numpy reports its buffers to tracemalloc, so the peaks repeat.
        # Scoring the whole bin as one batch held memory in proportion to it.
        config = cli.RunConfig(
            "cfar-sweep", "unused.csv", scenario=ScenarioConfig(k=16, delta=0.0),
            estimation=EstimationConfig(), stride=1, workers=1,
            detectors=(DetectorKind.GD_HE, DetectorKind.C_AGD, DetectorKind.ED, DetectorKind.CA_CHD),
        )
        thresholds = dict.fromkeys(config.detectors, 1.0)
        peaks = []
        for n_pulses in (4096, 32768):
            rng = np.random.default_rng(n_pulses)
            cells = rng.standard_normal((1, n_pulses)) + 1j * rng.standard_normal((1, n_pulses))
            series = RecordedSeries(cells, [0])
            tracemalloc.start()
            try:
                cli._recorded_curves(config, series, [0], n_pulses - 15, thresholds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_non_finite_statistic_names_its_bin_and_window(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_WINDOW_BLOCK", 3)
        scored = cli.statistics_for_bursts
        calls = []

        def second_block_fails(windows, kinds, cfg):
            calls.append(len(windows))
            if len(calls) == 2:
                raise NonFiniteStatistic(DetectorKind.ED, 1)
            return scored(windows, kinds, cfg)

        monkeypatch.setattr(cli, "statistics_for_bursts", second_block_fails)
        code = main(["cfar-sweep", "--detectors", "ed", "--recorded", FIXTURE, "--bins", "2",
                     "--pfa", "0.1", "--cal-trials", "1000", "--workers", "1",
                     "--out", str(tmp_path / "rec.csv")])
        assert code == 3
        assert calls == [3, 3]
        assert capsys.readouterr().err.endswith(
            "\nerror: ed statistic is not finite at burst 1 (bin 2, window 4)\n"
        )

    def test_pool_workers_need_no_fork(self, tmp_path, capsys, monkeypatch):
        """Spawned workers get the block function and the recording from the pool's initializer."""
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor",
                            functools.partial(ProcessPoolExecutor, mp_context=spawn))
        args, digest = PINNED_ARTIFACTS["cfar-sweep-recorded-pool"]
        out = str(tmp_path / "artifact.csv")
        assert main([*args, "--out", out]) == 0
        capsys.readouterr()
        assert hashlib.sha256(_read_bytes(out)).hexdigest() == digest

    def test_dead_worker_names_its_bin_and_window(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_WINDOW_BLOCK", 3)
        monkeypatch.setattr(cli, "_window_block", _dies_in_second_window_block)
        code = main(["cfar-sweep", "--detectors", "ed", "--recorded", FIXTURE, "--bins", "2",
                     "--pfa", "0.1", "--cal-trials", "1000", "--workers", "2",
                     "--out", str(tmp_path / "rec.csv")])
        assert code == 3
        assert capsys.readouterr().err.endswith(
            "\nerror: a worker process died; the block at bin 2, window 3 never finished\n"
        )

    def test_non_finite_statistic_in_a_pool_names_its_bin_and_window(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_WINDOW_BLOCK", 3)
        scored = cli.statistics_for_bursts

        def last_block_fails(windows, kinds, cfg):
            # Of a bin's 31 windows, only the last block holds one.
            if len(windows) == 1:
                raise NonFiniteStatistic(DetectorKind.ED, 0)
            return scored(windows, kinds, cfg)

        monkeypatch.setattr(cli, "statistics_for_bursts", last_block_fails)
        code = main(["cfar-sweep", "--detectors", "ed", "--recorded", FIXTURE, "--bins", "1,2",
                     "--k", "8", "--stride", "4", "--pfa", "0.1", "--cal-trials", "1000",
                     "--workers", "2", "--out", str(tmp_path / "rec.csv")])
        assert code == 3
        assert capsys.readouterr().err.endswith(
            "\nerror: ed statistic is not finite at burst 0 (bin 1, window 30)\n"
        )
