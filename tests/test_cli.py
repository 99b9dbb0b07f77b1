"""End-to-end checks of the command-line front end.

Runs every subcommand in-process through `main` with small trial counts,
and checks flag/config-file precedence, artifact contents, determinism of
written CSV bytes, and the exit-code contract (0 ok, 2 config, 3 runtime).
"""

import json
import os

import numpy as np
import pytest

from hetdet import estimation, montecarlo
from hetdet.cli import ConfigError, main, parse_config
from hetdet.detectors import DetectorKind
from hetdet.montecarlo import calibrate_thresholds
from hetdet.scenario import ScenarioConfig, ingest_recorded, pulse_powers

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "recorded_clutter.csv")


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _dies_in_worker(args):
    """Stand-in block function that ends its pool worker process."""
    os._exit(1)


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
        assert cfg.detectors == tuple(DetectorKind)
        assert cfg.estimation.c0 == cfg.scenario.c0 == 1.0
        assert not cfg.estimation.paper_init

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
        assert cfg.scenario.c0 == 0.25
        assert cfg.estimation.c0 == 0.25

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

    def test_cfar_sweep_rejects_base_model_flags(self, tmp_path):
        with pytest.raises(ConfigError, match="grids"):
            parse_config(["cfar-sweep", "--delta", "5", "--delta-grid", "0,5",
                          "--out", str(tmp_path / "s.csv")])

    def test_recorded_mode_conflicts(self, tmp_path):
        out = str(tmp_path / "s.csv")
        with pytest.raises(ConfigError, match="grids"):
            parse_config(["cfar-sweep", "--recorded", FIXTURE, "--delta-grid", "0",
                          "--out", out])
        with pytest.raises(ConfigError, match="ground truth"):
            parse_config(["cfar-sweep", "--recorded", FIXTURE, "--detectors", "cd",
                          "--out", out])

    def test_calibration_floor_enforced(self, tmp_path):
        out = str(tmp_path / "c.csv")
        with pytest.raises(ConfigError, match="ceil"):
            parse_config(["pd-curve", "--snr-grid", "1", "--cal-trials", "50",
                          "--pfa", "0.1", "--out", out])
        with pytest.raises(ConfigError, match="ceil"):
            parse_config(["calibrate", "--trials", "500", "--pfa", "0.01",
                          "--out", str(tmp_path / "t.json")])

    def test_unwritable_out_rejected(self):
        with pytest.raises(ConfigError, match="directory"):
            parse_config(["pd-curve", "--snr-grid", "1", "--out", "/nonexistent/dir/c.csv"])

    def test_unknown_detector_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(["pd-curve", "--snr-grid", "1", "--detectors", "ed,bogus",
                          "--out", str(tmp_path / "c.csv")])

    def test_pfa_range_checked(self, tmp_path):
        with pytest.raises(ConfigError, match="pfa"):
            parse_config(["pd-curve", "--snr-grid", "1", "--pfa", "1.5",
                          "--out", str(tmp_path / "c.csv")])

    @pytest.mark.parametrize(
        "values",
        [{"trials": 300.7}, {"k": 16.9}, {"seed": 1.5}, {"trials": True}, {"cal_seed": False},
         {"target_phase": True}, {"sigma_n2": True}, {"snr_grid": [True, 2.0]}],
    )
    def test_file_numbers_are_not_reinterpreted(self, tmp_path, values):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"snr_grid": [1.0], **values}))
        with pytest.raises(ConfigError, match=next(iter(values))):
            parse_config(["pd-curve", "--config", str(path), "--out", str(tmp_path / "c.csv")])

    @pytest.mark.parametrize(
        "file_cfg, flags",
        [({}, ["--offset", "inf"]), ({}, ["--offset", "-1", "--offset-mode", "noise"]),
         ({"offset_mode": "bogus"}, [])],
    )
    @pytest.mark.parametrize("command", [["power-trace"], ["cfar-sweep", "--detectors", "ed"]])
    def test_bad_offset_rejected(self, tmp_path, command, file_cfg, flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file_cfg))
        with pytest.raises(ConfigError, match="offset"):
            parse_config([*command, "--config", str(path), "--recorded", FIXTURE, *flags,
                          "--out", str(tmp_path / "p.csv")])

    def test_integral_float_accepted_for_integer_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": 300.0, "k": 8.0}))
        cfg = parse_config(["pd-curve", "--config", str(path), "--snr-grid", "1",
                            "--out", str(tmp_path / "c.csv")])
        assert cfg.trials == 300 and isinstance(cfg.trials, int)
        assert cfg.scenario.k == 8


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
         (["--recorded", FIXTURE, "--bins", "0,7"], 3)],
    )
    def test_bad_recorded_input_fails_before_calibration(self, tmp_path, capsys, args, code):
        args = [a.replace("{tmp}", str(tmp_path)) for a in args]
        assert main(["cfar-sweep", "--detectors", "ed", "--pfa", "0.1", "--cal-trials", "1000",
                     *args, "--out", str(tmp_path / "c.csv")]) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and "calibrat" not in err

    def test_non_finite_statistic_is_3(self, tmp_path, capsys, monkeypatch):
        fused = estimation._em_parts

        def poisoned(p, sigma2):
            log_term, mean, resid = fused(p, sigma2)
            mean[0] = np.nan
            return log_term, mean, resid

        monkeypatch.setattr(estimation, "_em_parts", poisoned)
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

    def test_malformed_recorded_file_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("bin_index,pulse_index,re,im\n0,0,oops,1.0\n")
        code = main(["power-trace", "--recorded", str(bad), "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert "error:" in capsys.readouterr().err


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
        assert payload["thresholds"]["ed"]["eta"] == expected[DetectorKind.ED].eta
        assert payload["thresholds"]["chd"]["eta"] == expected[DetectorKind.CHD].eta


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
        assert manifest["calibration_scenario"]["delta"] == 0.0
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
        assert manifest["snr_db"] == 10.0

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
