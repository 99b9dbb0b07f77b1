"""The names perfbench/tracer.py wraps must stay where it looks for them.

The benchmark's traced run replaces each `(module, attribute)` of
`tracer.WRAPS` by a span-recording wrapper, so renaming or dropping one of
those imports breaks the traced run, and calling an engine other than
through its module global hides it from the trace.
"""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from hetdet import cli, detectors, estimation
from hetdet.detectors import DetectorKind, statistics_batch
from hetdet.scenario import Hypothesis, ScenarioConfig, directions, gen_block

TESTS = pathlib.Path(__file__).resolve().parent
TRACER = TESTS.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    wraps = _tracer().WRAPS
    assert wraps
    for module_name, attr, _, _ in wraps:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_cyclic_em_calls_each_inner_pass_once_per_outer_iteration(monkeypatch):
    calls = {"em_mean_batch": 0, "em_sigma_batch": 0}
    for name in calls:
        original = getattr(estimation, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(estimation, name, counted)

    x, _ = gen_block(ScenarioConfig(k=16, delta=10.0, snr_db=9.0), Hypothesis.H1, 80, 0, 64)
    z = directions(x)[0]
    m0, s20 = estimation.em_init(x, z, estimation.EstimationConfig())
    _, _, _, iters = estimation.cyclic_em_batch(z, m0, s20, 1.0, 15, 20, 20, 1e-3, 1e-2, 1e-2)
    assert len(set(iters.tolist())) > 1
    assert calls == {"em_mean_batch": int(np.max(iters)), "em_sigma_batch": int(np.max(iters))}


# The estimators `statistics_batch` reaches through `hetdet.detectors`
# globals, keyed by the row input that runs each.  log1p_mills, reached the
# same way, is the kernel of the direction-domain statistics alone.
ESTIMATORS = {"ml": "cyclic_ml_batch", "em": "cyclic_em_batch"}
DIRECTION_STATISTICS = {DetectorKind.AGD, DetectorKind.C_AGD}


def _count_engines(monkeypatch) -> dict:
    calls = dict.fromkeys([*ESTIMATORS.values(), "log1p_mills"], 0)
    for name in calls:
        original = getattr(detectors, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(detectors, name, counted)
    return calls


def _batch(kinds):
    scen = ScenarioConfig(k=16, delta=10.0, snr_db=6.0)
    x, s2 = gen_block(scen, Hypothesis.H1, 90, 0, 8)
    return statistics_batch(x, kinds, estimation.EstimationConfig(), scen.target_mean, s2)


@pytest.mark.parametrize("kind", list(DetectorKind), ids=lambda kind: kind.value)
def test_each_row_runs_exactly_the_estimators_it_reads(monkeypatch, kind):
    inputs = detectors._ROWS[kind][0]
    calls = _count_engines(monkeypatch)
    _batch([kind])
    for name, engine in ESTIMATORS.items():
        assert calls[engine] == int(name in inputs), engine
    assert (calls["log1p_mills"] > 0) == (kind in DIRECTION_STATISTICS)


def test_every_kind_shares_one_run_of_each_estimator(monkeypatch):
    calls = _count_engines(monkeypatch)
    assert list(_batch(list(DetectorKind))) == list(DetectorKind)
    assert calls == {"cyclic_ml_batch": 1, "cyclic_em_batch": 1, "log1p_mills": len(DIRECTION_STATISTICS)}


# Tiny runs of each command at one worker, and the span names the tracer sees:
# every layer the command reaches through a wrapped module global.
_CALIBRATED = ["--pfa", "0.1", "--cal-trials", "1000", "--workers", "1"]
_WRITERS = {"montecarlo.write_curves_csv", "montecarlo.write_manifest"}
_SCORING = {"detectors.statistics_batch", "estimation.cyclic_ml_batch", "numerics.log1p_mills"}
COMMAND_SPANS = {
    "recorded-cfar-sweep": (
        ["cfar-sweep", "--detectors", "gd-he,c-agd,ed", "--recorded", str(TESTS / "data" / "recorded_clutter.csv"),
         "--k", "8", "--stride", "4", *_CALIBRATED],
        {"scenario.ingest_recorded", "scenario.sliding_bursts", "montecarlo.statistics_for_bursts",
         "montecarlo.calibrate_thresholds", *_SCORING, *_WRITERS},
    ),
    "synthetic-cfar-sweep": (
        ["cfar-sweep", "--detectors", "gd-he,c-agd,ed", "--delta-grid", "0,10", "--trials", "50", *_CALIBRATED],
        {"montecarlo.calibrate_thresholds", "montecarlo.pfa_sweep", *_SCORING, *_WRITERS},
    ),
    "pd-curve": (
        ["pd-curve", "--detectors", "agd,gd-he,ed", "--snr-grid", "6,9", "--trials", "20", *_CALIBRATED],
        {"montecarlo.pd_curves", "estimation.cyclic_em_batch", "estimation.em_mean_batch",
         "estimation.em_sigma_batch", "estimation.angular_loglik", *_SCORING, *_WRITERS},
    ),
    "convergence": (
        ["convergence", "--algorithm", "cyclic-em", "--trials", "8"],
        {"scenario.gen_block", "estimation.em_mean_batch", "estimation.em_sigma_batch",
         "estimation.angular_loglik", "numerics.log1p_mills", "montecarlo.write_manifest"},
    ),
}


@pytest.mark.parametrize("command", list(COMMAND_SPANS))
def test_each_command_shows_the_tracer_its_layers(tmp_path, capsys, command):
    """A refactor that calls a layer other than through its wrapped global zeroes its metrics."""
    argv, expected = COMMAND_SPANS[command]
    modules = {name: module for name, module in sys.modules.items() if name.startswith("hetdet")}
    with _tracer().Tracer(command, modules) as tracer:
        assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    capsys.readouterr()
    assert {span.name for span in tracer.spans} == expected
