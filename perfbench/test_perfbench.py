"""Self-tests of the benchmark's arithmetic, tracer and artifact check.

    python3 -m pytest perfbench
"""

import types

import pytest

import metrics
from tracer import Span, Tracer
from workloads import CSV_HEADER, WORKLOADS, check_artifact


def spans_from(rows):
    return [Span(name, start, end, parent, "r", counts) for name, start, end, parent, counts in rows]


def test_self_time_subtracts_direct_children_only():
    spans = spans_from([
        ("root", 0.0, 10.0, None, {}),
        ("a", 1.0, 4.0, 0, {}),
        ("a.inner", 2.0, 3.0, 1, {}),
        ("b", 5.0, 9.0, 0, {}),
    ])
    assert metrics.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = spans_from([
        ("root", 0.0, 10.0, None, {}),
        ("a", 1.0, 5.0, 0, {}),
        ("b", 4.0, 6.0, 0, {}),
        ("c", 9.0, 12.0, 0, {}),  # clipped to the parent's end
    ])
    assert metrics.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 31))  # 30 samples
    value, pct = metrics.tail(values, "lower")
    assert value == 20 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)
    value, _ = metrics.tail(values, "higher")
    assert value == 11 and sum(v < value for v in values) == 10


def test_tail_needs_eleven_samples():
    assert metrics.tail(range(10)) == (None, None)
    assert metrics.tail(range(11)) == (0, pytest.approx(100.0 / 11))


def test_summary_quartiles_match_statistics_module():
    s = metrics.summary([4.0, 1.0, 3.0, 2.0])
    assert (s["q1"], s["median"], s["q3"]) == (1.25, 2.5, 3.75)
    assert s["samples"] == 4 and s["tail"] is None
    assert metrics.summary([7.0])["median"] == 7.0


def test_parallel_eff():
    assert metrics.parallel_eff(12.0, 2, 8.0) == pytest.approx(0.75)
    assert metrics.parallel_eff(5.0, 1, 5.0) == pytest.approx(1.0)


def test_layer_metrics_on_synthetic_run():
    # Two sample_statistics calls: two blocks, then one block.
    rows = [("cli.run", 0.0, 10.0, None, {}),
            ("montecarlo.calibrate_thresholds", 0.0, 6.0, 0, {})]
    t = 0.0
    for start in (0, 512):
        rows.append(("scenario.gen_block", t, t + 1.0, 1, {"trials": 512, "start": start}))
        rows.append(("detectors.statistics_batch", t + 1.0, t + 3.0, 1, {"bursts": 512}))
        rows.append(("estimation.cyclic_ml_batch", t + 1.5, t + 2.5, len(rows) - 1,
                     {"bursts": 512, "iters": 1024}))
        t += 3.0
    rows.append(("montecarlo.pfa_sweep", 6.0, 9.0, 0, {}))
    rows.append(("scenario.gen_block", 6.0, 7.0, len(rows) - 1, {"trials": 256, "start": 0}))
    rows.append(("detectors.statistics_batch", 7.0, 8.0, len(rows) - 2, {"bursts": 256}))
    out = metrics.layer_metrics(spans_from(rows), workers=2, untraced_wall_s=5.0,
                                untraced_inproc_s=8.0)
    assert out["montecarlo.blocks"] == 3
    assert out["montecarlo.pool_starts"] == 1
    assert out["montecarlo.block_ms_p50"] == pytest.approx(3000.0)
    assert out["scenario.gen_us_per_trial"] == pytest.approx(1e6 * 3.0 / 1280)
    assert out["estimation.cyclic_ml_iters_mean"] == pytest.approx(2.0)
    assert out["detectors.self_us_per_burst"] == pytest.approx(1e6 * 3.0 / 1280)
    assert out["detectors.batch_bursts_mean"] == pytest.approx(1280 / 3)
    assert out["montecarlo.self_s"] == pytest.approx(1.0)
    assert out["cli.self_s"] == pytest.approx(1.0)
    assert out["montecarlo.parallel_eff"] == pytest.approx(10.0 / (2 * 5.0))
    assert out["trace.overhead_frac"] == pytest.approx(0.25)
    assert out["estimation.em_calls"] == 0 and out["estimation.cyclic_em_us_per_burst"] == 0.0
    shares = sum(out[f"{layer}.share"] for layer in metrics.LAYERS)
    assert shares == pytest.approx(1.0)


def test_tracer_records_nesting_and_counts_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda t: t * 2
    mod.outer = lambda x: mod.inner(x) + 1
    original = mod.inner
    wraps = (("m", "outer", "layer.outer", None),
             ("m", "inner", "layer.inner", lambda a, r: {"elements": a["t"], "result": r}))
    with Tracer("run-1", {"m": mod}, wraps) as tracer:
        with tracer.span("root"):
            assert mod.outer(3) == 7
    assert mod.inner is original
    names = [(s.name, s.parent, s.run_id) for s in tracer.spans]
    assert names == [("root", None, "run-1"), ("layer.outer", 0, "run-1"),
                     ("layer.inner", 1, "run-1")]
    assert tracer.spans[2].counts == {"elements": 3, "result": 6}
    assert all(s.end >= s.start for s in tracer.spans)


def _write_artifact(tmp_path, workload, tweak=None):
    lines = [CSV_HEADER]
    for detector, abscissa, trials in workload.expected_rows():
        lines.append(f"{detector},{abscissa!r},0.5,0.4,0.6,{trials}")
    if tweak:
        lines = tweak(lines)
    path = tmp_path / "a.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_artifact_check_accepts_a_well_formed_file(tmp_path, name):
    assert check_artifact(WORKLOADS[name], _write_artifact(tmp_path, WORKLOADS[name])) is None


@pytest.mark.parametrize("tweak, message", [
    (lambda lines: lines[:-1], "rows"),
    (lambda lines: ["detector,x"] + lines[1:], "header"),
    (lambda lines: [lines[0], lines[1].replace(",0.5,", ",0.7,")] + lines[2:], "outside"),
    (lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",7"] + lines[2:], "expected"),
])
def test_artifact_check_rejects(tmp_path, tweak, message):
    workload = WORKLOADS["pd-adaptive"]
    assert message in check_artifact(workload, _write_artifact(tmp_path, workload, tweak))
