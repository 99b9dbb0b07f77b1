"""Metric arithmetic: sample summaries, span self time, and per-layer metrics.

Everything here is pure: it reads numbers or recorded spans and returns
numbers, so the self-tests can check it on synthetic input.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

TAIL_BEYOND = 10
LAYERS = ("scenario", "estimation", "numerics", "detectors", "montecarlo", "cli")


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, better: str = "lower"):
    """The highest percentile with at least ten samples beyond it.

    "Beyond" is the worse side: larger values when lower is better, smaller
    ones when higher is better.  Returns (value, percentile in %), or
    (None, None) when there are fewer than eleven samples.
    """
    values = sorted(values, reverse=(better == "higher"))
    n = len(values)
    if n <= TAIL_BEYOND:
        return None, None
    return values[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def summary(values, better: str = "lower") -> dict:
    """Median, quartiles, tail and sample count of one metric's samples."""
    q1, median, q3 = quartiles(values)
    tail_value, tail_pct = tail(values, better)
    return {
        "median": median, "q1": q1, "q3": q3,
        "tail": tail_value, "tail_percentile": tail_pct, "samples": len(values),
    }


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def parallel_eff(sequential_s: float, workers: int, wall_s: float) -> float:
    """Sequential compute time over the wall time times the worker count."""
    return sequential_s / (workers * wall_s)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, workers: int, untraced_wall_s: float, untraced_inproc_s: float) -> dict:
    """Per-layer metrics of one traced run.

    spans[0] must be the root span around the whole run.  `workers` is the
    worker count of the untraced CLI run, `untraced_wall_s` its median wall
    time, and `untraced_inproc_s` the wall time of an untraced in-process
    pass of the same run, against which the tracing cost is measured.
    """
    selfs = self_times(spans)
    root = spans[0].duration
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    for span, self_s in zip(spans, selfs):
        total[span.name] += span.duration
        own[span.name] += self_s
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[span.name][key] += value

    def layer_share(layer):
        return _ratio(sum(v for k, v in own.items() if k.startswith(layer + ".")), root)

    # A block is one gen_block followed by its statistics_batch sibling; a
    # block starting at trial 0 opens a new sample_statistics call.
    block_ms = []
    blocks_per_call = []
    pending = {}
    for span in spans:
        if span.name == "scenario.gen_block":
            pending[span.parent] = span
            if span.counts["start"] == 0:
                blocks_per_call.append(0)
            blocks_per_call[-1] += 1
        elif span.name == "detectors.statistics_batch" and span.parent in pending:
            gen = pending.pop(span.parent)
            block_ms.append(1e3 * (gen.duration + span.duration))
    block_p50 = quartiles(block_ms)[1] if block_ms else 0.0
    block_tail = tail(block_ms)[0]
    if block_tail is None:  # fewer than 11 blocks: the slowest one
        block_tail = max(block_ms, default=0.0)

    em = "estimation.cyclic_em_batch"
    ml = "estimation.cyclic_ml_batch"
    stats = "detectors.statistics_batch"
    kernels = ("numerics.log1p_mills", "numerics.cond_mean_norm", "numerics.cond_mean_sq_residual")
    monte = ("montecarlo.calibrate_thresholds", "montecarlo.pfa_sweep",
             "montecarlo.pd_curves", "montecarlo.statistics_for_bursts")
    writes = ("montecarlo.write_curves_csv", "montecarlo.write_manifest")

    def per(name, key, scale):
        return scale * _ratio(total[name], counts[name][key])

    out = {
        "scenario.gen_us_per_trial": per("scenario.gen_block", "trials", 1e6),
        "scenario.ingest_us_per_cell": per("scenario.ingest_recorded", "cells", 1e6),
        "scenario.window_us": per("scenario.sliding_bursts", "windows", 1e6),
        "estimation.cyclic_em_us_per_burst": per(em, "bursts", 1e6),
        "estimation.angular_loglik_share": _ratio(total["estimation.angular_loglik"], total[em]),
        "estimation.bookkeeping_share": _ratio(
            own[em] + own["estimation.em_mean_batch"] + own["estimation.em_sigma_batch"], total[em]
        ),
        "estimation.cyclic_em_iters_mean": _ratio(counts[em]["iters"], counts[em]["bursts"]),
        "estimation.cyclic_em_cap_frac": _ratio(counts[em]["cap_hits"], counts[em]["bursts"]),
        "estimation.em_calls": calls["estimation.em_mean_batch"] + calls["estimation.em_sigma_batch"],
        "estimation.cyclic_ml_us_per_burst": per(ml, "bursts", 1e6),
        "estimation.cyclic_ml_iters_mean": _ratio(counts[ml]["iters"], counts[ml]["bursts"]),
        "numerics.elements": sum(counts[k]["elements"] for k in kernels),
        "numerics.log1p_mills_ns": per(kernels[0], "elements", 1e9),
        "numerics.cond_mean_norm_ns": per(kernels[1], "elements", 1e9),
        "numerics.cond_mean_sq_residual_ns": per(kernels[2], "elements", 1e9),
        "detectors.self_us_per_burst": 1e6 * _ratio(own[stats], counts[stats]["bursts"]),
        "detectors.batch_bursts_mean": _ratio(counts[stats]["bursts"], calls[stats]),
        "montecarlo.blocks": sum(blocks_per_call),
        "montecarlo.pool_starts": (
            sum(1 for n in blocks_per_call if n > 1) if workers > 1 else 0
        ),
        "montecarlo.block_ms_p50": block_p50,
        "montecarlo.block_ms_tail": block_tail,
        "montecarlo.parallel_eff": parallel_eff(root, workers, untraced_wall_s),
        "montecarlo.self_s": sum(own[k] for k in monte),
        "cli.self_s": own["cli.run"],
        "cli.write_s": sum(total[k] for k in writes),
        "trace.overhead_frac": root / untraced_inproc_s - 1.0,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_share(layer)
    return out


def span_table(spans) -> dict:
    """Calls, total and self seconds per span name, for the result file."""
    selfs = self_times(spans)
    table = {}
    for span, self_s in zip(spans, selfs):
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += self_s
    root = spans[0].duration
    for row in table.values():
        row["share_of_wall"] = row["total_s"] / root
    return table
