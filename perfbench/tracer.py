"""Outside-in span recording for one in-process hetdet run.

Spans are taken from here, not from inside the package: each traced public
function is replaced, under the name its consumer module imported it as, by a
wrapper that records a span (name, start, end, parent span, run id) and a few
counts read from the call's arguments and return value.  Spans are kept in
memory and written out once the run ends.  Wrappers are removed on exit, so
one process can run traced and untraced passes of the same code.

Spans recorded inside pool worker processes would be lost, so a traced run
must use workers=1.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time

import numpy as np


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("name", "start", "end", "parent", "run_id", "counts")

    def __init__(self, name, start, end=float("nan"), parent=None, run_id="", counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run_id = run_id
        self.counts = counts or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "run_id": self.run_id, "counts": self.counts,
        }


def _bursts(a, result):
    return {"bursts": int(np.shape(a["x"])[0])}


def _ml_counts(a, result):
    return {"bursts": int(np.shape(a["x"])[0]), "iters": int(np.sum(result[3]))}


def _em_counts(a, result):
    iters = result[3]
    return {
        "bursts": int(np.shape(a["z"])[0]),
        "iters": int(np.sum(iters)),
        "cap_hits": int(np.count_nonzero(iters == a["n_co2"])),
    }


def _elements(arg):
    return lambda a, result: {"elements": int(np.size(a[arg]))}


# (module, attribute, span name, counts from the bound arguments and result).
# The span name is the layer that defines the function, then the function.
WRAPS = (
    ("hetdet.montecarlo", "gen_block", "scenario.gen_block",
     lambda a, r: {"trials": int(a["count"]), "start": int(a["start"])}),
    ("hetdet.montecarlo", "statistics_batch", "detectors.statistics_batch", _bursts),
    ("hetdet.detectors", "cyclic_ml_batch", "estimation.cyclic_ml_batch", _ml_counts),
    ("hetdet.detectors", "cyclic_em_batch", "estimation.cyclic_em_batch", _em_counts),
    ("hetdet.detectors", "log1p_mills", "numerics.log1p_mills", _elements("t")),
    ("hetdet.estimation", "em_mean_batch", "estimation.em_mean_batch", None),
    ("hetdet.estimation", "em_sigma_batch", "estimation.em_sigma_batch", None),
    ("hetdet.estimation", "angular_loglik", "estimation.angular_loglik", None),
    ("hetdet.estimation", "log1p_mills", "numerics.log1p_mills", _elements("t")),
    ("hetdet.estimation", "cond_mean_norm", "numerics.cond_mean_norm", _elements("p")),
    ("hetdet.estimation", "cond_mean_sq_residual", "numerics.cond_mean_sq_residual",
     _elements("p")),
    ("hetdet.cli", "ingest_recorded", "scenario.ingest_recorded",
     lambda a, r: {"cells": int(r.cells.size)}),
    ("hetdet.cli", "sliding_bursts", "scenario.sliding_bursts",
     lambda a, r: {"windows": len(r)}),
    ("hetdet.cli", "statistics_for_bursts", "montecarlo.statistics_for_bursts", None),
    ("hetdet.cli", "calibrate_thresholds", "montecarlo.calibrate_thresholds", None),
    ("hetdet.cli", "pfa_sweep", "montecarlo.pfa_sweep", None),
    ("hetdet.cli", "pd_curves", "montecarlo.pd_curves", None),
    ("hetdet.cli", "write_curves_csv", "montecarlo.write_curves_csv", None),
    ("hetdet.cli", "write_manifest", "montecarlo.write_manifest", None),
)


class Tracer:
    """Installs span-recording wrappers for the duration of a `with` block."""

    def __init__(self, run_id: str, modules: dict, wraps=WRAPS):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._modules = modules
        self._wraps = wraps
        self._installed = []

    def __enter__(self):
        for module_name, attr, name, counter in self._wraps:
            module = self._modules[module_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, counter))
            self._installed.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent, run_id=self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a call the benchmark makes itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, original, name, counter):
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
