"""The names perfbench/tracer.py wraps must stay where it looks for them.

The benchmark's traced run replaces each `(module, attribute)` of
`tracer.WRAPS` by a span-recording wrapper, so renaming or dropping one of
those imports breaks the traced run, and calling an engine other than
through its module global hides it from the trace.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

from hetdet import estimation
from hetdet.scenario import Hypothesis, ScenarioConfig, directions, gen_block

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_every_wrapped_name_resolves():
    wraps = _wraps()
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
