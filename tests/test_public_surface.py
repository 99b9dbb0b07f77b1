"""The public surface: every exported name resolves, and the package's list is pinned.

Adding a name to `hetdet.__all__` should be a visible decision, so the list
is spelled out here in full.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import hetdet

PACKAGE_ALL = [
    "__version__",
    "AlgorithmTag",
    "CurvePoint",
    "DetectorKind",
    "EstimationConfig",
    "Hypothesis",
    "RecordedSeries",
    "ScenarioConfig",
    "angular_loglik",
    "angular_statistic",
    "calibrate_thresholds",
    "cond_mean_norm",
    "cond_mean_sq_residual",
    "convergence_trace",
    "gaussian_loglik",
    "gen_block",
    "ingest_recorded",
    "log1p_mills",
    "pd_curves",
    "pfa_sweep",
    "pulse_powers",
    "sample_statistics",
    "sliding_bursts",
    "statistics_batch",
    "statistics_for_bursts",
    "trial_rng",
    "wilson_interval",
    "write_curves_csv",
    "write_manifest",
    "write_trace_csv",
]

MODULES = [
    name
    for name in ["hetdet"] + [f"hetdet.{m.name}" for m in pkgutil.iter_modules(hetdet.__path__)]
    if hasattr(importlib.import_module(name), "__all__")
]


def test_package_exports_are_pinned():
    assert hetdet.__all__ == PACKAGE_ALL
    assert len(PACKAGE_ALL) == 30


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    for attr in exported:
        assert hasattr(module, attr), (name, attr)


# Imports the CLI, then reports its thread count and the variable it saw last.
_IMPORT_PROBE = (
    "import os, hetdet.cli\n"
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("given", [None, "2"])
def test_import_starts_no_idle_blas_threads(given):
    """Importing hetdet starts no OpenBLAS worker, and leaves the caller's environment as it was."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hetdet.__file__))
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
                           text=True, check=True)
    threads, seen = probe.stdout.split()
    if given is None:
        assert (threads, seen) == ("1", "None")
    else:
        assert seen == given
