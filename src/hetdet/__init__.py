"""Adaptive detection of a steady target in heterogeneous Gaussian interference.

The package models bursts of K complex pulse returns whose per-pulse
interference power is unknown and varies across the burst.  It provides
stable numerics for the direction likelihood and its EM moments, two
iterative parameter-estimation procedures (a cyclic ML ascent on raw returns
and a doubly iterative EM ascent on pulse directions), eight detection
statistics built on them, synthetic scenario generators, recorded-series
ingestion, and a deterministic Monte Carlo harness with a command-line front
end.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# numpy's and scipy's bundled OpenBLAS each start a worker thread at import
# that only spins: nothing here calls BLAS.  Ask for none while they load,
# unless the caller chose a count or numpy is loaded already; the variable
# is gone again afterwards, so no child process inherits it.
_quiet_blas = "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ
if _quiet_blas:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .detectors import (
        DetectorKind,
        angular_statistic,
        statistics_batch,
    )
    from .estimation import (
        EstimationConfig,
        angular_loglik,
        gaussian_loglik,
    )
    from .montecarlo import (
        AlgorithmTag,
        CurvePoint,
        calibrate_thresholds,
        convergence_trace,
        pd_curves,
        pfa_sweep,
        sample_statistics,
        statistics_for_bursts,
        wilson_interval,
        write_curves_csv,
        write_manifest,
        write_trace_csv,
    )
    from .numerics import (
        cond_mean_norm,
        cond_mean_sq_residual,
        log1p_mills,
    )
    from .scenario import (
        Hypothesis,
        RecordedSeries,
        ScenarioConfig,
        gen_block,
        ingest_recorded,
        pulse_powers,
        sliding_bursts,
        trial_rng,
    )
finally:
    if _quiet_blas:
        del _os.environ["OPENBLAS_NUM_THREADS"]
    del _os, _sys, _quiet_blas

__all__ = [
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
