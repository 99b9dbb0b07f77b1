"""Iterative parameter estimation for heterogeneous two-dimensional Gaussians.

Two estimators of the common mean and per-sample variances, both constrained
by a variance floor c0:

- cyclic maximum likelihood on the raw samples: alternate the weighted-mean
  update with the floored residual-variance update until the log-likelihood
  change drops below eps;
- a doubly iterative scheme on the unit directions alone: an inner
  expectation-maximization pass over the mean (magnitudes as hidden data),
  an inner pass over the variances, cycled until the direction-domain
  log-likelihood settles.

The batched engines work on stacks of bursts ((B, K, 2) arrays) and share
one ascent driver with per-burst early stopping; each engine supplies only
its update step.  A single burst is a stack of one.  Every step is an
exact coordinate ascent or EM step, so all traces are non-decreasing up to
float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    _em_parts,
    _pair_diff,
    _per_plane,
    _project,
    _pulse_sum,
    _sq_norm,
    log1p_mills,
)

# The EM engines run on the unchecked _em_parts kernel.  The checked public
# moment kernels stay importable under these names, where perfbench/tracer.py
# wraps them.
from .numerics import cond_mean_norm, cond_mean_sq_residual  # noqa: F401

_LOG_2PI = float(np.log(2.0 * np.pi))

__all__ = [
    "EstimationConfig",
    "angular_loglik",
    "cyclic_em_batch",
    "cyclic_ml_batch",
    "em_mean_batch",
    "em_sigma_batch",
    "gaussian_loglik",
]


@dataclass(frozen=True)
class EstimationConfig:
    """Iteration caps, stopping tolerances, and the variance floor.

    eps stops the cyclic ML loop, eps1/eps2 the two inner EM loops, eps3 the
    outer cycle; all are absolute changes in log-likelihood.  paper_init
    selects the raw-sample initialization for the direction-domain estimator
    instead of the default scale-free one.
    """

    c0: float = 1.0
    n_co1: int = 15
    n_co2: int = 15
    n_em_m: int = 20
    n_em_sigma: int = 20
    eps: float = 1e-2
    eps1: float = 1e-3
    eps2: float = 1e-2
    eps3: float = 1e-2
    paper_init: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.c0) and self.c0 > 0):
            raise ValueError("c0 must be finite and > 0")
        for name in ("n_co1", "n_co2", "n_em_m", "n_em_sigma"):
            if not isinstance(getattr(self, name), int) or getattr(self, name) < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        for name in ("eps", "eps1", "eps2", "eps3"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and >= 0")


def gaussian_loglik(x: np.ndarray, m: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Raw-sample log-likelihood, summed over pulses; batched over leading axes."""
    x = np.ascontiguousarray(x, dtype=float)
    m = np.ascontiguousarray(m, dtype=float)
    return _gaussian_sum(_sq_norm(_pair_diff(x, m)), sigma2)


def _gaussian_sum(q: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """gaussian_loglik from the squared residual norms q = ||x - m||^2."""
    return -np.sum(np.log(2.0 * np.pi * sigma2) + q / (2.0 * sigma2), axis=-1)


def angular_loglik(z: np.ndarray, m: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Direction-domain log-likelihood, summed over pulses; batched over leading axes."""
    m = np.asarray(m)
    msq = _sq_norm(m)[..., None]
    t = _project(z, m) / np.sqrt(sigma2)
    return _loglik_sum(msq, sigma2, log1p_mills(t))


def _loglik_sum(msq: np.ndarray, sigma2: np.ndarray, log_term: np.ndarray) -> np.ndarray:
    return np.sum(-msq / (2.0 * sigma2) - _LOG_2PI + log_term, axis=-1)


def _em_point(p: np.ndarray, msq: np.ndarray, sigma2: np.ndarray):
    """(log-likelihood, conditional mean magnitudes, conditional squared residuals).

    All three at one point of the direction EM, from one _em_parts pass over
    p = z.m (B, K), msq = ||m||^2 (B, 1) and sigma2 (B, K).  The
    log-likelihood equals angular_loglik at that point bit for bit.
    """
    log_term, mean, resid = _em_parts(p, sigma2)
    return _loglik_sum(msq, sigma2, log_term), mean, resid + msq


def _h0_variances(e: np.ndarray, c0: float) -> np.ndarray:
    """Floored no-target variance estimates from the per-sample energies e = ||x_k||^2."""
    return np.maximum(0.5 * e, c0)


def ml_init(e: np.ndarray, cfg: EstimationConfig) -> np.ndarray:
    """Starting variances of the cyclic ML ascent from the per-sample energies e = ||x_k||^2."""
    return np.maximum(e, cfg.c0)


def em_init(x: np.ndarray, z: np.ndarray, cfg: EstimationConfig):
    """Starting (mean, variances) of the direction EM: floored moments of z, or of x under paper_init."""
    u = x if cfg.paper_init else z
    m0 = _pulse_sum(u) / u.shape[1]
    return m0, np.maximum(0.5 * _sq_norm(_pair_diff(u, m0)), cfg.c0)


def _ascend(step, state, consts, ll0, n_max: int, eps: float):
    """Early-stopping ascent shared by the batched engines.

    `state` and `consts` are tuples of per-burst arrays (leading axis B);
    `step(*state, *consts)` maps the rows of the still-active bursts to
    (new state tuple, new log-likelihood).  A burst stops once its
    log-likelihood moves by less than eps, and its rows are then left alone.
    Returns (state, trace (B, n_max + 1) with ll0 in column 0 and NaN past
    each burst's stopping point, iteration counts (B,)).

    The loop keeps the active rows compacted: an iteration where no burst
    stops copies nothing, and one where some stop writes back only theirs.
    """
    out = tuple(np.array(s, dtype=float) for s in state)
    b = ll0.shape[0]
    trace = np.full((b, n_max + 1), np.nan)
    trace[:, 0] = ll0
    iters = np.full(b, n_max)
    rows = np.arange(b)
    cur, last = out, ll0
    for n in range(1, n_max + 1):
        cur, ll = step(*cur, *consts)
        trace[rows, n] = ll
        done = np.abs(ll - last) < eps
        if done.any():
            stopped = rows[done]
            for o, s in zip(out, cur):
                o[stopped] = s[done]
            iters[stopped] = n
            keep = ~done
            rows = rows[keep]
            if not rows.size:
                return out, trace, iters
            cur = tuple(s[keep] for s in cur)
            consts = tuple(c[keep] for c in consts)
            ll = ll[keep]
        last = ll
    for o, s in zip(out, cur):
        o[rows] = s
    return out, trace, iters


def cyclic_ml_batch(x: np.ndarray, sigma2_init: np.ndarray, c0: float, n_max: int, eps: float):
    """Cyclic ML over stacked bursts.

    Returns (m (B,2), sigma2 (B,K), loglik trace (B,n_max) NaN-padded past
    each burst's stopping point, iteration counts (B,)).  The first iteration
    has no predecessor to compare with, so no burst stops there.
    """

    def step(m, s2, xa):
        w = 1.0 / s2
        m_new = _per_plane(np.divide, _pulse_sum(_per_plane(np.multiply, xa, w)), np.sum(w, axis=1))
        q = _sq_norm(_pair_diff(xa, m_new))
        s2_new = np.maximum(0.5 * q, c0)
        return (m_new, s2_new), _gaussian_sum(q, s2_new)

    x = np.ascontiguousarray(x, dtype=float)
    b = x.shape[0]
    (m, s2), trace, iters = _ascend(
        step, (np.zeros((b, 2)), sigma2_init), (x,), np.full(b, -np.inf), n_max, eps
    )
    return m, s2, trace[:, 1:], iters


def em_mean_batch(z: np.ndarray, m_init: np.ndarray, sigma2: np.ndarray, n_max: int, eps: float):
    """EM over the mean with variances held fixed, batched.

    Trace has n_max + 1 columns; column 0 is the log-likelihood at m_init.
    """

    def at(za, m, s2):
        ll, h, _ = _em_point(_project(za, m), _sq_norm(m)[:, None], s2)
        return ll, h

    def step(m, h, za, s2, w, w_sum):
        m_new = _per_plane(np.divide, _pulse_sum(_per_plane(np.multiply, za, h * w)), w_sum)
        ll_new, h_new = at(za, m_new, s2)
        return (m_new, h_new), ll_new

    w = 1.0 / sigma2
    ll0, h0 = at(z, m_init, sigma2)
    (m, _), trace, iters = _ascend(
        step, (m_init, h0), (z, sigma2, w, np.sum(w, axis=1)), ll0, n_max, eps
    )
    return m, trace, iters


def em_sigma_batch(z: np.ndarray, m: np.ndarray, sigma2_init: np.ndarray, c0: float, n_max: int, eps: float):
    """EM over the variances with the mean held fixed, batched.

    The floored update is the constrained maximizer of each step's surrogate,
    so the trace stays non-decreasing.  Trace column 0 is the starting value.
    """

    def step(s2, resid, p, msq):
        s2_new = np.maximum(0.5 * resid, c0)
        ll_new, _, resid_new = _em_point(p, msq, s2_new)
        return (s2_new, resid_new), ll_new

    p = _project(z, m)
    msq = _sq_norm(m)[:, None]
    ll0, _, resid0 = _em_point(p, msq, sigma2_init)
    (s2, _), trace, iters = _ascend(step, (sigma2_init, resid0), (p, msq), ll0, n_max, eps)
    return s2, trace, iters


def cyclic_em_batch(
    z: np.ndarray,
    m_init: np.ndarray,
    sigma2_init: np.ndarray,
    c0: float,
    n_co2: int,
    n_em_m: int,
    n_em_sigma: int,
    eps1: float,
    eps2: float,
    eps3: float,
):
    """Outer cycle alternating the two inner EM passes, batched.

    Each outer iteration warm-starts both passes from the current estimates.
    Returns (m, sigma2, outer trace (B, n_co2 + 1) with the initialization in
    column 0, outer iteration counts).
    """

    def step(m, s2, za):
        m_new, _, _ = em_mean_batch(za, m, s2, n_em_m, eps1)
        s2_new, trace, iters = em_sigma_batch(za, m_new, s2, c0, n_em_sigma, eps2)
        # The sigma pass ends at (m_new, s2_new); its last entry is the outer log-likelihood.
        return (m_new, s2_new), trace[np.arange(iters.size), iters]

    (m, s2), trace, iters = _ascend(
        step, (m_init, sigma2_init), (z,), angular_loglik(z, m_init, sigma2_init), n_co2, eps3
    )
    return m, s2, trace, iters
