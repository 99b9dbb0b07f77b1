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
    _em_core,
    _em_mean,
    _em_resid,
    _flat_indices,
    _pair_diff,
    _per_plane,
    _project,
    _pulse_sum,
    _sq_norm,
    log1p_mills,
)

# The EM engines run on the unchecked _em_core kernel.  The checked public
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
    return _loglik_sum(msq, 2.0 * sigma2, log1p_mills(t))


def _loglik_sum(msq: np.ndarray, two_s2: np.ndarray, log_term: np.ndarray) -> np.ndarray:
    """angular_loglik from ||m||^2 (..., 1), 2*sigma2 and the log1p_mills terms."""
    return np.add.reduce(-msq / two_s2 - _LOG_2PI + log_term, axis=-1)


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

    Every step treats each row on its own, so the order of the active rows
    is free: when some bursts stop, the surviving rows past the new end move
    into the stopped rows' places, and an iteration copies only as many rows
    as stopped.  The working arrays are copied once, at the first such move.
    Until then they may be views of the returned state, so a step may update
    its state arrays in place: the rows it is given belong to running
    bursts, whose rows of the returned state are written when they stop.
    """
    out = tuple(np.array(s, dtype=float) for s in state)
    b = ll0.shape[0]
    trace = np.full((b, n_max + 1), np.nan)
    trace[:, 0] = ll0
    iters = np.full(b, n_max)
    rows = np.arange(b)
    cur, last, owned = out, ll0, False
    for n in range(1, n_max + 1):
        cur, ll = step(*cur, *consts)
        trace[rows, n] = ll
        # At the cap every remaining burst stops.
        done = (np.abs(ll - last) < eps) | (n == n_max)
        if done.any():
            hit = done.nonzero()[0]
            stopped = rows[hit]
            for o, s in zip(out, cur):
                o[stopped] = s[hit]
            iters[stopped] = n
            live = rows.size - hit.size
            if not live:
                break
            holes = hit[: np.searchsorted(hit, live)]
            if holes.size:
                if not owned:
                    cur = tuple(s.copy() for s in cur)
                    consts = tuple(np.array(c) for c in consts)
                    owned = True
                movers = live + (~done[live:]).nonzero()[0]
                for a in (*cur, *consts, ll, rows):
                    a[holes] = a[movers]
            cur = tuple(s[:live] for s in cur)
            consts = tuple(c[:live] for c in consts)
            ll, rows = ll[:live], rows[:live]
        last = ll
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
    Each evaluation computes the log-likelihood and the conditional mean
    only, from per-pass constants sigma, 2 sigma^2, w and sum(w).
    """

    def at(za, m, sig, two_s2):
        p = _project(za, m)
        core = _em_core(p, sig)
        return _loglik_sum(_sq_norm(m)[:, None], two_s2, core.log_term), _em_mean(p, sig, core)

    def step(m, h, za, sig, two_s2, w, w_sum):
        m_new = _per_plane(np.divide, _pulse_sum(_per_plane(np.multiply, za, h * w)), w_sum)
        ll_new, h_new = at(za, m_new, sig, two_s2)
        return (m_new, h_new), ll_new

    sig = np.sqrt(sigma2)
    two_s2 = 2.0 * sigma2
    w = 1.0 / sigma2
    ll0, h0 = at(z, m_init, sig, two_s2)
    (m, _), trace, iters = _ascend(
        step, (m_init, h0), (z, sig, two_s2, w, np.sum(w, axis=1)), ll0, n_max, eps
    )
    return m, trace, iters


def em_sigma_batch(z: np.ndarray, m: np.ndarray, sigma2_init: np.ndarray, c0: float, n_max: int, eps: float):
    """EM over the variances with the mean held fixed, batched.

    The floored update is the constrained maximizer of each step's surrogate,
    so the trace stays non-decreasing.  Trace column 0 is the starting value.

    With p = z.m fixed, an element's log term and residual depend on its own
    variance alone.  So an element whose floored update equals its variance
    keeps both, bit for bit, and each step evaluates only the elements that
    moved.
    """

    def at(p, p2, s2):
        core = _em_core(p, np.sqrt(s2))
        return core.log_term, _em_resid(p2, s2, core)

    def step(s2, resid, log_term, p, p2, msq):
        s2_new = resid + msq
        s2_new *= 0.5
        np.maximum(s2_new, c0, out=s2_new)
        moved = _flat_indices(s2_new != s2)
        if moved.size == s2.size:
            log_term, resid = at(p, p2, s2_new)
        elif moved.size:
            log_moved, resid_moved = at(p.take(moved), p2.take(moved), s2_new.take(moved))
            np.put(log_term, moved, log_moved)
            np.put(resid, moved, resid_moved)
        return (s2_new, resid, log_term), _loglik_sum(msq, 2.0 * s2_new, log_term)

    p = _project(z, m)
    p2 = p * p
    msq = _sq_norm(m)[:, None]
    log_term0, resid0 = at(p, p2, sigma2_init)
    ll0 = _loglik_sum(msq, 2.0 * sigma2_init, log_term0)
    (s2, _, _), trace, iters = _ascend(step, (sigma2_init, resid0, log_term0), (p, p2, msq), ll0, n_max, eps)
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
