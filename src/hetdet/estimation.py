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
its update step, and the public per-burst operations wrap them.  Every
step is an exact coordinate ascent or EM step, so all traces are
non-decreasing up to float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _em_parts, _pulse_sum, _sq_norm, log1p_mills

# The EM engines run on the unchecked _em_parts kernel.  The checked public
# moment kernels stay importable under these names, where perfbench/tracer.py
# wraps them.
from .numerics import cond_mean_norm, cond_mean_sq_residual  # noqa: F401
from .scenario import Burst, InvariantBurst

_LOG_2PI = float(np.log(2.0 * np.pi))

__all__ = [
    "EstimationConfig",
    "ParamEstimate",
    "angular_loglik",
    "cyclic_em",
    "cyclic_em_batch",
    "cyclic_ml_batch",
    "cyclic_ml_h1",
    "em_mean_batch",
    "em_mean_step",
    "em_sigma_batch",
    "em_sigma_step",
    "gaussian_loglik",
    "ml_sigma_h0",
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


@dataclass(frozen=True)
class ParamEstimate:
    """Mean estimate, per-sample variance estimates, and the iteration trace.

    The trace pairs iteration indices with log-likelihood values; index 0 is
    the initialization where the estimator defines one.
    """

    m_hat: np.ndarray
    sigma2_hat: np.ndarray
    trace: tuple

    def __post_init__(self):
        m = np.array(self.m_hat, dtype=float)
        s2 = np.array(self.sigma2_hat, dtype=float)
        if m.shape != (2,) or s2.ndim != 1:
            raise ValueError("m_hat must be (2,) and sigma2_hat a vector")
        m.flags.writeable = False
        s2.flags.writeable = False
        object.__setattr__(self, "m_hat", m)
        object.__setattr__(self, "sigma2_hat", s2)
        object.__setattr__(self, "trace", tuple((int(i), float(v)) for i, v in self.trace))


def gaussian_loglik(x: np.ndarray, m: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Raw-sample log-likelihood, summed over pulses; batched over leading axes."""
    return _gaussian_sum(_sq_norm(x - np.asarray(m)[..., None, :]), sigma2)


def _gaussian_sum(q: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """gaussian_loglik from the squared residual norms q = ||x - m||^2."""
    return -np.sum(np.log(2.0 * np.pi * sigma2) + q / (2.0 * sigma2), axis=-1)


def angular_loglik(z: np.ndarray, m: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Direction-domain log-likelihood, summed over pulses; batched over leading axes."""
    m = np.asarray(m)
    p = np.einsum("...kj,...j->...k", z, m)
    msq = _sq_norm(m)[..., None]
    t = p / np.sqrt(sigma2)
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


def _h0_variances(x: np.ndarray, c0: float) -> np.ndarray:
    return np.maximum(0.5 * _sq_norm(x), c0)


def ml_init(x: np.ndarray, cfg: EstimationConfig) -> np.ndarray:
    """Starting variances of the cyclic ML ascent: floored per-sample energies."""
    return np.maximum(_sq_norm(x), cfg.c0)


def em_init(x: np.ndarray, z: np.ndarray, cfg: EstimationConfig):
    """Starting (mean, variances) of the direction EM: floored moments of z, or of x under paper_init."""
    u = x if cfg.paper_init else z
    m0 = _pulse_sum(u) / u.shape[1]
    return m0, np.maximum(0.5 * _sq_norm(u - m0[:, None, :]), cfg.c0)


def _ascend(step, state, consts, ll0, n_max: int, eps: float):
    """Early-stopping ascent shared by the batched engines.

    `state` and `consts` are tuples of per-burst arrays (leading axis B);
    `step(*state, *consts)` maps the rows of the still-active bursts to
    (new state tuple, new log-likelihood).  A burst stops once its
    log-likelihood moves by less than eps, and its rows are then left alone.
    Returns (state, trace (B, n_max + 1) with ll0 in column 0 and NaN past
    each burst's stopping point, iteration counts (B,)).
    """
    state = tuple(np.array(s, dtype=float) for s in state)
    b = ll0.shape[0]
    trace = np.full((b, n_max + 1), np.nan)
    trace[:, 0] = ll0
    iters = np.zeros(b, dtype=int)
    active = np.ones(b, dtype=bool)
    for n in range(1, n_max + 1):
        new, ll_new = step(*(s[active] for s in state), *(c[active] for c in consts))
        for s, value in zip(state, new):
            s[active] = value
        # Every burst active now was active at n - 1, so column n - 1 holds its last value.
        done = np.abs(ll_new - trace[active, n - 1]) < eps
        trace[active, n] = ll_new
        iters[active] = n
        active[np.nonzero(active)[0][done]] = False
        if not active.any():
            break
    return state, trace, iters


def cyclic_ml_batch(x: np.ndarray, sigma2_init: np.ndarray, c0: float, n_max: int, eps: float):
    """Cyclic ML over stacked bursts.

    Returns (m (B,2), sigma2 (B,K), loglik trace (B,n_max) NaN-padded past
    each burst's stopping point, iteration counts (B,)).  The first iteration
    has no predecessor to compare with, so no burst stops there.
    """

    def step(m, s2, xa):
        w = 1.0 / s2
        m_new = _pulse_sum(xa * w[..., None]) / np.sum(w, axis=1)[:, None]
        q = _sq_norm(xa - m_new[:, None, :])
        s2_new = np.maximum(0.5 * q, c0)
        return (m_new, s2_new), _gaussian_sum(q, s2_new)

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
        ll, h, _ = _em_point(np.einsum("bkj,bj->bk", za, m), _sq_norm(m)[:, None], s2)
        return ll, h

    def step(m, h, za, s2, w, w_sum):
        m_new = _pulse_sum((h * w)[..., None] * za) / w_sum[:, None]
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

    p = np.einsum("bkj,bj->bk", z, m)
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


def _check_burst(burst: Burst) -> np.ndarray:
    if not isinstance(burst, Burst):
        raise ValueError("expected a Burst")
    if burst.k < 2:
        raise ValueError("estimation needs at least 2 samples")
    return burst.samples


def _check_inv(inv: InvariantBurst) -> np.ndarray:
    if not isinstance(inv, InvariantBurst):
        raise ValueError("expected an InvariantBurst")
    if inv.k < 2:
        raise ValueError("estimation needs at least 2 samples")
    return inv.directions


def _trace_list(row: np.ndarray, first_index: int):
    return [(first_index + j, float(v)) for j, v in enumerate(row) if not np.isnan(v)]


def ml_sigma_h0(burst: Burst, c0: float) -> np.ndarray:
    """Floored per-sample variance ML estimates under the no-target hypothesis."""
    x = _check_burst(burst)
    if not (np.isfinite(c0) and c0 > 0):
        raise ValueError("c0 must be finite and > 0")
    return _h0_variances(x[None], c0)[0]


def cyclic_ml_h1(burst: Burst, cfg: EstimationConfig, sigma2_init: np.ndarray) -> ParamEstimate:
    """Cyclic ML estimate of (mean, variances) under the target hypothesis."""
    x = _check_burst(burst)
    s2 = np.asarray(sigma2_init, dtype=float)
    if s2.shape != (burst.k,) or not np.all(np.isfinite(s2)):
        raise ValueError("sigma2_init must be a finite (K,) vector")
    if np.any(s2 < cfg.c0):
        raise ValueError("sigma2_init must respect the c0 floor")
    m, s2_out, trace, iters = cyclic_ml_batch(x[None], s2[None], cfg.c0, cfg.n_co1, cfg.eps)
    return ParamEstimate(m[0], s2_out[0], _trace_list(trace[0, : iters[0]], 1))


def em_mean_step(inv: InvariantBurst, m: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """One EM update of the mean from directions, variances fixed."""
    z = _check_inv(inv)
    m = np.asarray(m, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    if m.shape != (2,) or not np.all(np.isfinite(m)):
        raise ValueError("m must be a finite 2-vector")
    if s2.shape != (inv.k,) or np.any(s2 <= 0):
        raise ValueError("sigma2 must be a positive (K,) vector")
    return em_mean_batch(z[None], m[None], s2[None], 1, 0.0)[0][0]


def em_sigma_step(inv: InvariantBurst, m: np.ndarray, sigma2: np.ndarray, c0: float) -> np.ndarray:
    """One floored EM update of the variances from directions, mean fixed."""
    z = _check_inv(inv)
    m = np.asarray(m, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    if m.shape != (2,) or not np.all(np.isfinite(m)):
        raise ValueError("m must be a finite 2-vector")
    if s2.shape != (inv.k,) or np.any(s2 <= 0):
        raise ValueError("sigma2 must be a positive (K,) vector")
    if not (np.isfinite(c0) and c0 > 0):
        raise ValueError("c0 must be finite and > 0")
    return em_sigma_batch(z[None], m[None], s2[None], c0, 1, 0.0)[0][0]


def cyclic_em(inv: InvariantBurst, cfg: EstimationConfig, m_init: np.ndarray, sigma2_init: np.ndarray) -> ParamEstimate:
    """Doubly iterative direction-domain estimate of (mean, variances)."""
    z = _check_inv(inv)
    m0 = np.asarray(m_init, dtype=float)
    s20 = np.asarray(sigma2_init, dtype=float)
    if m0.shape != (2,) or not np.all(np.isfinite(m0)):
        raise ValueError("m_init must be a finite 2-vector")
    if s20.shape != (inv.k,) or not np.all(np.isfinite(s20)):
        raise ValueError("sigma2_init must be a finite (K,) vector")
    if np.any(s20 < cfg.c0):
        raise ValueError("sigma2_init must respect the c0 floor")
    m, s2, trace, iters = cyclic_em_batch(
        z[None], m0[None], s20[None], cfg.c0,
        cfg.n_co2, cfg.n_em_m, cfg.n_em_sigma, cfg.eps1, cfg.eps2, cfg.eps3,
    )
    return ParamEstimate(m[0], s2[0], _trace_list(trace[0, : iters[0] + 1], 0))
