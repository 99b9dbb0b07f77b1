"""Stable kernels for the two-dimensional Gaussian model and its angular marginal.

Every function accepts scalars or numpy arrays (broadcast where sensible) and
returns a float for scalar input.  The workhorse quantity throughout is the
Mills-type term t*Phi(t)/phi(t): the conditional moments of a sample magnitude
given its direction, and the angular density itself, are all rational in it.
Three evaluation branches keep full accuracy over the whole real line:

- |t| < 8: direct composition through the scaled complementary error function.
- t >= 8: log-domain, because 1/phi(t) overflows float64 near t = 38.
- deep negative t: backward recurrence on the Gauss continued fraction for the
  Mills ratio, whose tails give cancellation-free forms for 1 + t*Phi/phi and
  the conditional moments (the direct expressions lose all significant digits
  out there).  The moment kernels switch at t = -4 and the ratio itself at
  t = -8.  Just above -4 the direct moment forms still cancel twice, in
  sigma*phi + p*Phi and in p plus the quotient: against a 50-digit mpmath
  oracle, `cond_mean_norm`'s worst relative error on (-4, -3.5] is 6.4e-13,
  about 5000 ulp of the result (20,000 points, four variances).

The public functions validate their input.  The direction EM loop instead
calls `_em_parts`, which skips validation and takes the log term and both
conditional moments from one evaluation of the ratio per element.

Two reductions the batched estimators and detectors run on every (B, K, 2)
stack are written out, `_sq_norm` over the I/Q axis and `_pulse_sum` over
the pulses.  Each takes numpy's own summation order, so it gives np.sum's
bits.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr

_LOG_2PI = float(np.log(2.0 * np.pi))
_SQRT_2 = float(np.sqrt(2.0))
_SQRT_HALF_PI = float(np.sqrt(np.pi / 2.0))
_BRANCH = 8.0
_BRANCH_MOMENTS = 4.0
_CF_DEPTH = 80


def _as_float_array(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _check_sigma2(sigma2) -> np.ndarray:
    arr = _as_float_array("sigma2", sigma2)
    if np.any(arr <= 0.0):
        raise ValueError("sigma2 must be positive")
    return arr


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def _sq_norm(x: np.ndarray) -> np.ndarray:
    """Squared norm of the trailing I/Q pairs: np.sum(x * x, axis=-1), bit for bit.

    numpy reduces a length-2 axis through its generic loop, about ten times
    slower than this one addition of the two squares.  Squares are never
    -0.0, so the addition gives numpy's bits.
    """
    return x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]


def _pulse_sum(v: np.ndarray) -> np.ndarray:
    """Sum of a C-contiguous (B, K, 2) array over pulses: np.sum(v, axis=1), bit for bit.

    For this layout numpy's inner loop runs over one I/Q pair, two elements
    per call; it starts from its identity 0.0 and adds pulse 0 to K - 1 in
    turn.  This loop takes the same order with one whole (B, 2) slice per
    pulse.
    """
    out = v[:, 0] + 0.0
    for k in range(1, v.shape[1]):
        out += v[:, k]
    return out


def _cf_tails(s: np.ndarray, depth: int = _CF_DEPTH):
    """Tails of the Gauss continued fraction for the Mills ratio at s = -t >= 8.

    tail(j) = j/(s + tail(j+1)); the upper-tail Mills ratio is 1/(s + tail(1)).
    Depth 80 leaves the truncation error below float64 resolution for s >= 3.5.
    """
    tail3 = np.zeros_like(s)
    for j in range(depth, 2, -1):
        tail3 = j / (s + tail3)
    tail2 = 2.0 / (s + tail3)
    tail1 = 1.0 / (s + tail2)
    return tail1, tail2, tail3


def std_normal(t):
    """Standard normal density and distribution function, as a (pdf, cdf) pair."""
    arr = _as_float_array("t", t)
    pdf = np.exp(-0.5 * arr * arr) / np.sqrt(2.0 * np.pi)
    cdf = ndtr(arr)
    return _scalar_or_array(pdf), _scalar_or_array(cdf)


def _mills_raw(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    neg = t <= -_BRANCH
    pos = t >= _BRANCH
    mid = ~(neg | pos)
    if np.any(mid):
        tm = t[mid]
        out[mid] = tm * (_SQRT_HALF_PI * erfcx(-tm / _SQRT_2))
    if np.any(neg):
        s = -t[neg]
        tail1, _, _ = _cf_tails(s)
        out[neg] = -s / (s + tail1)
    if np.any(pos):
        tp = t[pos]
        with np.errstate(over="ignore"):
            out[pos] = np.exp(np.log(tp) + log_ndtr(tp) + 0.5 * tp * tp + 0.5 * _LOG_2PI)
    return out


def _log1p_mills_raw(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    neg = t <= -_BRANCH
    pos = t >= _BRANCH
    mid = ~(neg | pos)
    if np.any(mid):
        tm = t[mid]
        out[mid] = np.log1p(tm * (_SQRT_HALF_PI * erfcx(-tm / _SQRT_2)))
    if np.any(neg):
        s = -t[neg]
        tail1, _, _ = _cf_tails(s)
        out[neg] = np.log(tail1) - np.log(s + tail1)
    if np.any(pos):
        tp = t[pos]
        lm = np.log(tp) + log_ndtr(tp) + 0.5 * tp * tp + 0.5 * _LOG_2PI
        out[pos] = lm + np.log1p(np.exp(-lm))
    return out


def _em_parts(p: np.ndarray, sigma2: np.ndarray):
    """Log-likelihood term and both conditional moments from one Mills ratio.

    Unchecked kernel of the direction EM loop: p and sigma2 are same-shape
    float arrays with sigma2 > 0.  With t = p/sigma and R = Phi(t)/phi(t),
    returns (log1p(t*R), sigma*(t + R/(1 + t*R)), sigma^2*(1 + 1/(1 + t*R))
    - p^2): the log1p_mills term, cond_mean_norm, and cond_mean_sq_residual
    less norm_m_sq.  R is evaluated once per element, on the branches of the
    public kernels; the log term is bit-identical to log1p_mills(t).
    """
    sig = np.sqrt(sigma2)
    t = p / sig
    # Clipping keeps the erfcx pass finite; the tail branches overwrite it.
    tc = np.clip(t, -_BRANCH, _BRANCH)
    ratio = _SQRT_HALF_PI * erfcx(-tc / _SQRT_2)
    tr = tc * ratio
    log_term = np.log1p(tr)
    a = 1.0 / (1.0 + tr)
    mean = p + sig * (ratio * a)
    resid = sigma2 * (1.0 + a) - p**2
    pos = t >= _BRANCH
    if np.any(pos):
        tp = t[pos]
        lm = np.log(tp) + log_ndtr(tp) + 0.5 * tp * tp + 0.5 * _LOG_2PI
        log_term[pos] = lm + np.log1p(np.exp(-lm))
        a_pos = np.exp(-log_term[pos])
        mean[pos] = p[pos] + sig[pos] * ((1.0 - a_pos) / tp)
        resid[pos] = sigma2[pos] * (1.0 + a_pos) - p[pos] ** 2
    neg = t <= -_BRANCH_MOMENTS
    if np.any(neg):
        s = -t[neg]
        tail1, tail2, _ = _cf_tails(s)
        mean[neg] = sig[neg] * tail2
        resid[neg] = sigma2[neg] * (2.0 + s * tail2)
        deep = s >= _BRANCH
        log_term[neg] = np.where(deep, np.log(tail1) - np.log(s + tail1), log_term[neg])
    return log_term, mean, resid


def mills_term(t):
    """t*Phi(t)/phi(t), the ratio steering every conditional-moment formula.

    Decreases to -1 as t -> -inf and grows like t^2 for large positive t; the
    true value exceeds the float64 range near t = 38, where +inf is returned.
    Consumers needing the positive side use log1p_mills instead.
    """
    arr = _as_float_array("t", t)
    return _scalar_or_array(_mills_raw(arr))


def log1p_mills(t):
    """log(1 + t*Phi(t)/phi(t)), finite and accurate over the whole real line."""
    arr = _as_float_array("t", t)
    return _scalar_or_array(_log1p_mills_raw(arr))


def xi(p, sigma2):
    """log(sigma^2 + sigma*p*Phi(t)/phi(t)) at t = p/sigma.

    Potential of the magnitude-given-direction family: its first derivative in
    p times sigma^2 is the conditional mean magnitude, its second derivative
    times sigma^4 the conditional variance.
    """
    parr = _as_float_array("p", p)
    s2 = _check_sigma2(sigma2)
    parr, s2 = np.broadcast_arrays(parr, s2)
    t = parr / np.sqrt(s2)
    out = np.log(s2) + _log1p_mills_raw(np.asarray(t, dtype=float))
    return _scalar_or_array(out)


def cond_mean_norm(p, sigma2):
    """Expected sample magnitude given its direction, at inner product p.

    Equals sigma*sqrt(pi/2) at p = 0 (the Rayleigh mean) and approaches p from
    above as p -> +inf; for strongly opposing directions it decays like
    2*sigma^2/|p| but stays positive.
    """
    parr = _as_float_array("p", p)
    s2 = _check_sigma2(sigma2)
    parr, s2 = np.broadcast_arrays(parr, s2)
    parr = np.asarray(parr, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    sig = np.sqrt(s2)
    t = parr / sig
    out = np.empty_like(t)
    neg = t <= -_BRANCH_MOMENTS
    if np.any(neg):
        _, tail2, _ = _cf_tails(-t[neg])
        out[neg] = sig[neg] * tail2
    rest = ~neg
    if np.any(rest):
        tr = t[rest]
        pdf = np.exp(-0.5 * tr * tr) / np.sqrt(2.0 * np.pi)
        cdf = ndtr(tr)
        out[rest] = parr[rest] + s2[rest] * cdf / (sig[rest] * pdf + parr[rest] * cdf)
    return _scalar_or_array(out)


def cond_mean_sq_residual(p, sigma2, norm_m_sq):
    """Expected squared distance to the mean given the direction.

    Evaluates sigma^2*(1 + A) - p^2 + norm_m_sq with A = sigma*phi/(sigma*phi
    + p*Phi); consistent inputs have p = z.m with unit z, so norm_m_sq >= p^2
    and the result stays positive.  Reduces to 2*sigma^2 + norm_m_sq at p = 0.
    """
    parr = _as_float_array("p", p)
    s2 = _check_sigma2(sigma2)
    msq = _as_float_array("norm_m_sq", norm_m_sq)
    if np.any(msq < 0.0):
        raise ValueError("norm_m_sq must be nonnegative")
    parr, s2, msq = np.broadcast_arrays(parr, s2, msq)
    parr = np.asarray(parr, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    msq = np.asarray(msq, dtype=float)
    sig = np.sqrt(s2)
    t = parr / sig
    out = np.empty_like(t)
    neg = t <= -_BRANCH_MOMENTS
    if np.any(neg):
        s = -t[neg]
        _, tail2, _ = _cf_tails(s)
        out[neg] = s2[neg] * (2.0 + s * tail2) + msq[neg]
    rest = ~neg
    if np.any(rest):
        tr = t[rest]
        pdf = np.exp(-0.5 * tr * tr) / np.sqrt(2.0 * np.pi)
        cdf = ndtr(tr)
        a = sig[rest] * pdf / (sig[rest] * pdf + parr[rest] * cdf)
        out[rest] = s2[rest] * (1.0 + a) - parr[rest] ** 2 + msq[rest]
    return _scalar_or_array(out)


def xi_derivatives(p, sigma2):
    """First and second derivative of xi in p, as a pair.

    The first derivative is the conditional mean magnitude over sigma^2; the
    second is strictly positive (the family is strictly convex in p).
    """
    parr = _as_float_array("p", p)
    s2 = _check_sigma2(sigma2)
    parr, s2 = np.broadcast_arrays(parr, s2)
    parr = np.asarray(parr, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    sig = np.sqrt(s2)
    t = parr / sig
    d1 = np.empty_like(t)
    d2 = np.empty_like(t)
    neg = t <= -_BRANCH_MOMENTS
    if np.any(neg):
        s = -t[neg]
        _, tail2, tail3 = _cf_tails(s)
        d1[neg] = tail2 / sig[neg]
        d2[neg] = (2.0 * tail3 / (s + tail3) - tail2 * tail2) / s2[neg]
    rest = ~neg
    if np.any(rest):
        tr = t[rest]
        pdf = np.exp(-0.5 * tr * tr) / np.sqrt(2.0 * np.pi)
        cdf = ndtr(tr)
        den = pdf + tr * cdf
        a = pdf / den
        ra = cdf / den
        d1[rest] = (parr[rest] + s2[rest] * cdf / (sig[rest] * pdf + parr[rest] * cdf)) / s2[rest]
        d2[rest] = (1.0 + a - ra * ra) / s2[rest]
    return _scalar_or_array(d1), _scalar_or_array(d2)


def gaussian_pdf(x, m, sigma2):
    """Circular two-dimensional Gaussian density with per-axis variance sigma2.

    x and m hold the two real coordinates in their last axis and broadcast
    against each other; sigma2 broadcasts against the leading shape.
    """
    xarr = _as_float_array("x", x)
    marr = _as_float_array("m", m)
    s2 = _check_sigma2(sigma2)
    if xarr.shape[-1] != 2 or marr.shape[-1] != 2:
        raise ValueError("x and m must have two coordinates in the last axis")
    diff = xarr - marr
    q = np.sum(diff * diff, axis=-1)
    out = np.exp(-q / (2.0 * s2)) / (2.0 * np.pi * s2)
    return _scalar_or_array(np.asarray(out, dtype=float))


def angular_pdf_h1(z, m, sigma2):
    """Density of a unit direction when the underlying sample has mean m.

    Uniform (1/(2*pi)) when m = 0; otherwise exp(-||m||^2/(2*sigma2))/(2*pi)
    times 1 + mills_term(z.m/sigma), assembled in the log domain so the two
    exponentially large/small factors never meet at float range boundaries.
    """
    zarr = _as_float_array("z", z)
    marr = _as_float_array("m", m)
    s2 = _check_sigma2(sigma2)
    if zarr.shape[-1] != 2 or marr.shape != (2,):
        raise ValueError("z must have two coordinates in the last axis and m shape (2,)")
    norms = np.sqrt(np.sum(zarr * zarr, axis=-1))
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("z must have unit norm")
    msq = float(marr @ marr)
    if msq == 0.0:
        out = np.broadcast_to(1.0 / (2.0 * np.pi), np.broadcast_shapes(norms.shape, np.shape(s2)))
        return _scalar_or_array(np.array(out, dtype=float))
    p = np.sum(zarr * marr, axis=-1)
    p, s2b = np.broadcast_arrays(p, s2)
    t = np.asarray(p / np.sqrt(s2b), dtype=float)
    log_f = -msq / (2.0 * s2b) - _LOG_2PI + _log1p_mills_raw(t)
    return _scalar_or_array(np.exp(log_f))
