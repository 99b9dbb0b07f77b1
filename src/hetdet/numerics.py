"""Stable kernels for the direction likelihood and the direction EM.

The public kernels accept scalars or numpy arrays (broadcast where sensible)
and return a float for scalar input.  The one quantity behind them is the
Mills ratio R = Phi(t)/phi(t): the log-likelihood of a pulse direction needs
log(1 + t*R), and the conditional moments of its magnitude are rational in
t*R.  `_log1p_mills_core` is the only place that evaluates R, on three
branches that keep full accuracy over the whole real line:

- |t| < 8: direct composition through the scaled complementary error
  function, on t clipped to [-8, 8] so that the pass stays finite.
- t >= 8: log-domain, because 1/phi(t) overflows float64 near t = 38.
- t <= -8: backward recurrence on the Gauss continued fraction for the
  Mills ratio, whose tails give a cancellation-free log(1 + t*R) (the direct
  expression loses all significant digits out there).

`log1p_mills` is that core behind input validation.  The direction EM loop
calls `_em_parts`, which skips validation and adds the conditional moments
to the log term of the same evaluation; its continued fraction starts at
t = -4, because the direct moment forms cancel below it.  Just above -4
they still lose a few digits: against a 50-digit mpmath oracle,
`_em_parts`'s worst relative error in the mean on (-4, -3.5] is 1.0e-13
(20,000 points, four variances).  `cond_mean_norm` and
`cond_mean_sq_residual` are `_em_parts` behind input validation.

The batched estimators and detectors work on (B, K, 2) stacks of I/Q
pairs.  numpy runs an operation whose innermost axis has length 2 (a
reduction over the I/Q axis, or a broadcast such as `x * w[..., None]`) by
calling its inner loop once per pair, several times slower than one pass
over the whole stack.  So no hot path broadcasts over a length-2 trailing
axis or reduces over a small axis; the helpers below do the same arithmetic
in one pass each, and give numpy's bits:

- `_sq_norm` and `_pulse_sum`, the sums over the I/Q axis and the pulses;
- `_pair_diff` and `_pair_sum`, the pair subtraction and addition on
  complex128 views, since a complex add is the componentwise IEEE add;
- `_per_plane`, a product or quotient by a per-pair factor, one strided
  operation per I/Q plane;
- `_project`, the inner products np.einsum("...kj,...j->...k", z, m).
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfcx, log_ndtr

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


def _iq(v: np.ndarray) -> np.ndarray:
    """The trailing I/Q pairs of a float64 array as a complex128 view of shape v.shape[:-1].

    The last axis must be contiguous; numpy raises otherwise.
    """
    return v.view(np.complex128)[..., 0]


def _pairs(c: np.ndarray) -> np.ndarray:
    """The float64 (..., 2) view of a complex128 array; the inverse of _iq."""
    return c[..., None].view(np.float64)


def _pulse_sum(v: np.ndarray) -> np.ndarray:
    """Sum of a C-contiguous (B, K, 2) array over pulses: np.sum(v, axis=1), bit for bit.

    For this layout numpy's inner loop runs over one I/Q pair, two elements
    per call; it starts from its identity 0.0 and adds pulse 0 to K - 1 in
    turn.  This loop takes the same order with one complex (B,) slice per
    pulse.
    """
    c = _iq(v)
    out = c[:, 0] + 0.0
    for k in range(1, c.shape[1]):
        out += c[:, k]
    return _pairs(out)


def _pair_diff(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x - m[..., None, :] for pairs x (..., K, 2) and m (..., 2), bit for bit."""
    return _pairs(_iq(x) - _iq(m)[..., None])


def _pair_sum(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """x + t for pair arrays x (..., 2) and t (..., 2) that broadcast, bit for bit."""
    return _pairs(_iq(x) + _iq(t))


def _per_plane(op, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """op(x, v[..., None]) for pairs x (..., 2) and a factor v that broadcasts against x[..., 0].

    op is a binary ufunc such as np.multiply or np.divide; each I/Q plane is
    one strided pass of the same elementwise operation, so the bits match.
    """
    out = np.empty(np.broadcast_shapes(x.shape[:-1], np.shape(v)) + (2,))
    op(x[..., 0], v, out=out[..., 0])
    op(x[..., 1], v, out=out[..., 1])
    return out


def _project(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Inner products of pairs z (..., K, 2) with m (..., 2): np.einsum("...kj,...j->...k", z, m).

    einsum accumulates 0.0 + z0*m0 + z1*m1 from left to right; the leading
    0.0 turns a -0.0 sum into +0.0, so this order gives its bits.
    """
    p = z[..., 0] * m[..., None, 0]
    p += 0.0
    p += z[..., 1] * m[..., None, 1]
    return p


def _cf_tails(s: np.ndarray, depth: int = _CF_DEPTH):
    """Tails of the Gauss continued fraction for the Mills ratio at s = -t >= 4.

    tail(j) = j/(s + tail(j+1)); the upper-tail Mills ratio is 1/(s + tail(1)).
    Depth 80 leaves the truncation error below float64 resolution for s >= 3.5.
    Returns (tail(1), tail(2)).
    """
    tail3 = np.zeros_like(s)
    for j in range(depth, 2, -1):
        tail3 = j / (s + tail3)
    tail2 = 2.0 / (s + tail3)
    return 1.0 / (s + tail2), tail2


def _log1p_mills_core(t: np.ndarray, cf_edge: float = _BRANCH):
    """The one evaluation of the Mills ratio R = Phi(t)/phi(t), on an array of ndim >= 1.

    Returns (log1p(t*R), R, t*R, pos, tp, neg, tail2).  log1p(t*R) is accurate
    on every branch.  R and t*R come from the erfcx pass on t clipped to
    [-8, 8], so they hold only where -8 < t < 8.  pos masks t >= 8, and tp
    is t[pos].  neg masks t <= -cf_edge, where the continued fraction runs,
    and tail2 is its tail(2) there; it gives the log term only at t <= -8.
    `_em_parts` passes cf_edge = 4 to take its moments from the same tails.
    tp and tail2 are None when their branch is empty, so that no caller
    tests a mask twice.  The branches assign through masks, hence ndim >= 1.
    """
    # Clipping keeps the erfcx pass finite; the tail branches overwrite it.
    tc = np.clip(t, -_BRANCH, _BRANCH)
    ratio = _SQRT_HALF_PI * erfcx(-tc / _SQRT_2)
    tr = tc * ratio
    log_term = np.log1p(tr)
    tp = tail2 = None
    pos = t >= _BRANCH
    if pos.any():
        tp = t[pos]
        # 1/phi(t) overflows near t = 38, so stay in the log domain.
        lm = np.log(tp) + log_ndtr(tp) + 0.5 * tp * tp + 0.5 * _LOG_2PI
        log_term[pos] = lm + np.log1p(np.exp(-lm))
    neg = t <= -cf_edge
    if neg.any():
        s = -t[neg]
        tail1, tail2 = _cf_tails(s)
        deep = s >= _BRANCH
        log_term[neg] = np.where(deep, np.log(tail1) - np.log(s + tail1), log_term[neg])
    return log_term, ratio, tr, pos, tp, neg, tail2


def _em_parts(p: np.ndarray, sigma2: np.ndarray):
    """Log-likelihood term and both conditional moments from one Mills ratio.

    Unchecked kernel of the direction EM loop: p and sigma2 are same-shape
    float arrays of ndim >= 1 with sigma2 > 0.  With t = p/sigma and
    R = Phi(t)/phi(t), returns (log1p(t*R), sigma*(t + R/(1 + t*R)),
    sigma^2*(1 + 1/(1 + t*R)) - p^2): the log1p_mills term, cond_mean_norm,
    and cond_mean_sq_residual less norm_m_sq.  R comes from
    `_log1p_mills_core`, so the log term is log1p_mills(t) bit for bit;
    only the moment forms of the two tails live here.
    """
    sig = np.sqrt(sigma2)
    t = p / sig
    log_term, ratio, tr, pos, tp, neg, tail2 = _log1p_mills_core(t, _BRANCH_MOMENTS)
    a = 1.0 / (1.0 + tr)
    mean = p + sig * (ratio * a)
    resid = sigma2 * (1.0 + a) - p**2
    if tp is not None:
        # 1/(1 + t*R) = exp(-log term): R itself overflows out here.
        a_pos = np.exp(-log_term[pos])
        mean[pos] = p[pos] + sig[pos] * ((1.0 - a_pos) / tp)
        resid[pos] = sigma2[pos] * (1.0 + a_pos) - p[pos] ** 2
    if tail2 is not None:
        # The direct forms cancel for t <= -4; the tails do not.
        mean[neg] = sig[neg] * tail2
        resid[neg] = sigma2[neg] * (2.0 - t[neg] * tail2)
    return log_term, mean, resid


def log1p_mills(t):
    """log(1 + t*Phi(t)/phi(t)), finite and accurate over the whole real line."""
    arr = _as_float_array("t", t)
    return _scalar_or_array(_log1p_mills_core(np.atleast_1d(arr))[0].reshape(arr.shape))


def _checked_em_parts(p, sigma2):
    """(mean, residual) of `_em_parts` on validated input that broadcasts, 0-d included."""
    parr, s2 = np.broadcast_arrays(_as_float_array("p", p), _check_sigma2(sigma2))
    _, mean, resid = _em_parts(np.atleast_1d(parr), np.atleast_1d(s2))
    return mean.reshape(parr.shape), resid.reshape(parr.shape)


def cond_mean_norm(p, sigma2):
    """Expected sample magnitude given its direction, at inner product p.

    Equals sigma*sqrt(pi/2) at p = 0 (the Rayleigh mean) and approaches p from
    above as p -> +inf; for strongly opposing directions it decays like
    2*sigma^2/|p| but stays positive.  The checked form of `_em_parts`'s mean.
    """
    mean, _ = _checked_em_parts(p, sigma2)
    return _scalar_or_array(mean)


def cond_mean_sq_residual(p, sigma2, norm_m_sq):
    """Expected squared distance to the mean given the direction.

    Evaluates sigma^2*(1 + A) - p^2 + norm_m_sq with A = sigma*phi/(sigma*phi
    + p*Phi); consistent inputs have p = z.m with unit z, so norm_m_sq >= p^2
    and the result stays positive.  Reduces to 2*sigma^2 + norm_m_sq at p = 0.
    The checked form of `_em_parts`'s residual.
    """
    msq = _as_float_array("norm_m_sq", norm_m_sq)
    if np.any(msq < 0.0):
        raise ValueError("norm_m_sq must be nonnegative")
    _, resid = _checked_em_parts(p, sigma2)
    return _scalar_or_array(np.asarray(resid + msq))
