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

from typing import NamedTuple

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


def _flat_indices(mask: np.ndarray) -> np.ndarray:
    """np.flatnonzero(mask) without its Python wrapper, which the EM's many small calls feel."""
    return mask.ravel().nonzero()[0]


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

    Returns (log1p(t*R), R, t*R, pos, neg, tail2, tp, log_pos).  log1p(t*R)
    is accurate on every branch.  R and t*R come from the erfcx pass, so they
    hold only where -8 < t < 8.  pos and neg are the flat indices of t >= 8
    and of t <= -cf_edge, where the continued fraction runs, and tail2 is its
    tail(2) at neg; it gives the log term only at t <= -8.  tp and log_pos
    are t and the log term at pos.  `_em_core` passes cf_edge = 4 to take its
    moments from the same tails.  The tails are rare (t >= 8 holds a few
    percent of the EM's elements, t <= -4 almost none), so each branch
    gathers and scatters by index, and costs nothing when empty.
    """
    pos = _flat_indices(t >= _BRANCH)
    # The tail branches overwrite the erfcx pass.  Its argument is floored to
    # stay finite, and 0 at t >= 8, where erfcx is cheapest.
    tc = np.maximum(t, -_BRANCH)
    tp = log_pos = tail2 = None
    if pos.size:
        np.put(tc, pos, 0.0)
    # (-tc)/sqrt(2) and tc/(-sqrt(2)) round alike: IEEE division is sign-symmetric.
    ratio = erfcx(tc / -_SQRT_2)
    ratio *= _SQRT_HALF_PI
    tr = tc * ratio
    log_term = np.log1p(tr)
    if pos.size:
        tp = t.take(pos)
        # 1/phi(t) overflows near t = 38, so stay in the log domain.
        lm = np.log(tp) + log_ndtr(tp) + 0.5 * tp * tp + 0.5 * _LOG_2PI
        log_pos = lm + np.log1p(np.exp(-lm))
        np.put(log_term, pos, log_pos)
    neg = _flat_indices(t <= -cf_edge)
    if neg.size:
        s = -t.take(neg)
        tail1, tail2 = _cf_tails(s)
        deep = s >= _BRANCH
        np.put(log_term, neg, np.where(deep, np.log(tail1) - np.log(s + tail1), log_term.take(neg)))
    return log_term, ratio, tr, pos, neg, tail2, tp, log_pos


class _Mills(NamedTuple):
    """One evaluation of `_em_core` at t = p/sigma.

    log_term is log1p_mills(t).  a = 1/(1 + t*R), but exp(-log term) at
    t >= 8, where R itself overflows.  g is the slope of the conditional mean:
    it is p + sigma*g, or sigma*g at neg, the flat indices of t <= -4, with
    g = R*a, (1 - a)/t at t >= 8, and tail2, the continued fraction's tail(2),
    at neg.
    """

    t: np.ndarray
    log_term: np.ndarray
    a: np.ndarray
    g: np.ndarray
    neg: np.ndarray
    tail2: np.ndarray | None


def _em_core(p: np.ndarray, sig: np.ndarray) -> _Mills:
    """The Mills-ratio parts that both conditional moments are rational in, at t = p/sig.

    Unchecked kernel of the direction EM: p and sig = sqrt(sigma2) are
    same-shape float arrays of ndim >= 1 with sig > 0.  The log term is
    log1p_mills(t) bit for bit.  `_em_mean` and `_em_resid` finish the two
    moments, so a pass computes only the moment it reads.
    """
    t = p / sig
    log_term, ratio, tr, pos, neg, tail2, tp, log_pos = _log1p_mills_core(t, _BRANCH_MOMENTS)
    a = tr
    a += 1.0
    np.divide(1.0, a, out=a)
    g = ratio
    g *= a
    if pos.size:
        # 1/(1 + t*R) = exp(-log term): R itself overflows out here.
        a_pos = np.exp(-log_pos)
        np.put(a, pos, a_pos)
        np.put(g, pos, (1.0 - a_pos) / tp)
    if neg.size:
        np.put(g, neg, tail2)
    return _Mills(t, log_term, a, g, neg, tail2)


def _em_mean(p: np.ndarray, sig: np.ndarray, core: _Mills) -> np.ndarray:
    """Conditional mean magnitude sigma*(t + R/(1 + t*R)) from `_em_core`'s parts."""
    neg = core.neg
    sg = sig * core.g
    mean = sg + p
    if neg.size:
        # The direct forms cancel for t <= -4; the tails do not.
        np.put(mean, neg, sg.take(neg))
    return mean


def _em_resid(p2: np.ndarray, sigma2: np.ndarray, core: _Mills) -> np.ndarray:
    """Conditional squared residual less ||m||^2, sigma^2*(1 + a) - p^2, from `_em_core`'s parts and p2 = p^2."""
    neg = core.neg
    resid = core.a + 1.0
    resid *= sigma2
    resid -= p2
    if neg.size:
        np.put(resid, neg, sigma2.take(neg) * (2.0 - core.t.take(neg) * core.tail2))
    return resid


def _em_parts(p: np.ndarray, sigma2: np.ndarray):
    """Log-likelihood term and both conditional moments from one Mills ratio.

    p and sigma2 are same-shape float arrays of ndim >= 1 with sigma2 > 0.
    With t = p/sigma and R = Phi(t)/phi(t), returns (log1p(t*R),
    sigma*(t + R/(1 + t*R)), sigma^2*(1 + 1/(1 + t*R)) - p^2): the
    log1p_mills term, cond_mean_norm, and cond_mean_sq_residual less
    norm_m_sq, each with the bits the EM passes get from `_em_core`.
    """
    sig = np.sqrt(sigma2)
    core = _em_core(p, sig)
    return core.log_term, _em_mean(p, sig, core), _em_resid(p**2, sigma2, core)


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
