"""Decision statistics for adaptive detection in heterogeneous interference.

Four adaptive architectures pair the two estimators with the two
log-likelihood domains:

- gd_he: raw-domain generalized likelihood ratio, cyclic-ML estimates;
- agd: direction-domain statistic, direction-domain EM estimates
  (invariant to positive per-sample scalings by construction);
- c_gd_he: raw-domain ratio evaluated at direction-domain EM estimates;
- c_agd: direction-domain statistic evaluated at cyclic-ML estimates.

Three reference statistics need no estimation (ed, chd, ca_chd) and one is
clairvoyant (cd, true parameters supplied).  Each kind is one row of `_ROWS`:
its inputs and its statistic.  `statistics_batch` scores any subset over a
stack of bursts (one burst is a stack of one), each input once.  A detection
is a statistic strictly above its threshold (`montecarlo._exceeding`).
"""

from __future__ import annotations

import enum

import numpy as np

from .estimation import (
    EstimationConfig,
    _gaussian_sum,
    _h0_variances,
    cyclic_em_batch,
    cyclic_ml_batch,
    em_init,
    gaussian_loglik,
    ml_init,
)
from .numerics import _pair_diff, _project, _pulse_sum, _sq_norm, log1p_mills
from .scenario import _directions

__all__ = [
    "DetectorKind",
    "angular_statistic",
    "statistics_batch",
]


class DetectorKind(enum.Enum):
    """Tags for the eight decision statistics; values are the CLI tokens."""

    GD_HE = "gd-he"
    AGD = "agd"
    C_GD_HE = "c-gd-he"
    C_AGD = "c-agd"
    CD = "cd"
    ED = "ed"
    CHD = "chd"
    CA_CHD = "ca-chd"

    @property
    def requires_truth(self) -> bool:
        """Whether the statistic needs the true (mean, variances) side information."""
        return "truth" in _ROWS[self][0]

    @property
    def reads_directions(self) -> bool:
        """Whether the statistic needs every sample's direction, undefined at zero magnitude."""
        return "z" in _ROWS[self][0]

    @classmethod
    def parse(cls, token: str) -> "DetectorKind":
        try:
            return cls(token)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown detector {token!r}; expected one of: {valid}") from None


class NonFiniteStatistic(ValueError):
    """A detector's statistic is not finite at one burst of a batch."""

    def __init__(self, detector: DetectorKind, burst: int):
        super().__init__(detector, burst)
        self.detector = detector
        self.burst = burst

    def __str__(self) -> str:
        return f"{self.detector.value} statistic is not finite at burst {self.burst}"


class ZeroNormSample(ValueError):
    """A burst of a batch holds a sample of zero magnitude, which has no direction."""

    def __init__(self, burst: int, pulse: int):
        super().__init__(burst, pulse)
        self.burst = burst
        self.pulse = pulse

    def __str__(self) -> str:
        return f"cannot normalize a zero-norm sample at burst {self.burst}, pulse {self.pulse}"


def _angular(kind: DetectorKind, z: np.ndarray, m: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    # log1p_mills would reject a non-finite estimate without naming the detector or burst.
    bad = np.flatnonzero(~(np.all(np.isfinite(m), axis=-1) & np.all(np.isfinite(sigma2), axis=-1)))
    if bad.size:
        raise NonFiniteStatistic(kind, int(bad[0]))
    return angular_statistic(z, m, sigma2)


def angular_statistic(directions: np.ndarray, m: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Direction-domain log statistic at given parameters; batched over leading axes.

    Equals the summed log ratio of the direction density to the uniform one,
    and is exactly zero at m = 0.
    """
    m = np.asarray(m, dtype=float)
    msq = _sq_norm(m)
    t = _project(directions, m) / np.sqrt(sigma2)
    return -msq * np.sum(1.0 / (2.0 * sigma2), axis=-1) + np.sum(log1p_mills(t), axis=-1)


def _clairvoyant(v: dict) -> np.ndarray:
    mean, sigma2 = v["truth"]
    return -np.sum(_sq_norm(_pair_diff(v["x"], mean)) / sigma2, axis=-1) + np.sum(v["e"] / sigma2, axis=-1)


def _cell_averaged(v: dict) -> np.ndarray:
    if np.any(v["energy"] == 0.0):
        raise ValueError("ca-chd is undefined on an all-zero burst")
    return v["coherent"] / v["energy"]


# A kind's row: the inputs its statistic reads, and the statistic as a function
# of {input: value}, which also holds the bursts x and their per-sample energies
# e.  Inputs: z (directions), ml and em (each fit's mean and variances; ml also
# leaves ml_ll, the fit's last log-likelihood, which is gaussian_loglik at its
# estimates bit for bit), ll0 (no-target log-likelihood), energy, coherent
# (pulse-sum power) and truth.  The engines are module globals looked up as a
# row runs, so a wrapper on one holds.
_ROWS = {
    DetectorKind.GD_HE: (("ml", "ll0"), lambda v: v["ml_ll"] - v["ll0"]),
    DetectorKind.AGD: (("z", "em"), lambda v: _angular(DetectorKind.AGD, v["z"], *v["em"])),
    DetectorKind.C_GD_HE: (("z", "em", "ll0"), lambda v: gaussian_loglik(v["x"], *v["em"]) - v["ll0"]),
    DetectorKind.C_AGD: (("z", "ml"), lambda v: _angular(DetectorKind.C_AGD, v["z"], *v["ml"])),
    DetectorKind.CD: (("truth",), _clairvoyant),
    DetectorKind.ED: (("energy",), lambda v: v["energy"]),
    DetectorKind.CHD: (("coherent",), lambda v: v["coherent"]),
    DetectorKind.CA_CHD: (("coherent", "energy"), _cell_averaged),
}


def statistics_batch(
    x: np.ndarray,
    kinds,
    cfg: EstimationConfig | None = None,
    true_mean: np.ndarray | None = None,
    true_sigma2: np.ndarray | None = None,
) -> dict:
    """Requested decision statistics over a stack of bursts.

    x has shape (B, K, 2), in any memory layout; the statistics do not
    depend on it.  Each input that the requested kinds' rows read is computed
    once and shared.  cd needs a finite true_mean (2,) and positive, finite
    true_sigma2 of shape (K,) or (B, K).  Returns {kind: (B,) array}; raises
    NonFiniteStatistic, a ValueError, naming the detector and the first
    burst index if any statistic, or the estimate it is evaluated at, is not
    finite, and ZeroNormSample, a ValueError naming the first burst and pulse,
    if a kind that reads directions meets a sample of zero magnitude.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 3 or x.shape[2] != 2:
        raise ValueError("x must have shape (B, K, 2)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    kinds = list(kinds)
    if not kinds:
        raise ValueError("at least one detector kind is required")
    for kind in kinds:
        if not isinstance(kind, DetectorKind):
            raise ValueError(f"not a DetectorKind: {kind!r}")
    if len(set(kinds)) != len(kinds):
        raise ValueError("duplicate detector kinds")

    reads = {name for kind in kinds for name in _ROWS[kind][0]}
    if reads & {"ml", "em", "ll0"} and cfg is None:
        raise ValueError("adaptive detectors need an EstimationConfig")
    if reads & {"ml", "em", "ll0"} and x.shape[1] < 2:
        raise ValueError("adaptive detectors need K >= 2")
    e = _sq_norm(x)
    v = {"x": x, "e": e}
    if "truth" in reads:
        if true_mean is None or true_sigma2 is None:
            who = ", ".join(kind.value for kind in kinds if kind.requires_truth)
            raise ValueError(f"{who} needs true_mean and true_sigma2")
        true_mean, true_sigma2 = np.asarray(true_mean, dtype=float), np.asarray(true_sigma2, dtype=float)
        if true_mean.shape != (2,) or not np.all(np.isfinite(true_mean)):
            raise ValueError("true_mean must be a finite 2-vector")
        if true_sigma2.shape not in (x.shape[1:2], x.shape[:2]):
            raise ValueError(f"true_sigma2 must have shape (K,) or (B, K), got {true_sigma2.shape}")
        if not np.all(np.isfinite(true_sigma2) & (true_sigma2 > 0)):
            raise ValueError("true_sigma2 must be finite and positive")
        v["truth"] = true_mean, true_sigma2
    if "z" in reads:
        zero = np.argwhere(e == 0.0)
        if zero.size:
            raise ZeroNormSample(int(zero[0, 0]), int(zero[0, 1]))
        v["z"] = _directions(x, e)[0]
    if "ml" in reads:
        m, s2, trace, iters = cyclic_ml_batch(x, ml_init(e, cfg), cfg.c0, cfg.n_co1, cfg.eps)
        v["ml"] = m, s2
        v["ml_ll"] = trace[np.arange(iters.size), iters - 1]
    if "em" in reads:
        m0, s20 = em_init(x, v["z"], cfg)
        v["em"] = cyclic_em_batch(v["z"], m0, s20, cfg.c0, cfg.n_co2, cfg.n_em_m, cfg.n_em_sigma,
                                  cfg.eps1, cfg.eps2, cfg.eps3)[:2]
    if "ll0" in reads:
        # The no-target mean is 0.0, and x - 0.0 has the bits of x.
        v["ll0"] = _gaussian_sum(e, _h0_variances(e, cfg.c0))
    if "energy" in reads:
        v["energy"] = np.sum(x * x, axis=(-2, -1))
    if "coherent" in reads:
        v["coherent"] = _sq_norm(_pulse_sum(x))

    out = {kind: _ROWS[kind][1](v) for kind in kinds}
    # A NaN would otherwise count as a non-exceedance of every threshold.
    for kind, values in out.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NonFiniteStatistic(kind, int(bad[0]))
    return out
