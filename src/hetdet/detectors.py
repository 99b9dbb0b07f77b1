"""Decision statistics for adaptive detection in heterogeneous interference.

Four adaptive architectures pair the two estimators with the two
log-likelihood domains:

- gd_he: raw-domain generalized likelihood ratio, cyclic-ML estimates;
- agd: direction-domain statistic, direction-domain EM estimates
  (invariant to positive per-sample scalings by construction);
- c_gd_he: raw-domain ratio evaluated at direction-domain EM estimates;
- c_agd: direction-domain statistic evaluated at cyclic-ML estimates.

Three reference statistics need no estimation (ed, chd, ca_chd) and one is
clairvoyant (cd, true parameters supplied).  `statistics_batch` computes any
subset over a stack of bursts while sharing the estimation runs; the
per-burst functions are thin wrappers over it, so both paths are identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .estimation import (
    EstimationConfig,
    _h0_variances,
    cyclic_em_batch,
    cyclic_ml_batch,
    em_init,
    gaussian_loglik,
    ml_init,
)
from .numerics import _pulse_sum, _sq_norm, log1p_mills
from .scenario import Burst, directions

__all__ = [
    "Decision",
    "DetectorKind",
    "agd",
    "angular_statistic",
    "c_agd",
    "c_gd_he",
    "ca_chd",
    "cd",
    "chd",
    "decide",
    "ed",
    "gd_he",
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
        return self is DetectorKind.CD

    @classmethod
    def parse(cls, token: str) -> "DetectorKind":
        try:
            return cls(token)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown detector {token!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class Decision:
    """One thresholded decision; ties go to the no-target hypothesis."""

    statistic: float
    threshold: float
    declared: bool

    def __post_init__(self):
        if not (np.isfinite(self.statistic) and np.isfinite(self.threshold)):
            raise ValueError("statistic and threshold must be finite")
        if self.declared != (self.statistic > self.threshold):
            raise ValueError("declared must equal statistic > threshold")


def decide(statistic: float, threshold: float) -> Decision:
    """Compare a statistic against a threshold, strictly."""
    return Decision(float(statistic), float(threshold), bool(statistic > threshold))


class NonFiniteStatistic(ValueError):
    """A detector's statistic is not finite at one burst of a batch."""

    def __init__(self, detector: DetectorKind, burst: int):
        super().__init__(detector, burst)
        self.detector = detector
        self.burst = burst

    def __str__(self) -> str:
        return f"{self.detector.value} statistic is not finite at burst {self.burst}"


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
    p = np.einsum("...kj,...j->...k", directions, m)
    msq = _sq_norm(m)
    t = p / np.sqrt(sigma2)
    return -msq * np.sum(1.0 / (2.0 * sigma2), axis=-1) + np.sum(log1p_mills(t), axis=-1)


def statistics_batch(
    x: np.ndarray,
    kinds,
    cfg: EstimationConfig | None = None,
    true_mean: np.ndarray | None = None,
    true_sigma2: np.ndarray | None = None,
) -> dict:
    """Requested decision statistics over a stack of bursts.

    x has shape (B, K, 2).  The cyclic-ML run, the EM run, and the
    no-target variance estimates are each computed once and shared by every
    statistic that consumes them.  Returns {kind: (B,) array}; raises
    NonFiniteStatistic, a ValueError, naming the detector and the first
    burst index if any statistic, or the estimate it is evaluated at, is
    not finite.
    """
    x = np.asarray(x, dtype=float)
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
    k = x.shape[1]

    needs_alg1 = DetectorKind.GD_HE in kinds or DetectorKind.C_AGD in kinds
    needs_em = DetectorKind.AGD in kinds or DetectorKind.C_GD_HE in kinds
    needs_h0 = DetectorKind.GD_HE in kinds or DetectorKind.C_GD_HE in kinds
    needs_z = needs_em or DetectorKind.C_AGD in kinds
    if (needs_alg1 or needs_em) and cfg is None:
        raise ValueError("adaptive detectors need an EstimationConfig")
    if (needs_alg1 or needs_em) and k < 2:
        raise ValueError("adaptive detectors need K >= 2")
    if DetectorKind.CD in kinds:
        if true_mean is None or true_sigma2 is None:
            raise ValueError("cd needs true_mean and true_sigma2")
        true_mean = np.asarray(true_mean, dtype=float)
        true_sigma2 = np.asarray(true_sigma2, dtype=float)
        if true_mean.shape != (2,):
            raise ValueError("true_mean must be a 2-vector")
        if true_sigma2.shape[-1] != k or np.any(true_sigma2 <= 0):
            raise ValueError("true_sigma2 must be positive with K entries")

    z = directions(x)[0] if needs_z else None

    m1 = s21 = None
    if needs_alg1:
        m1, s21, _, _ = cyclic_ml_batch(x, ml_init(x, cfg), cfg.c0, cfg.n_co1, cfg.eps)

    m2 = s22 = None
    if needs_em:
        m0, s20 = em_init(x, z, cfg)
        m2, s22, _, _ = cyclic_em_batch(
            z, m0, s20, cfg.c0, cfg.n_co2, cfg.n_em_m, cfg.n_em_sigma,
            cfg.eps1, cfg.eps2, cfg.eps3,
        )

    ll0 = gaussian_loglik(x, np.zeros(2), _h0_variances(x, cfg.c0)) if needs_h0 else None

    out = {}
    for kind in kinds:
        if kind is DetectorKind.GD_HE:
            out[kind] = gaussian_loglik(x, m1, s21) - ll0
        elif kind is DetectorKind.AGD:
            out[kind] = _angular(kind, z, m2, s22)
        elif kind is DetectorKind.C_GD_HE:
            out[kind] = gaussian_loglik(x, m2, s22) - ll0
        elif kind is DetectorKind.C_AGD:
            out[kind] = _angular(kind, z, m1, s21)
        elif kind is DetectorKind.CD:
            out[kind] = (
                -np.sum(_sq_norm(x - true_mean) / true_sigma2, axis=-1)
                + np.sum(_sq_norm(x) / true_sigma2, axis=-1)
            )
        elif kind is DetectorKind.ED:
            out[kind] = np.sum(x * x, axis=(-2, -1))
        elif kind is DetectorKind.CHD:
            out[kind] = _sq_norm(_pulse_sum(x))
        else:
            energy = np.sum(x * x, axis=(-2, -1))
            if np.any(energy == 0.0):
                raise ValueError("ca-chd is undefined on an all-zero burst")
            out[kind] = _sq_norm(_pulse_sum(x)) / energy
    # A NaN would otherwise count as a non-exceedance of every threshold.
    for kind, values in out.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NonFiniteStatistic(kind, int(bad[0]))
    return out


def _single(burst: Burst, kind: DetectorKind, cfg=None, true_mean=None, true_sigma2=None) -> float:
    if not isinstance(burst, Burst):
        raise ValueError("expected a Burst")
    values = statistics_batch(burst.samples[None], [kind], cfg, true_mean, true_sigma2)
    return float(values[kind][0])


def gd_he(burst: Burst, cfg: EstimationConfig) -> float:
    """Raw-domain generalized likelihood ratio with cyclic-ML estimates."""
    return _single(burst, DetectorKind.GD_HE, cfg)


def agd(burst: Burst, cfg: EstimationConfig) -> float:
    """Direction-domain statistic with direction-domain EM estimates."""
    return _single(burst, DetectorKind.AGD, cfg)


def c_gd_he(burst: Burst, cfg: EstimationConfig) -> float:
    """Raw-domain likelihood ratio evaluated at direction-domain EM estimates."""
    return _single(burst, DetectorKind.C_GD_HE, cfg)


def c_agd(burst: Burst, cfg: EstimationConfig) -> float:
    """Direction-domain statistic evaluated at cyclic-ML estimates."""
    return _single(burst, DetectorKind.C_AGD, cfg)


def cd(burst: Burst, true_m: np.ndarray, true_sigma2: np.ndarray) -> float:
    """Clairvoyant quadratic statistic at the true parameters."""
    return _single(burst, DetectorKind.CD, true_mean=true_m, true_sigma2=true_sigma2)


def ed(burst: Burst) -> float:
    """Total received energy."""
    return _single(burst, DetectorKind.ED)


def chd(burst: Burst) -> float:
    """Squared norm of the coherent sum."""
    return _single(burst, DetectorKind.CHD)


def ca_chd(burst: Burst) -> float:
    """Coherent-sum power normalized by total energy; lies in [0, K]."""
    return _single(burst, DetectorKind.CA_CHD)
