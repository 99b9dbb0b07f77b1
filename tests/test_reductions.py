"""The written-out I/Q and pulse sums against the numpy reductions they replace.

`numerics._sq_norm` and `numerics._pulse_sum` must give np.sum's bits.  The
property test checks the helpers alone; the reference test keeps the
np.sum-based formulas the estimators, detectors and `directions` used
before, and checks every statistic and batched engine against them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetdet import detectors
from hetdet.detectors import DetectorKind, statistics_batch
from hetdet.estimation import (
    EstimationConfig,
    _ascend,
    _em_point,
    em_init,
    em_mean_batch,
    em_sigma_batch,
)
from hetdet.numerics import _pulse_sum, _sq_norm, log1p_mills
from hetdet.scenario import Hypothesis, ScenarioConfig, directions, gen_block


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64)
    )


@st.composite
def _stacks(draw):
    """A C-contiguous (B, K, 2) stack, cut by a boolean row mask as `_ascend` cuts its state.

    Magnitudes span 1e-300 to 1e300 with both signs, and some entries are
    +0.0 or -0.0 (all of them, in some examples).
    """
    rows = draw(st.integers(1, 600))
    k = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = sorted(draw(st.integers(-300, 300)) for _ in range(2))
    v = rng.choice([-1.0, 1.0], size=(rows, k, 2)) * 10.0 ** rng.uniform(lo, hi, size=(rows, k, 2))
    zeros = rng.random(v.shape) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    v[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
    keep = rng.random(rows) < draw(st.sampled_from([1.0, 0.7, 0.2]))
    keep[rng.integers(rows)] = True
    return v[keep]


class TestHelpersMatchNumpy:
    @settings(max_examples=150)
    @given(v=_stacks())
    def test_bit_for_bit(self, v):
        # Squares and sums of 1e300 overflow, to inf on both sides.
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_same_bits(_sq_norm(v), np.sum(v * v, axis=-1))
            _assert_same_bits(_pulse_sum(v), np.sum(v, axis=1))
            _assert_same_bits(_pulse_sum(v) / v.shape[1], v.mean(axis=1))

    def test_negative_zeros_sum_to_positive_zero(self):
        v = np.full((3, 5, 2), -0.0)
        _assert_same_bits(_pulse_sum(v), np.zeros((3, 2)))
        _assert_same_bits(_sq_norm(v), np.zeros((3, 5)))


# The np.sum-based formulas the package used before the sums were written out.


def _ref_gaussian_loglik(x, m, sigma2):
    diff = x - np.asarray(m)[..., None, :]
    q = np.sum(diff * diff, axis=-1)
    return -np.sum(np.log(2.0 * np.pi * sigma2) + q / (2.0 * sigma2), axis=-1)


def _ref_angular_loglik(z, m, sigma2):
    p = np.einsum("...kj,...j->...k", z, m)
    msq = np.sum(m * m, axis=-1)[..., None]
    log_term = log1p_mills(p / np.sqrt(sigma2))
    return np.sum(-msq / (2.0 * sigma2) - np.log(2.0 * np.pi) + log_term, axis=-1)


def _ref_angular_statistic(z, m, sigma2):
    p = np.einsum("...kj,...j->...k", z, m)
    msq = np.sum(m * m, axis=-1)
    t = p / np.sqrt(sigma2)
    return -msq * np.sum(1.0 / (2.0 * sigma2), axis=-1) + np.sum(log1p_mills(t), axis=-1)


def _ref_directions(x):
    return x / np.sqrt(np.sum(x * x, axis=-1))[..., None]


def _ref_em_init(x, z, cfg):
    u = x if cfg.paper_init else z
    m0 = u.mean(axis=1)
    return m0, np.maximum(0.5 * np.sum((u - m0[:, None, :]) ** 2, axis=-1), cfg.c0)


def _ref_cyclic_ml(x, sigma2_init, c0, n_max, eps):
    def step(m, s2, xa):
        w = 1.0 / s2
        m_new = np.sum(xa * w[..., None], axis=1) / np.sum(w, axis=1)[:, None]
        resid = xa - m_new[:, None, :]
        s2_new = np.maximum(0.5 * np.sum(resid * resid, axis=-1), c0)
        return (m_new, s2_new), _ref_gaussian_loglik(xa, m_new, s2_new)

    b = x.shape[0]
    (m, s2), trace, iters = _ascend(
        step, (np.zeros((b, 2)), sigma2_init), (x,), np.full(b, -np.inf), n_max, eps
    )
    return m, s2, trace[:, 1:], iters


def _ref_em_mean(z, m_init, sigma2, n_max, eps):
    def at(za, m, s2):
        ll, h, _ = _em_point(np.einsum("bkj,bj->bk", za, m), np.sum(m * m, axis=-1)[:, None], s2)
        return ll, h

    def step(m, h, za, s2, w, w_sum):
        m_new = np.sum((h * w)[..., None] * za, axis=1) / w_sum[:, None]
        ll_new, h_new = at(za, m_new, s2)
        return (m_new, h_new), ll_new

    w = 1.0 / sigma2
    ll0, h0 = at(z, m_init, sigma2)
    (m, _), trace, iters = _ascend(
        step, (m_init, h0), (z, sigma2, w, np.sum(w, axis=1)), ll0, n_max, eps
    )
    return m, trace, iters


def _ref_em_sigma(z, m, sigma2_init, c0, n_max, eps):
    def step(s2, resid, p, msq):
        s2_new = np.maximum(0.5 * resid, c0)
        ll_new, _, resid_new = _em_point(p, msq, s2_new)
        return (s2_new, resid_new), ll_new

    p = np.einsum("bkj,bj->bk", z, m)
    msq = np.sum(m * m, axis=-1)[:, None]
    ll0, _, resid0 = _em_point(p, msq, sigma2_init)
    (s2, _), trace, iters = _ascend(step, (sigma2_init, resid0), (p, msq), ll0, n_max, eps)
    return s2, trace, iters


def _ref_cyclic_em(z, m_init, sigma2_init, c0, n_co2, n_em_m, n_em_sigma, eps1, eps2, eps3):
    def step(m, s2, za):
        m_new, _, _ = _ref_em_mean(za, m, s2, n_em_m, eps1)
        s2_new, trace, iters = _ref_em_sigma(za, m_new, s2, c0, n_em_sigma, eps2)
        return (m_new, s2_new), trace[np.arange(iters.size), iters]

    (m, s2), trace, iters = _ascend(
        step, (m_init, sigma2_init), (z,), _ref_angular_loglik(z, m_init, sigma2_init), n_co2, eps3
    )
    return m, s2, trace, iters


def _ref_statistics(x, cfg, true_mean, true_sigma2):
    """({kind: statistic}, cyclic-ML run, cyclic-EM run), all with the np.sum formulas."""
    z = _ref_directions(x)
    ml = _ref_cyclic_ml(x, np.maximum(np.sum(x * x, axis=-1), cfg.c0), cfg.c0, cfg.n_co1, cfg.eps)
    m0, s20 = _ref_em_init(x, z, cfg)
    em = _ref_cyclic_em(
        z, m0, s20, cfg.c0, cfg.n_co2, cfg.n_em_m, cfg.n_em_sigma, cfg.eps1, cfg.eps2, cfg.eps3
    )
    (m1, s21), (m2, s22) = ml[:2], em[:2]
    ll0 = _ref_gaussian_loglik(x, np.zeros(2), np.maximum(0.5 * np.sum(x * x, axis=-1), cfg.c0))
    diff = x - true_mean
    s = np.sum(x, axis=-2)
    energy = np.sum(x * x, axis=(-2, -1))
    stats = {
        DetectorKind.GD_HE: _ref_gaussian_loglik(x, m1, s21) - ll0,
        DetectorKind.AGD: _ref_angular_statistic(z, m2, s22),
        DetectorKind.C_GD_HE: _ref_gaussian_loglik(x, m2, s22) - ll0,
        DetectorKind.C_AGD: _ref_angular_statistic(z, m1, s21),
        DetectorKind.CD: (
            -np.sum(np.sum(diff * diff, axis=-1) / true_sigma2, axis=-1)
            + np.sum(np.sum(x * x, axis=-1) / true_sigma2, axis=-1)
        ),
        DetectorKind.ED: energy,
        DetectorKind.CHD: np.sum(s * s, axis=-1),
        DetectorKind.CA_CHD: np.sum(s * s, axis=-1) / energy,
    }
    return stats, ml, em


class TestMatchesNumpyReference:
    """Every statistic and batched engine against the np.sum formulas on 1000 bursts."""

    @pytest.mark.parametrize("delta", [0.0, 10.0, 50.0])
    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    @pytest.mark.parametrize("paper_init", [False, True])
    def test_bit_for_bit(self, monkeypatch, delta, hypothesis, paper_init):
        cfg = EstimationConfig(paper_init=paper_init)
        scen = ScenarioConfig(k=16, delta=delta, snr_db=9.0)
        x, sigma2 = gen_block(scen, hypothesis, seed=66, start=0, count=1000)
        runs = {}
        for name in ("cyclic_ml_batch", "cyclic_em_batch"):
            engine = getattr(detectors, name)

            def recorded(*args, _engine=engine, _name=name):
                runs[_name] = _engine(*args)
                return runs[_name]

            monkeypatch.setattr(detectors, name, recorded)
        stats = statistics_batch(x, list(DetectorKind), cfg, scen.target_mean, sigma2)
        ref_stats, ref_ml, ref_em = _ref_statistics(x, cfg, scen.target_mean, sigma2)
        for kind in DetectorKind:
            _assert_same_bits(stats[kind], ref_stats[kind])
        for got, want in [*zip(runs["cyclic_ml_batch"], ref_ml), *zip(runs["cyclic_em_batch"], ref_em)]:
            _assert_same_bits(got, want)

        z = directions(x)[0]
        _assert_same_bits(z, _ref_directions(x))
        m0, s20 = em_init(x, z, cfg)
        for got, want in zip((m0, s20), _ref_em_init(x, z, cfg)):
            _assert_same_bits(got, want)
        for got, want in [
            *zip(em_mean_batch(z, m0, s20, cfg.n_em_m, cfg.eps1), _ref_em_mean(z, m0, s20, cfg.n_em_m, cfg.eps1)),
            *zip(em_sigma_batch(z, m0, s20, cfg.c0, cfg.n_em_sigma, cfg.eps2),
                 _ref_em_sigma(z, m0, s20, cfg.c0, cfg.n_em_sigma, cfg.eps2)),
        ]:
            _assert_same_bits(got, want)
