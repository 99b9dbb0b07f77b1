"""Tests for the two iterative estimators and their likelihood helpers.

Single-burst checks run the batched engines on a stack of one.
"""

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from hetdet.estimation import (
    EstimationConfig,
    _ascend,
    _h0_variances,
    angular_loglik,
    cyclic_em_batch,
    cyclic_ml_batch,
    em_mean_batch,
    em_sigma_batch,
    gaussian_loglik,
)
from hetdet.numerics import _sq_norm, cond_mean_norm, cond_mean_sq_residual, log1p_mills
from hetdet.scenario import Hypothesis, ScenarioConfig, directions, gen_block

from oracles import angular_density_exact

RUN_TO_CAP = EstimationConfig(eps=0.0, eps1=0.0, eps2=0.0, eps3=0.0)


def _burst(seed=11, trial=0, k=16, delta=10.0, snr_db=15.0):
    """One H1 trial as a (1, K, 2) stack."""
    cfg = ScenarioConfig(k=k, delta=delta, snr_db=snr_db)
    return gen_block(cfg, Hypothesis.H1, seed, trial, 1)[0]


def _default_em_init(z, c0):
    m0 = z.mean(axis=1)
    s20 = np.maximum(0.5 * np.sum((z - m0[:, None, :]) ** 2, axis=2), c0)
    return m0, s20


def _cyclic_ml(x, cfg, init):
    """(m, sigma2, trace) of the one burst in x; trace entry j is iteration j + 1."""
    m, s2, trace, iters = cyclic_ml_batch(x, init, cfg.c0, cfg.n_co1, cfg.eps)
    assert np.all(np.isnan(trace[0, iters[0]:]))
    return m[0], s2[0], trace[0, : iters[0]]


def _cyclic_em(z, cfg, m0, s20):
    """(m, sigma2, trace) of the one burst in z; trace entry 0 is the initialization."""
    m, s2, trace, iters = cyclic_em_batch(
        z, m0, s20, cfg.c0, cfg.n_co2, cfg.n_em_m, cfg.n_em_sigma, cfg.eps1, cfg.eps2, cfg.eps3
    )
    assert np.all(np.isnan(trace[0, iters[0] + 1:]))
    return m[0], s2[0], trace[0, : iters[0] + 1]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimationConfig(c0=0.0)
        with pytest.raises(ValueError):
            EstimationConfig(n_co1=0)
        with pytest.raises(ValueError):
            EstimationConfig(n_em_m=1.5)
        with pytest.raises(ValueError):
            EstimationConfig(eps=-1e-3)
        with pytest.raises(ValueError):
            EstimationConfig(eps3=np.nan)

    def test_defaults(self):
        cfg = EstimationConfig()
        assert cfg.c0 == 1.0
        assert cfg.n_co1 == 15
        assert cfg.n_em_m == 20
        assert not cfg.paper_init


class TestLoglikHelpers:
    def test_gaussian_loglik_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 2))
        m = np.array([0.4, -0.2])
        s2 = rng.uniform(0.5, 3.0, size=5)
        direct = sum(
            -np.log(2.0 * np.pi * s2[i])
            - np.sum((x[i] - m) ** 2) / (2.0 * s2[i])
            for i in range(5)
        )
        assert np.isclose(gaussian_loglik(x, m, s2), direct, rtol=1e-13)

    def test_gaussian_loglik_batched(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5, 2))
        m = rng.standard_normal((3, 2))
        s2 = rng.uniform(0.5, 3.0, size=(3, 5))
        batched = gaussian_loglik(x, m, s2)
        assert batched.shape == (3,)
        for i in range(3):
            assert np.isclose(batched[i], gaussian_loglik(x[i], m[i], s2[i]), rtol=1e-13)

    def test_angular_loglik_matches_density(self):
        rng = np.random.default_rng(2)
        theta = rng.uniform(0, 2 * np.pi, size=6)
        z = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        m = np.array([1.2, 0.5])
        s2 = rng.uniform(0.5, 3.0, size=6)
        direct = sum(
            float(mp.log(angular_density_exact(theta[i], m[0], m[1], s2[i]))) for i in range(6)
        )
        assert np.isclose(angular_loglik(z, m, s2), direct, rtol=1e-12)

    def test_angular_loglik_uniform_at_zero_mean(self):
        z = np.tile([1.0, 0.0], (4, 1))
        val = angular_loglik(z, np.zeros(2), np.ones(4))
        assert np.isclose(val, -4.0 * np.log(2.0 * np.pi), rtol=1e-15)


def _angular_density(theta, m, sigma2):
    """exp(angular_loglik) of one-pulse bursts at the angles theta: the direction density."""
    theta = np.atleast_1d(theta)
    z = np.stack([np.cos(theta), np.sin(theta)], axis=-1)[:, None, :]
    return np.exp(angular_loglik(z, np.asarray(m, dtype=float), np.array([sigma2])))


class TestOnePulseDensities:
    """With K = 1 the two log-likelihoods are log densities: of a sample, and of its direction."""

    def test_gaussian_peak_and_normalization(self):
        m = np.array([0.7, -1.2])
        peak = np.exp(gaussian_loglik(m[None, :], m, np.array([1.0])))
        assert peak == 1.0 / (2.0 * np.pi)
        val, err = integrate.dblquad(
            lambda y, x: np.exp(gaussian_loglik(np.array([[x, y]]), m, np.array([2.0]))),
            -15.0, 15.0, -15.0, 15.0, epsabs=1e-10,
        )
        np.testing.assert_allclose(val, 1.0, atol=1e-8)
        assert err < 1e-8

    def test_angular_batched_rows(self):
        rng = np.random.default_rng(4)
        theta = rng.uniform(0.0, 2.0 * np.pi, (64, 1))
        z = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        m = 3.0 * rng.standard_normal((64, 2))
        s2 = np.full((64, 1), 1.5)
        single = [angular_loglik(z[i], m[i], s2[i]) for i in range(64)]
        np.testing.assert_allclose(angular_loglik(z, m, s2), single, rtol=1e-15)

    def test_angular_rotation_invariant(self):
        """The density depends on the direction only through its angle to the mean."""
        thetas = np.linspace(0.0, 2.0 * np.pi, 13)
        m = np.array([2.0, -1.0])
        for rot in (0.3, 2.0, -1.1):
            c, s = np.cos(rot), np.sin(rot)
            m_rot = np.array([c * m[0] - s * m[1], s * m[0] + c * m[1]])
            np.testing.assert_allclose(
                _angular_density(thetas + rot, m_rot, 0.8), _angular_density(thetas, m, 0.8),
                rtol=1e-12,
            )

    def test_angular_peaks_along_mean_and_is_symmetric(self):
        m = np.array([1.5, 2.0])
        phi = np.arctan2(m[1], m[0])
        d = np.linspace(0.05, np.pi - 0.05, 40)
        peak = _angular_density(phi, m, 1.2)[0]
        left, right = _angular_density(phi - d, m, 1.2), _angular_density(phi + d, m, 1.2)
        np.testing.assert_allclose(left, right, rtol=1e-12)
        assert np.all(right < peak) and np.all(np.diff(right) < 0)

    def test_angular_normalizes_on_circle(self):
        for m, s2 in (([1.5, -0.5], 1.0), ([4.0, 3.0], 0.5)):
            val, _ = integrate.quad(
                lambda th: _angular_density(th, m, s2)[0],
                0.0, 2.0 * np.pi, epsabs=1e-12, limit=200,
            )
            np.testing.assert_allclose(val, 1.0, atol=1e-10)

    def test_angular_matches_magnitude_marginalization(self):
        """Defining relation: integrate the joint density over the magnitude."""
        m = [1.2, -0.8]
        thetas = np.array([0.1, 1.0, 2.5, 4.0])
        got = _angular_density(thetas, m, 1.7)
        for theta, gi in zip(thetas, got):
            ref = float(angular_density_exact(theta, m[0], m[1], 1.7))
            np.testing.assert_allclose(gi, ref, rtol=1e-10)

    def test_angular_extreme_mean_stays_finite(self):
        """Positive wherever the true value is representable in float64."""
        thetas = np.array([0.0, np.pi / 2, np.pi])
        v = _angular_density(thetas, [35.0, 0.0], 1.0)
        assert np.all(np.isfinite(v)) and np.all(v > 0)
        # At 80 sigma the opposing direction genuinely underflows; no NaN/Inf.
        v = _angular_density(thetas, [80.0, 0.0], 1.0)
        assert np.all(np.isfinite(v)) and np.all(v >= 0) and v[0] > 0


class TestDirectionLikelihoodHasNoMaximum:
    """The direction likelihood rises without bound along aligned means, so agd has no maximum.

    One pulse at cos(phi - theta) = 1 adds -a^2/2 + log1p_mills(a) with
    a = ||m||/sigma, which grows like log a + log(2*pi)/2; the ascent is
    stopped by its iteration cap and tolerance, not by a maximum.
    """

    AMPLITUDES = (16.0, 64.0, 256.0, 1e4)

    def test_one_pulse_term_grows_like_log_amplitude(self):
        for a in self.AMPLITUDES:
            term = -0.5 * a * a + log1p_mills(a)
            np.testing.assert_allclose(term, np.log(a) + 0.5 * np.log(2.0 * np.pi), rtol=1e-9)

    def test_aligned_burst_loglik_rises_strictly(self):
        z = np.tile([1.0, 0.0], (16, 1))
        ll = [angular_loglik(z, np.array([a, 0.0]), np.ones(16)) for a in self.AMPLITUDES]
        assert np.all(np.diff(ll) > 0)


class TestH0Variances:
    def test_value_and_floor(self):
        x = np.array([[3.0, 4.0], [0.1, 0.0], [0.0, 2.0]])
        s2 = _h0_variances(_sq_norm(x), 1.0)
        np.testing.assert_allclose(s2, [12.5, 1.0, 2.0], rtol=1e-15)


class TestCyclicML:
    def test_monotone_ascent_to_cap(self):
        x = _burst()
        init = np.maximum(np.sum(x**2, axis=2), 1.0)
        _, _, lls = _cyclic_ml(x, RUN_TO_CAP, init)
        assert len(lls) == RUN_TO_CAP.n_co1
        assert np.all(np.isfinite(lls))
        assert np.all(np.diff(lls) >= -1e-9)

    def test_stationarity_at_convergence(self):
        x = _burst(seed=3)
        cfg = EstimationConfig(eps=1e-12, n_co1=200)
        init = np.maximum(np.sum(x**2, axis=2), 1.0)
        m_hat, s2_hat, _ = _cyclic_ml(x, cfg, init)
        w = 1.0 / s2_hat
        m_re = np.sum(x[0] * w[:, None], axis=0) / np.sum(w)
        np.testing.assert_allclose(m_re, m_hat, rtol=1e-6, atol=1e-8)
        resid = x[0] - m_hat
        s2_re = np.maximum(0.5 * np.sum(resid**2, axis=1), cfg.c0)
        np.testing.assert_allclose(s2_re, s2_hat, rtol=1e-6)

    def test_floor_respected(self):
        x = _burst(snr_db=-np.inf, delta=0.0)
        _, s2_hat, _ = _cyclic_ml(x, EstimationConfig(c0=50.0), np.full((1, 16), 50.0))
        assert np.all(s2_hat == 50.0)

    def test_early_stop_with_loose_tolerance(self):
        x = _burst(seed=5)
        init = np.maximum(np.sum(x**2, axis=2), 1.0)
        _, _, lls = _cyclic_ml(x, EstimationConfig(eps=1e10), init)
        # Iterations 1 and 2: the first has no predecessor to compare with.
        assert len(lls) == 2 and np.all(np.isfinite(lls))

    def test_power_of_two_scale_equivariance(self):
        x = _burst(seed=9)
        c = 4.0
        init = np.maximum(np.sum(x**2, axis=2), 1.0)
        base_m, base_s2, _ = _cyclic_ml(x, RUN_TO_CAP, init)
        scaled_m, scaled_s2, _ = _cyclic_ml(c * x, EstimationConfig(c0=c * c, eps=0.0), c * c * init)
        np.testing.assert_array_equal(scaled_m, c * base_m)
        np.testing.assert_array_equal(scaled_s2, c * c * base_s2)


class TestEmSteps:
    def test_mean_step_improves_loglik(self):
        z = directions(_burst(seed=21))[0]
        m0, s20 = _default_em_init(z, 1.0)
        m1 = em_mean_batch(z, m0, s20, 1, 0.0)[0]
        before = angular_loglik(z, m0, s20)
        after = angular_loglik(z, m1, s20)
        assert after >= before - 1e-12

    def test_sigma_step_improves_loglik_and_floors(self):
        z = directions(_burst(seed=22))[0]
        m0, s20 = _default_em_init(z, 1.0)
        s21 = em_sigma_batch(z, m0, s20, 1.0, 1, 0.0)[0]
        assert np.all(s21 >= 1.0)
        before = angular_loglik(z, m0, s20)
        after = angular_loglik(z, m0, s21)
        assert after >= before - 1e-12

    def test_converged_estimate_is_near_fixed_point(self):
        z = directions(_burst(seed=23))[0]
        m0, s20 = _default_em_init(z, 1.0)
        cfg = EstimationConfig(n_co2=60, n_em_m=60, n_em_sigma=60, eps1=1e-12, eps2=1e-12, eps3=1e-10)
        m_hat, s2_hat, _ = _cyclic_em(z, cfg, m0, s20)
        m_next = em_mean_batch(z, m_hat[None], s2_hat[None], 1, 0.0)[0][0]
        assert np.linalg.norm(m_next - m_hat) < 1e-3 * np.linalg.norm(m_hat)

    def test_steps_equal_one_batched_iteration(self):
        cfg = ScenarioConfig(k=16, delta=10.0, snr_db=9.0)
        x, _ = gen_block(cfg, Hypothesis.H1, seed=24, start=0, count=200)
        z = directions(x)[0]
        m0 = z.mean(axis=1)
        s20 = np.maximum(0.5 * np.sum((z - m0[:, None, :]) ** 2, axis=2), 1.0)
        m1, _, _ = em_mean_batch(z, m0, s20, 1, 0.0)
        s21, _, _ = em_sigma_batch(z, m0, s20, 1.0, 1, 0.0)
        for i in range(len(x)):
            row = slice(i, i + 1)
            m1_row = em_mean_batch(z[row], m0[row], s20[row], 1, 0.0)[0]
            s21_row = em_sigma_batch(z[row], m0[row], s20[row], 1.0, 1, 0.0)[0]
            np.testing.assert_array_equal(m1_row[0], m1[i])
            np.testing.assert_array_equal(s21_row[0], s21[i])


class TestCyclicEM:
    def test_monotone_outer_trace(self):
        z = directions(_burst(seed=31))[0]
        m0, s20 = _default_em_init(z, 1.0)
        _, _, lls = _cyclic_em(z, RUN_TO_CAP, m0, s20)
        assert len(lls) == RUN_TO_CAP.n_co2 + 1
        assert np.all(np.isfinite(lls))
        assert np.all(np.diff(lls) >= -1e-9)

    def test_trace_starts_at_init_loglik(self):
        z = directions(_burst(seed=32))[0]
        m0, s20 = _default_em_init(z, 1.0)
        _, _, lls = _cyclic_em(z, RUN_TO_CAP, m0, s20)
        assert np.isclose(lls[0], angular_loglik(z, m0, s20)[0], rtol=1e-13)

    def test_loose_tolerance_stops_after_one_cycle(self):
        z = directions(_burst(seed=33))[0]
        m0, s20 = _default_em_init(z, 1.0)
        _, _, lls = _cyclic_em(z, EstimationConfig(eps3=1e10), m0, s20)
        # The initialization and one outer cycle.
        assert len(lls) == 2 and np.all(np.isfinite(lls))

    def test_recovers_target_direction(self):
        cfg = ScenarioConfig(k=64, delta=10.0, snr_db=20.0, target_phase=1.1)
        x, _ = gen_block(cfg, Hypothesis.H1, 34, 0, 1)
        z = directions(x)[0]
        m0, s20 = _default_em_init(z, 1.0)
        m_hat, _, _ = _cyclic_em(z, RUN_TO_CAP, m0, s20)
        angle = np.arctan2(m_hat[1], m_hat[0])
        assert abs(angle - 1.1) < 0.15

    def test_per_sample_scale_invariance(self):
        x = _burst(seed=35)
        scales = 2.0 ** np.arange(-7, 9)
        scaled = scales[None, :, None] * x
        z_a = directions(x)[0]
        z_b = directions(scaled)[0]
        m0, s20 = _default_em_init(z_a, 1.0)
        m_a, s2_a, _ = _cyclic_em(z_a, RUN_TO_CAP, m0, s20)
        m_b, s2_b, _ = _cyclic_em(z_b, RUN_TO_CAP, m0, s20)
        np.testing.assert_array_equal(m_a, m_b)
        np.testing.assert_array_equal(s2_a, s2_b)


class TestBatchedEngines:
    def test_cyclic_ml_batch_matches_single(self):
        cfg = ScenarioConfig(k=16, delta=10.0, snr_db=12.0)
        x, _ = gen_block(cfg, Hypothesis.H1, seed=50, start=0, count=12)
        init = np.maximum(np.sum(x**2, axis=2), 1.0)
        ecfg = EstimationConfig()
        m_b, s2_b, trace, iters = cyclic_ml_batch(x, init, ecfg.c0, ecfg.n_co1, ecfg.eps)
        assert len(set(iters.tolist())) > 1
        for i in range(12):
            m_1, s2_1, trace_1, iters_1 = cyclic_ml_batch(
                x[i : i + 1], init[i : i + 1], ecfg.c0, ecfg.n_co1, ecfg.eps
            )
            np.testing.assert_array_equal(m_b[i], m_1[0])
            np.testing.assert_array_equal(s2_b[i], s2_1[0])
            assert iters[i] == iters_1[0]
            np.testing.assert_array_equal(trace[i], trace_1[0])
            assert np.all(np.isnan(trace[i, iters[i]:]))

    def test_cyclic_em_batch_matches_single(self):
        cfg = ScenarioConfig(k=16, delta=10.0, snr_db=12.0)
        x, _ = gen_block(cfg, Hypothesis.H1, seed=51, start=0, count=8)
        z = x / np.linalg.norm(x, axis=2, keepdims=True)
        m0 = z.mean(axis=1)
        s20 = np.maximum(0.5 * np.sum((z - m0[:, None, :]) ** 2, axis=2), 1.0)
        ecfg = EstimationConfig()
        m_b, s2_b, trace, iters = cyclic_em_batch(
            z, m0, s20, ecfg.c0, ecfg.n_co2, ecfg.n_em_m, ecfg.n_em_sigma,
            ecfg.eps1, ecfg.eps2, ecfg.eps3,
        )
        for i in range(8):
            m_1, s2_1, _ = _cyclic_em(directions(x[i : i + 1])[0], ecfg, m0[i : i + 1], s20[i : i + 1])
            np.testing.assert_array_equal(m_b[i], m_1)
            np.testing.assert_array_equal(s2_b[i], s2_1)
            assert np.all(np.isnan(trace[i, iters[i] + 1:]))

    def test_inner_em_traces_monotone(self):
        cfg = ScenarioConfig(k=16, delta=10.0, snr_db=12.0)
        x, _ = gen_block(cfg, Hypothesis.H1, seed=52, start=0, count=16)
        z = x / np.linalg.norm(x, axis=2, keepdims=True)
        m0 = z.mean(axis=1)
        s20 = np.maximum(0.5 * np.sum((z - m0[:, None, :]) ** 2, axis=2), 1.0)
        _, trace_m, _ = em_mean_batch(z, m0, s20, 20, 0.0)
        m1 = trace_m[:, -1]
        assert np.all(np.diff(trace_m, axis=1) >= -1e-9)
        assert np.all(np.isfinite(m1))
        m_new, _, _ = em_mean_batch(z, m0, s20, 20, 0.0)
        _, trace_s, _ = em_sigma_batch(z, m_new, s20, 1.0, 20, 0.0)
        assert np.all(np.diff(trace_s, axis=1) >= -1e-9)

    def test_monotone_ascent_many_bursts(self):
        cfg = ScenarioConfig(k=16, delta=10.0, snr_db=10.0)
        x, _ = gen_block(cfg, Hypothesis.H1, seed=53, start=0, count=100)
        init = np.maximum(np.sum(x**2, axis=2), 1.0)
        _, _, trace1, _ = cyclic_ml_batch(x, init, 1.0, 15, 0.0)
        diffs = np.diff(trace1, axis=1)
        assert np.all(diffs[~np.isnan(diffs)] >= -1e-9)
        z = x / np.linalg.norm(x, axis=2, keepdims=True)
        m0 = z.mean(axis=1)
        s20 = np.maximum(0.5 * np.sum((z - m0[:, None, :]) ** 2, axis=2), 1.0)
        _, _, trace2, _ = cyclic_em_batch(z, m0, s20, 1.0, 15, 20, 20, 0.0, 0.0, 0.0)
        diffs2 = np.diff(trace2, axis=1)
        assert np.all(diffs2[~np.isnan(diffs2)] >= -1e-9)


def _unfused_em_mean(z, m_init, sigma2, n_max, eps):
    """Reference engine: checked public kernels, angular_loglik for every stop check."""

    def step(m, za, s2, w, w_sum):
        h = cond_mean_norm(np.einsum("bkj,bj->bk", za, m), s2)
        m_new = np.sum((h * w)[..., None] * za, axis=1) / w_sum[:, None]
        return (m_new,), angular_loglik(za, m_new, s2)

    w = 1.0 / sigma2
    (m,), trace, iters = _ascend(
        step, (m_init,), (z, sigma2, w, np.sum(w, axis=1)),
        angular_loglik(z, m_init, sigma2), n_max, eps,
    )
    return m, trace, iters


def _unfused_em_sigma(z, m, sigma2_init, c0, n_max, eps):
    def step(s2, za, ma, p, msq):
        s2_new = np.maximum(0.5 * cond_mean_sq_residual(p, s2, msq), c0)
        return (s2_new,), angular_loglik(za, ma, s2_new)

    consts = (z, m, np.einsum("bkj,bj->bk", z, m), np.sum(m * m, axis=-1)[:, None])
    (s2,), trace, iters = _ascend(
        step, (sigma2_init,), consts, angular_loglik(z, m, sigma2_init), n_max, eps
    )
    return s2, trace, iters


def _unfused_cyclic_em(z, m_init, sigma2_init, c0, n_co2, n_em_m, n_em_sigma, eps1, eps2, eps3):
    def step(m, s2, za):
        m_new, _, _ = _unfused_em_mean(za, m, s2, n_em_m, eps1)
        s2_new, _, _ = _unfused_em_sigma(za, m_new, s2, c0, n_em_sigma, eps2)
        return (m_new, s2_new), angular_loglik(za, m_new, s2_new)

    (m, s2), trace, iters = _ascend(
        step, (m_init, sigma2_init), (z,), angular_loglik(z, m_init, sigma2_init), n_co2, eps3
    )
    return m, s2, trace, iters


def _assert_close_rows(got, ref, rtol=1e-12):
    """Per-burst relative agreement; m rows are compared by vector norm."""
    err = np.linalg.norm(np.atleast_2d(got - ref), axis=-1)
    assert np.all(err <= rtol * np.linalg.norm(np.atleast_2d(ref), axis=-1))


class TestFusedEngines:
    """The fused-kernel engines against the unfused reference on 10^3 bursts."""

    @pytest.mark.parametrize("delta", [0.0, 10.0, 50.0])
    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    def test_match_unfused_reference(self, delta, hypothesis):
        cfg = EstimationConfig()
        scen = ScenarioConfig(k=16, delta=delta, snr_db=9.0)
        x, _ = gen_block(scen, hypothesis, seed=60, start=0, count=1000)
        z = x / np.linalg.norm(x, axis=2, keepdims=True)
        m0 = z.mean(axis=1)
        s20 = np.maximum(0.5 * np.sum((z - m0[:, None, :]) ** 2, axis=2), cfg.c0)

        runs = [
            (em_mean_batch(z, m0, s20, cfg.n_em_m, cfg.eps1),
             _unfused_em_mean(z, m0, s20, cfg.n_em_m, cfg.eps1)),
            (em_sigma_batch(z, m0, s20, cfg.c0, cfg.n_em_sigma, cfg.eps2),
             _unfused_em_sigma(z, m0, s20, cfg.c0, cfg.n_em_sigma, cfg.eps2)),
        ]
        args = (z, m0, s20, cfg.c0, cfg.n_co2, cfg.n_em_m, cfg.n_em_sigma,
                cfg.eps1, cfg.eps2, cfg.eps3)
        runs.append((cyclic_em_batch(*args), _unfused_cyclic_em(*args)))
        for fused, ref in runs:
            *states, trace, iters = fused
            *ref_states, ref_trace, ref_iters = ref
            np.testing.assert_array_equal(iters, ref_iters)
            # Same starting point, same log term: column 0 agrees bit for bit.
            np.testing.assert_array_equal(trace[:, 0], ref_trace[:, 0])
            # A log-likelihood can cross zero, so each trace is scaled by its row's largest value.
            np.testing.assert_array_equal(np.isnan(trace), np.isnan(ref_trace))
            scale = np.nanmax(np.abs(ref_trace), axis=1, keepdims=True)
            assert np.nanmax(np.abs(trace - ref_trace) / scale) <= 1e-12
            for got, want in zip(states, ref_states):
                _assert_close_rows(got, want)
