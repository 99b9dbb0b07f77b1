"""Tests for the two iterative estimators and their likelihood helpers."""

import numpy as np
import pytest

from hetdet.estimation import (
    EstimationConfig,
    ParamEstimate,
    _ascend,
    angular_loglik,
    cyclic_em,
    cyclic_em_batch,
    cyclic_ml_batch,
    cyclic_ml_h1,
    em_mean_batch,
    em_mean_step,
    em_sigma_batch,
    em_sigma_step,
    gaussian_loglik,
    ml_sigma_h0,
)
from hetdet.numerics import angular_pdf_h1, cond_mean_norm, cond_mean_sq_residual
from hetdet.scenario import (
    Burst,
    Hypothesis,
    ScenarioConfig,
    gen_block,
    gen_uniform_het,
    to_invariant,
    trial_rng,
)

RUN_TO_CAP = EstimationConfig(eps=0.0, eps1=0.0, eps2=0.0, eps3=0.0)


def _burst(seed=11, trial=0, k=16, delta=10.0, snr_db=15.0):
    cfg = ScenarioConfig(k=k, delta=delta, snr_db=snr_db)
    return gen_uniform_het(cfg, Hypothesis.H1, trial_rng(seed, trial))


def _default_em_init(inv, c0):
    m0 = inv.directions.mean(axis=0)
    s20 = np.maximum(0.5 * np.sum((inv.directions - m0) ** 2, axis=1), c0)
    return m0, s20


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


class TestParamEstimate:
    def test_shapes_and_trace(self):
        est = ParamEstimate(np.zeros(2), np.ones(4), [(1, -3.5), (2, -3.0)])
        assert est.trace == ((1, -3.5), (2, -3.0))
        assert not est.m_hat.flags.writeable
        with pytest.raises(ValueError):
            ParamEstimate(np.zeros(3), np.ones(4), [])


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
        direct = sum(np.log(angular_pdf_h1(z[i], m, s2[i])) for i in range(6))
        assert np.isclose(angular_loglik(z, m, s2), direct, rtol=1e-12)

    def test_angular_loglik_uniform_at_zero_mean(self):
        z = np.tile([1.0, 0.0], (4, 1))
        val = angular_loglik(z, np.zeros(2), np.ones(4))
        assert np.isclose(val, -4.0 * np.log(2.0 * np.pi), rtol=1e-15)


class TestH0Variances:
    def test_value_and_floor(self):
        x = np.array([[3.0, 4.0], [0.1, 0.0], [0.0, 2.0]])
        s2 = ml_sigma_h0(Burst(x), c0=1.0)
        np.testing.assert_allclose(s2, [12.5, 1.0, 2.0], rtol=1e-15)

    def test_c0_validated(self):
        with pytest.raises(ValueError):
            ml_sigma_h0(Burst(np.ones((3, 2))), c0=0.0)


class TestCyclicML:
    def test_monotone_ascent_to_cap(self):
        burst, _ = _burst()
        init = np.maximum(np.sum(burst.samples**2, axis=1), 1.0)
        est = cyclic_ml_h1(burst, RUN_TO_CAP, init)
        lls = np.array([v for _, v in est.trace])
        assert len(lls) == RUN_TO_CAP.n_co1
        assert est.trace[0][0] == 1
        assert np.all(np.diff(lls) >= -1e-9)

    def test_stationarity_at_convergence(self):
        burst, _ = _burst(seed=3)
        cfg = EstimationConfig(eps=1e-12, n_co1=200)
        init = np.maximum(np.sum(burst.samples**2, axis=1), 1.0)
        est = cyclic_ml_h1(burst, cfg, init)
        w = 1.0 / est.sigma2_hat
        m_re = np.sum(burst.samples * w[:, None], axis=0) / np.sum(w)
        np.testing.assert_allclose(m_re, est.m_hat, rtol=1e-6, atol=1e-8)
        resid = burst.samples - est.m_hat
        s2_re = np.maximum(0.5 * np.sum(resid**2, axis=1), cfg.c0)
        np.testing.assert_allclose(s2_re, est.sigma2_hat, rtol=1e-6)

    def test_floor_respected(self):
        burst, _ = _burst(snr_db=-np.inf, delta=0.0)
        est = cyclic_ml_h1(burst, EstimationConfig(c0=50.0), np.full(16, 50.0))
        assert np.all(est.sigma2_hat == 50.0)

    def test_early_stop_with_loose_tolerance(self):
        burst, _ = _burst(seed=5)
        init = np.maximum(np.sum(burst.samples**2, axis=1), 1.0)
        est = cyclic_ml_h1(burst, EstimationConfig(eps=1e10), init)
        assert [i for i, _ in est.trace] == [1, 2]

    def test_init_below_floor_rejected(self):
        burst, _ = _burst()
        with pytest.raises(ValueError):
            cyclic_ml_h1(burst, EstimationConfig(c0=2.0), np.ones(16))

    def test_power_of_two_scale_equivariance(self):
        burst, _ = _burst(seed=9)
        c = 4.0
        init = np.maximum(np.sum(burst.samples**2, axis=1), 1.0)
        base = cyclic_ml_h1(burst, RUN_TO_CAP, init)
        scaled = cyclic_ml_h1(
            Burst(c * burst.samples),
            EstimationConfig(c0=c * c, eps=0.0),
            c * c * init,
        )
        np.testing.assert_array_equal(scaled.m_hat, c * base.m_hat)
        np.testing.assert_array_equal(scaled.sigma2_hat, c * c * base.sigma2_hat)


class TestEmSteps:
    def test_mean_step_improves_loglik(self):
        burst, _ = _burst(seed=21)
        inv = to_invariant(burst)
        m0, s20 = _default_em_init(inv, 1.0)
        m1 = em_mean_step(inv, m0, s20)
        before = angular_loglik(inv.directions, m0, s20)
        after = angular_loglik(inv.directions, m1, s20)
        assert after >= before - 1e-12

    def test_sigma_step_improves_loglik_and_floors(self):
        burst, _ = _burst(seed=22)
        inv = to_invariant(burst)
        m0, s20 = _default_em_init(inv, 1.0)
        s21 = em_sigma_step(inv, m0, s20, c0=1.0)
        assert np.all(s21 >= 1.0)
        before = angular_loglik(inv.directions, m0, s20)
        after = angular_loglik(inv.directions, m0, s21)
        assert after >= before - 1e-12

    def test_converged_estimate_is_near_fixed_point(self):
        burst, _ = _burst(seed=23)
        inv = to_invariant(burst)
        m0, s20 = _default_em_init(inv, 1.0)
        cfg = EstimationConfig(n_co2=60, n_em_m=60, n_em_sigma=60, eps1=1e-12, eps2=1e-12, eps3=1e-10)
        est = cyclic_em(inv, cfg, m0, s20)
        m_next = em_mean_step(inv, est.m_hat, est.sigma2_hat)
        assert np.linalg.norm(m_next - est.m_hat) < 1e-3 * np.linalg.norm(est.m_hat)

    def test_steps_equal_one_batched_iteration(self):
        cfg = ScenarioConfig(k=16, delta=10.0, snr_db=9.0)
        x, _ = gen_block(cfg, Hypothesis.H1, seed=24, start=0, count=200)
        invs = [to_invariant(Burst(xi)) for xi in x]
        z = np.stack([inv.directions for inv in invs])
        m0 = z.mean(axis=1)
        s20 = np.maximum(0.5 * np.sum((z - m0[:, None, :]) ** 2, axis=2), 1.0)
        m1, _, _ = em_mean_batch(z, m0, s20, 1, 0.0)
        s21, _, _ = em_sigma_batch(z, m0, s20, 1.0, 1, 0.0)
        for i, inv in enumerate(invs):
            np.testing.assert_array_equal(em_mean_step(inv, m0[i], s20[i]), m1[i])
            np.testing.assert_array_equal(em_sigma_step(inv, m0[i], s20[i], 1.0), s21[i])

    def test_validation(self):
        burst, _ = _burst()
        inv = to_invariant(burst)
        with pytest.raises(ValueError):
            em_mean_step(inv, np.zeros(3), np.ones(16))
        with pytest.raises(ValueError):
            em_mean_step(inv, np.zeros(2), np.ones(15))
        with pytest.raises(ValueError):
            em_sigma_step(inv, np.zeros(2), -np.ones(16), 1.0)
        with pytest.raises(ValueError):
            em_sigma_step(inv, np.zeros(2), np.ones(16), 0.0)


class TestCyclicEM:
    def test_monotone_outer_trace(self):
        burst, _ = _burst(seed=31)
        inv = to_invariant(burst)
        m0, s20 = _default_em_init(inv, 1.0)
        est = cyclic_em(inv, RUN_TO_CAP, m0, s20)
        assert est.trace[0][0] == 0
        lls = np.array([v for _, v in est.trace])
        assert len(lls) == RUN_TO_CAP.n_co2 + 1
        assert np.all(np.diff(lls) >= -1e-9)

    def test_trace_starts_at_init_loglik(self):
        burst, _ = _burst(seed=32)
        inv = to_invariant(burst)
        m0, s20 = _default_em_init(inv, 1.0)
        est = cyclic_em(inv, RUN_TO_CAP, m0, s20)
        assert np.isclose(est.trace[0][1], angular_loglik(inv.directions, m0, s20), rtol=1e-13)

    def test_loose_tolerance_stops_after_one_cycle(self):
        burst, _ = _burst(seed=33)
        inv = to_invariant(burst)
        m0, s20 = _default_em_init(inv, 1.0)
        est = cyclic_em(inv, EstimationConfig(eps3=1e10), m0, s20)
        assert [i for i, _ in est.trace] == [0, 1]

    def test_recovers_target_direction(self):
        cfg = ScenarioConfig(k=64, delta=10.0, snr_db=20.0, target_phase=1.1)
        burst, _ = gen_uniform_het(cfg, Hypothesis.H1, trial_rng(34, 0))
        inv = to_invariant(burst)
        m0, s20 = _default_em_init(inv, 1.0)
        est = cyclic_em(inv, RUN_TO_CAP, m0, s20)
        angle = np.arctan2(est.m_hat[1], est.m_hat[0])
        assert abs(angle - 1.1) < 0.15

    def test_per_sample_scale_invariance(self):
        burst, _ = _burst(seed=35)
        scales = 2.0 ** np.arange(-7, 9)
        scaled = Burst(scales[:, None] * burst.samples)
        inv_a = to_invariant(burst)
        inv_b = to_invariant(scaled)
        m0, s20 = _default_em_init(inv_a, 1.0)
        est_a = cyclic_em(inv_a, RUN_TO_CAP, m0, s20)
        est_b = cyclic_em(inv_b, RUN_TO_CAP, m0, s20)
        np.testing.assert_array_equal(est_a.m_hat, est_b.m_hat)
        np.testing.assert_array_equal(est_a.sigma2_hat, est_b.sigma2_hat)

    def test_init_below_floor_rejected(self):
        burst, _ = _burst()
        inv = to_invariant(burst)
        with pytest.raises(ValueError):
            cyclic_em(inv, EstimationConfig(c0=2.0), np.zeros(2), np.ones(16))


class TestBatchedEngines:
    def test_cyclic_ml_batch_matches_single(self):
        cfg = ScenarioConfig(k=16, delta=10.0, snr_db=12.0)
        x, _ = gen_block(cfg, Hypothesis.H1, seed=50, start=0, count=12)
        init = np.maximum(np.sum(x**2, axis=2), 1.0)
        ecfg = EstimationConfig()
        m_b, s2_b, trace, iters = cyclic_ml_batch(x, init, ecfg.c0, ecfg.n_co1, ecfg.eps)
        assert len(set(iters.tolist())) > 1
        for i in range(12):
            est = cyclic_ml_h1(Burst(x[i]), ecfg, init[i])
            np.testing.assert_array_equal(m_b[i], est.m_hat)
            np.testing.assert_array_equal(s2_b[i], est.sigma2_hat)
            assert iters[i] == est.trace[-1][0]
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
            inv = to_invariant(Burst(x[i]))
            est = cyclic_em(inv, ecfg, m0[i], s20[i])
            np.testing.assert_array_equal(m_b[i], est.m_hat)
            np.testing.assert_array_equal(s2_b[i], est.sigma2_hat)
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
