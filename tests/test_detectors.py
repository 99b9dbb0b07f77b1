"""Tests for the eight decision statistics, computed through `statistics_batch`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetdet import estimation
from hetdet.detectors import (
    DetectorKind,
    NonFiniteStatistic,
    ZeroNormSample,
    angular_statistic,
    statistics_batch,
)
from hetdet.estimation import EstimationConfig, _h0_variances, cyclic_ml_batch, gaussian_loglik, ml_init
from hetdet.numerics import _sq_norm
from hetdet.scenario import Hypothesis, ScenarioConfig, gen_block

ALL_KINDS = list(DetectorKind)


def _one(kind, samples, cfg=None, true_mean=None, true_sigma2=None):
    """One burst's (K, 2) statistic, as a stack of one."""
    values = statistics_batch(np.asarray(samples)[None], [kind], cfg, true_mean, true_sigma2)
    return values[kind][0]


def _trial(cfg, seed):
    """Trial 0 of `seed` under H1, as a (K, 2) burst."""
    return gen_block(cfg, Hypothesis.H1, seed, 0, 1)[0][0]


class TestDetectorKind:
    def test_parse_tokens(self):
        assert DetectorKind.parse("gd-he") is DetectorKind.GD_HE
        assert DetectorKind.parse("ca-chd") is DetectorKind.CA_CHD
        with pytest.raises(ValueError, match="unknown detector"):
            DetectorKind.parse("glrt")

    def test_requires_truth(self):
        assert DetectorKind.CD.requires_truth
        assert not any(k.requires_truth for k in ALL_KINDS if k is not DetectorKind.CD)


class TestReferenceStatistics:
    def test_identical_sample_closed_forms(self):
        v = np.array([3.0, 4.0])
        burst = np.tile(v, (4, 1))
        assert _one(DetectorKind.ED, burst) == 4 * 25.0
        assert _one(DetectorKind.CHD, burst) == 16 * 25.0
        assert _one(DetectorKind.CA_CHD, burst) == 4.0

    def test_ca_chd_bounds_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            burst = rng.standard_normal((8, 2))
            val = _one(DetectorKind.CA_CHD, burst)
            assert 0.0 <= val <= 8.0
            assert np.isclose(_one(DetectorKind.CA_CHD, 3.7 * burst), val, rtol=1e-12)

    def test_ca_chd_rejects_zero_burst(self):
        with pytest.raises(ValueError, match="all-zero"):
            _one(DetectorKind.CA_CHD, np.zeros((4, 2)))

    def test_cd_substitutions(self):
        rng = np.random.default_rng(1)
        m = np.array([1.0, -2.0])
        s2 = rng.uniform(0.5, 3.0, size=6)
        aligned = np.tile(m, (6, 1))
        assert np.isclose(_one(DetectorKind.CD, aligned, None, m, s2), np.sum(m @ m / s2), rtol=1e-12)
        burst = rng.standard_normal((6, 2))
        assert _one(DetectorKind.CD, burst, None, np.zeros(2), s2) == 0.0

    def test_cd_algebraic_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.standard_normal((6, 2))
            m = rng.standard_normal(2)
            s2 = rng.uniform(0.5, 3.0, size=6)
            expanded = 2.0 * np.sum(x @ m / s2) - np.sum(m @ m / s2)
            assert np.isclose(_one(DetectorKind.CD, x, None, m, s2), expanded, rtol=1e-12)

    def test_cd_length_mismatch(self):
        with pytest.raises(ValueError):
            _one(DetectorKind.CD, np.ones((4, 2)), None, np.zeros(2), np.ones(5))

    @pytest.mark.parametrize(
        "true_mean, true_sigma2, message",
        [([np.nan, 0.0], np.ones(4), "true_mean"), ([0.0, np.inf], np.ones(4), "true_mean"),
         ([1.0, 0.0], [1.0, np.nan, 1.0, 1.0], "true_sigma2"),
         ([1.0, 0.0], [1.0, np.inf, 1.0, 1.0], "true_sigma2"),
         ([1.0, 0.0], np.ones((3, 4)), r"true_sigma2 must have shape \(K,\) or \(B, K\), got \(3, 4\)"),
         ([1.0, 0.0], np.ones((2, 1, 4)), "true_sigma2"), ([1.0, 0.0], 1.0, "true_sigma2")],
        ids=["nan-mean", "inf-mean", "nan-sigma2", "inf-sigma2", "3-rows-for-2-bursts", "3-axes",
             "scalar"],
    )
    def test_cd_side_information_checked(self, true_mean, true_sigma2, message):
        with pytest.raises(ValueError, match=message):
            statistics_batch(np.ones((2, 4, 2)), [DetectorKind.CD], None, true_mean, true_sigma2)


class TestAdaptiveStatistics:
    def test_gd_he_identical_sample_closed_form(self):
        v = np.array([3.0, 4.0])
        burst = np.tile(v, (4, 1))
        cfg = EstimationConfig(c0=1.0)
        expected = 4 * (np.log(12.5) + 1.0)
        assert np.isclose(_one(DetectorKind.GD_HE, burst, cfg), expected, rtol=1e-12)

    def test_gd_he_nonnegative_when_floor_inactive(self):
        scfg = ScenarioConfig(k=16, delta=10.0)
        x, _ = gen_block(scfg, Hypothesis.H0, seed=60, start=0, count=500)
        stats = statistics_batch(x, [DetectorKind.GD_HE], EstimationConfig(c0=1e-6))
        assert np.all(stats[DetectorKind.GD_HE] >= -1e-9)

    def test_gd_he_rotation_invariance(self):
        scfg = ScenarioConfig(k=16, delta=0.0)
        cfg = EstimationConfig()
        x, _ = gen_block(scfg, Hypothesis.H0, seed=61, start=0, count=50)
        phi = 1.234
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        base = statistics_batch(x, [DetectorKind.GD_HE], cfg)[DetectorKind.GD_HE]
        turned = statistics_batch(x @ rot.T, [DetectorKind.GD_HE], cfg)[DetectorKind.GD_HE]
        np.testing.assert_allclose(turned, base, rtol=1e-8)

    def test_agd_zero_mean_reduction(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 2))
        z = x / np.linalg.norm(x, axis=1, keepdims=True)
        assert angular_statistic(z, np.zeros(2), rng.uniform(0.5, 3.0, size=8)) == 0.0

    def test_agd_positive_under_strong_aligned_target(self):
        scfg = ScenarioConfig(k=4, delta=10.0, snr_db=20.0)
        x, _ = gen_block(scfg, Hypothesis.H1, seed=62, start=0, count=200)
        stats = statistics_batch(x, [DetectorKind.AGD], EstimationConfig())
        assert np.mean(stats[DetectorKind.AGD] > 0.0) > 0.99

    def test_agd_bitwise_scale_invariance(self):
        scfg = ScenarioConfig(k=16, delta=10.0, snr_db=10.0)
        burst = _trial(scfg, 63)
        cfg = EstimationConfig()
        scales = 2.0 ** np.arange(-7, 9).astype(float)
        scaled = scales[:, None] * burst
        assert _one(DetectorKind.AGD, scaled, cfg) == _one(DetectorKind.AGD, burst, cfg)

    def test_agd_general_scale_invariance(self):
        scfg = ScenarioConfig(k=16, delta=10.0, snr_db=10.0)
        burst = _trial(scfg, 64)
        cfg = EstimationConfig()
        rng = np.random.default_rng(64)
        scaled = rng.uniform(0.1, 10.0, size=16)[:, None] * burst
        assert np.isclose(
            _one(DetectorKind.AGD, scaled, cfg), _one(DetectorKind.AGD, burst, cfg), rtol=1e-9
        )

    def test_c_agd_not_scale_free(self):
        scfg = ScenarioConfig(k=16, delta=10.0, snr_db=10.0)
        burst = _trial(scfg, 65)
        cfg = EstimationConfig()
        assert not np.isclose(
            _one(DetectorKind.C_AGD, 10.0 * burst, cfg), _one(DetectorKind.C_AGD, burst, cfg), rtol=1e-3
        )

    def test_c_gd_he_never_exceeds_gd_he(self):
        scfg = ScenarioConfig(k=16, delta=10.0)
        cfg = EstimationConfig()
        for hyp, seed in ((Hypothesis.H0, 66), (Hypothesis.H1, 67)):
            x, _ = gen_block(scfg, hyp, seed=seed, start=0, count=500)
            stats = statistics_batch(x, [DetectorKind.GD_HE, DetectorKind.C_GD_HE], cfg)
            assert np.all(stats[DetectorKind.C_GD_HE] <= stats[DetectorKind.GD_HE] + 1e-9)

    def test_adaptive_statistics_finite(self):
        scfg = ScenarioConfig(k=16, delta=50.0, snr_db=18.0)
        x, _ = gen_block(scfg, Hypothesis.H1, seed=68, start=0, count=64)
        stats = statistics_batch(x, [k for k in ALL_KINDS if k is not DetectorKind.CD], EstimationConfig())
        for kind, values in stats.items():
            assert np.all(np.isfinite(values)), kind


class TestGdHeReadsItsFit:
    """gd-he takes the raw log-likelihood from the cyclic-ML trace, not from a second evaluation."""

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("n_co1", [5, 15])
    def test_fit_loglik_is_gaussian_loglik_at_its_estimates(self, seed, n_co1):
        rng = np.random.default_rng(seed)
        scen = ScenarioConfig(k=int(rng.integers(2, 33)), delta=float(rng.choice([0.0, 10.0, 50.0])),
                              snr_db=float(rng.uniform(0.0, 15.0)))
        x, _ = gen_block(scen, Hypothesis(rng.choice(["h0", "h1"])), seed, 0, 300)
        cfg = EstimationConfig(c0=float(rng.choice([1.0, 0.25])), n_co1=n_co1)
        m, s2, trace, iters = cyclic_ml_batch(x, ml_init(_sq_norm(x), cfg), cfg.c0, cfg.n_co1, cfg.eps)
        # Early-stopped and capped bursts both.
        assert np.any(iters < n_co1) and np.any(iters == n_co1)
        fit = trace[np.arange(iters.size), iters - 1]
        assert fit.tobytes() == gaussian_loglik(x, m, s2).tobytes()
        ll0 = _sq_norm(x)
        ll0 = estimation._gaussian_sum(ll0, _h0_variances(ll0, cfg.c0))
        stat = statistics_batch(x, [DetectorKind.GD_HE], cfg)[DetectorKind.GD_HE]
        assert stat.tobytes() == (gaussian_loglik(x, m, s2) - ll0).tobytes()


class TestStatisticsBatch:
    def test_rows_match_one_burst_stacks(self):
        scfg = ScenarioConfig(k=16, delta=10.0, snr_db=12.0)
        cfg = EstimationConfig()
        x, s2 = gen_block(scfg, Hypothesis.H1, seed=70, start=0, count=4)
        m = scfg.target_mean
        batch = statistics_batch(x, ALL_KINDS, cfg, true_mean=m, true_sigma2=s2)
        for i in range(4):
            for kind in ALL_KINDS:
                assert batch[kind][i] == _one(kind, x[i], cfg, m, s2[i]), kind

    def test_sharing_preserves_values(self):
        scfg = ScenarioConfig(k=16, delta=10.0)
        cfg = EstimationConfig()
        x, _ = gen_block(scfg, Hypothesis.H0, seed=71, start=0, count=8)
        both = statistics_batch(x, [DetectorKind.GD_HE, DetectorKind.C_AGD], cfg)
        alone_g = statistics_batch(x, [DetectorKind.GD_HE], cfg)
        alone_c = statistics_batch(x, [DetectorKind.C_AGD], cfg)
        np.testing.assert_array_equal(both[DetectorKind.GD_HE], alone_g[DetectorKind.GD_HE])
        np.testing.assert_array_equal(both[DetectorKind.C_AGD], alone_c[DetectorKind.C_AGD])

    def test_validation(self):
        x = np.ones((2, 4, 2))
        cfg = EstimationConfig()
        with pytest.raises(ValueError):
            statistics_batch(x, [], cfg)
        with pytest.raises(ValueError):
            statistics_batch(x, [DetectorKind.ED, DetectorKind.ED], cfg)
        with pytest.raises(ValueError):
            statistics_batch(np.ones((4, 2)), [DetectorKind.ED], cfg)
        with pytest.raises(ValueError):
            statistics_batch(x, ["gd-he"], cfg)
        with pytest.raises(ValueError, match="EstimationConfig"):
            statistics_batch(x, [DetectorKind.AGD])
        with pytest.raises(ValueError, match="true_mean"):
            statistics_batch(x, [DetectorKind.CD], cfg)
        with pytest.raises(ValueError, match="K >= 2"):
            statistics_batch(np.ones((2, 1, 2)), [DetectorKind.GD_HE], cfg)
        with pytest.raises(ValueError, match="shape"):
            statistics_batch(np.ones((2, 4, 3)), [DetectorKind.ED], cfg)
        with pytest.raises(ValueError, match="finite"):
            statistics_batch(np.array([[[1.0, np.inf]]]), [DetectorKind.ED], cfg)

    def test_memory_layout_does_not_change_bits(self):
        scfg = ScenarioConfig(k=16, delta=10.0, snr_db=9.0)
        cfg = EstimationConfig()
        x, s2 = gen_block(scfg, Hypothesis.H1, seed=72, start=0, count=300)
        want = statistics_batch(x, ALL_KINDS, cfg, scfg.target_mean, s2)
        pulse_major = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
        for other in (np.asfortranarray(x), pulse_major):
            got = statistics_batch(other, ALL_KINDS, cfg, scfg.target_mean, s2)
            for kind in ALL_KINDS:
                np.testing.assert_array_equal(got[kind].view(np.uint64), want[kind].view(np.uint64))

    @settings(max_examples=8)
    @given(groups=st.lists(st.integers(0, 3), min_size=64, max_size=64))
    def test_row_partition_does_not_change_bits(self, groups):
        # Bursts stop at different iterations in different groups, so every
        # engine compacts its working set at different points.
        scfg = ScenarioConfig(k=16, delta=10.0, snr_db=6.0)
        cfg = EstimationConfig()
        x0, s20 = gen_block(scfg, Hypothesis.H0, seed=73, start=0, count=32)
        x1, s21 = gen_block(scfg, Hypothesis.H1, seed=73, start=32, count=32)
        x, s2 = np.concatenate([x0, x1]), np.concatenate([s20, s21])
        whole = statistics_batch(x, ALL_KINDS, cfg, scfg.target_mean, s2)
        parts = {kind: np.empty(x.shape[0]) for kind in ALL_KINDS}
        groups = np.array(groups)
        for g in np.unique(groups):
            rows = np.flatnonzero(groups == g)
            got = statistics_batch(x[rows], ALL_KINDS, cfg, scfg.target_mean, s2[rows])
            for kind in ALL_KINDS:
                parts[kind][rows] = got[kind]
        for kind in ALL_KINDS:
            np.testing.assert_array_equal(parts[kind].view(np.uint64), whole[kind].view(np.uint64))

    def test_zero_norm_sample_rejected_for_direction_detectors(self):
        x = np.ones((1, 4, 2))
        x[0, 2] = 0.0
        with pytest.raises(ValueError, match="zero-norm"):
            statistics_batch(x, [DetectorKind.AGD], EstimationConfig())
        ok = statistics_batch(x, [DetectorKind.ED], EstimationConfig())
        assert np.isfinite(ok[DetectorKind.ED][0])

    def test_zero_norm_sample_is_named_by_burst_and_pulse(self):
        x = np.ones((4, 6, 2))
        x[3, 1] = 0.0
        x[2, 4] = 0.0
        message = r"^cannot normalize a zero-norm sample at burst 2, pulse 4$"
        for kind in (DetectorKind.AGD, DetectorKind.C_AGD, DetectorKind.C_GD_HE):
            with pytest.raises(ZeroNormSample, match=message) as err:
                statistics_batch(x, [DetectorKind.ED, kind], EstimationConfig())
            assert (err.value.burst, err.value.pulse) == (2, 4)


def _poison_em_kernel(monkeypatch, row=3):
    """Make the EM kernel return a NaN conditional mean in one row of every call."""
    fused = estimation._em_mean

    def poisoned(p, sig, core):
        mean = fused(p, sig, core)
        if mean.shape[0] > row:
            mean[row] = np.nan
        return mean

    monkeypatch.setattr(estimation, "_em_mean", poisoned)


class TestNonFiniteStatistics:
    def test_nan_is_reported_with_detector_and_burst(self, monkeypatch):
        x, _ = gen_block(ScenarioConfig(k=16, delta=10.0), Hypothesis.H0, seed=72, start=0, count=8)
        cfg = EstimationConfig()
        clean = statistics_batch(x, [DetectorKind.C_GD_HE], cfg)[DetectorKind.C_GD_HE]
        assert np.all(np.isfinite(clean))
        _poison_em_kernel(monkeypatch)
        with pytest.raises(ValueError, match="c-gd-he statistic is not finite at burst 3"):
            statistics_batch(x, [DetectorKind.ED, DetectorKind.C_GD_HE], cfg)
        # The direction-domain statistic's kernel rejects the NaN estimate itself.
        with pytest.raises(ValueError):
            statistics_batch(x, [DetectorKind.AGD], cfg)
        ok = statistics_batch(x, [DetectorKind.ED, DetectorKind.GD_HE], cfg)
        assert all(np.all(np.isfinite(v)) for v in ok.values())

    def test_nan_estimate_is_reported_with_angular_detector(self, monkeypatch):
        x, _ = gen_block(ScenarioConfig(k=16, delta=10.0), Hypothesis.H0, seed=72, start=0, count=8)
        _poison_em_kernel(monkeypatch)
        with pytest.raises(NonFiniteStatistic, match=r"^agd statistic is not finite at burst \d+$") as err:
            statistics_batch(x, [DetectorKind.ED, DetectorKind.AGD], EstimationConfig())
        assert err.value.detector is DetectorKind.AGD
        assert 0 <= err.value.burst < 8
