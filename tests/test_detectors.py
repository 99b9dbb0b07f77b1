"""Tests for the eight decision statistics and the threshold convention."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetdet import estimation
from hetdet.detectors import (
    Decision,
    DetectorKind,
    NonFiniteStatistic,
    agd,
    angular_statistic,
    c_agd,
    c_gd_he,
    ca_chd,
    cd,
    chd,
    decide,
    ed,
    gd_he,
    statistics_batch,
)
from hetdet.estimation import EstimationConfig
from hetdet.scenario import (
    Burst,
    Hypothesis,
    ScenarioConfig,
    gen_block,
    gen_uniform_het,
    trial_rng,
)

ALL_KINDS = list(DetectorKind)


class TestDetectorKind:
    def test_parse_tokens(self):
        assert DetectorKind.parse("gd-he") is DetectorKind.GD_HE
        assert DetectorKind.parse("ca-chd") is DetectorKind.CA_CHD
        with pytest.raises(ValueError, match="unknown detector"):
            DetectorKind.parse("glrt")

    def test_requires_truth(self):
        assert DetectorKind.CD.requires_truth
        assert not any(k.requires_truth for k in ALL_KINDS if k is not DetectorKind.CD)


class TestDecision:
    def test_strict_threshold(self):
        assert decide(1.5, 1.0).declared
        assert not decide(1.0, 1.0).declared
        assert not decide(0.5, 1.0).declared

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            Decision(statistic=2.0, threshold=1.0, declared=False)
        with pytest.raises(ValueError):
            Decision(statistic=np.nan, threshold=1.0, declared=False)


class TestReferenceStatistics:
    def test_identical_sample_closed_forms(self):
        v = np.array([3.0, 4.0])
        burst = Burst(np.tile(v, (4, 1)))
        assert ed(burst) == 4 * 25.0
        assert chd(burst) == 16 * 25.0
        assert ca_chd(burst) == 4.0

    def test_ca_chd_bounds_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            burst = Burst(rng.standard_normal((8, 2)))
            val = ca_chd(burst)
            assert 0.0 <= val <= 8.0
            assert np.isclose(ca_chd(Burst(3.7 * burst.samples)), val, rtol=1e-12)

    def test_ca_chd_rejects_zero_burst(self):
        with pytest.raises(ValueError, match="all-zero"):
            ca_chd(Burst(np.zeros((4, 2))))

    def test_cd_substitutions(self):
        rng = np.random.default_rng(1)
        m = np.array([1.0, -2.0])
        s2 = rng.uniform(0.5, 3.0, size=6)
        aligned = Burst(np.tile(m, (6, 1)))
        assert np.isclose(cd(aligned, m, s2), np.sum(m @ m / s2), rtol=1e-12)
        burst = Burst(rng.standard_normal((6, 2)))
        assert cd(burst, np.zeros(2), s2) == 0.0

    def test_cd_algebraic_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.standard_normal((6, 2))
            m = rng.standard_normal(2)
            s2 = rng.uniform(0.5, 3.0, size=6)
            expanded = 2.0 * np.sum(x @ m / s2) - np.sum(m @ m / s2)
            assert np.isclose(cd(Burst(x), m, s2), expanded, rtol=1e-12)

    def test_cd_length_mismatch(self):
        with pytest.raises(ValueError):
            cd(Burst(np.ones((4, 2))), np.zeros(2), np.ones(5))


class TestAdaptiveStatistics:
    def test_gd_he_identical_sample_closed_form(self):
        v = np.array([3.0, 4.0])
        burst = Burst(np.tile(v, (4, 1)))
        cfg = EstimationConfig(c0=1.0)
        expected = 4 * (np.log(12.5) + 1.0)
        assert np.isclose(gd_he(burst, cfg), expected, rtol=1e-12)

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
        burst, _ = gen_uniform_het(scfg, Hypothesis.H1, trial_rng(63, 0))
        cfg = EstimationConfig()
        scales = 2.0 ** np.arange(-7, 9).astype(float)
        scaled = Burst(scales[:, None] * burst.samples)
        assert agd(scaled, cfg) == agd(burst, cfg)

    def test_agd_general_scale_invariance(self):
        scfg = ScenarioConfig(k=16, delta=10.0, snr_db=10.0)
        burst, _ = gen_uniform_het(scfg, Hypothesis.H1, trial_rng(64, 0))
        cfg = EstimationConfig()
        rng = np.random.default_rng(64)
        scaled = Burst(rng.uniform(0.1, 10.0, size=16)[:, None] * burst.samples)
        assert np.isclose(agd(scaled, cfg), agd(burst, cfg), rtol=1e-9)

    def test_c_agd_not_scale_free(self):
        scfg = ScenarioConfig(k=16, delta=10.0, snr_db=10.0)
        burst, _ = gen_uniform_het(scfg, Hypothesis.H1, trial_rng(65, 0))
        cfg = EstimationConfig()
        assert not np.isclose(c_agd(Burst(10.0 * burst.samples), cfg), c_agd(burst, cfg), rtol=1e-3)

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


class TestStatisticsBatch:
    def test_matches_per_burst_wrappers(self):
        scfg = ScenarioConfig(k=16, delta=10.0, snr_db=12.0)
        cfg = EstimationConfig()
        x, s2 = gen_block(scfg, Hypothesis.H1, seed=70, start=0, count=4)
        m = scfg.target_mean
        batch = statistics_batch(x, ALL_KINDS, cfg, true_mean=m, true_sigma2=s2)
        for i in range(4):
            burst = Burst(x[i])
            assert batch[DetectorKind.GD_HE][i] == gd_he(burst, cfg)
            assert batch[DetectorKind.AGD][i] == agd(burst, cfg)
            assert batch[DetectorKind.C_GD_HE][i] == c_gd_he(burst, cfg)
            assert batch[DetectorKind.C_AGD][i] == c_agd(burst, cfg)
            assert batch[DetectorKind.CD][i] == cd(burst, m, s2[i])
            assert batch[DetectorKind.ED][i] == ed(burst)
            assert batch[DetectorKind.CHD][i] == chd(burst)
            assert batch[DetectorKind.CA_CHD][i] == ca_chd(burst)

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


def _poison_em_kernel(monkeypatch, row=3):
    """Make the EM kernel return a NaN conditional mean in one row of every call."""
    fused = estimation._em_parts

    def poisoned(p, sigma2):
        log_term, mean, resid = fused(p, sigma2)
        if mean.shape[0] > row:
            mean[row] = np.nan
        return log_term, mean, resid

    monkeypatch.setattr(estimation, "_em_parts", poisoned)


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
