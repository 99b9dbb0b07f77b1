"""Tests for threshold calibration, probability estimation, and trace averaging."""

import os
import time

import numpy as np
import pytest
from scipy import stats as sps

from hetdet import estimation
from hetdet.detectors import DetectorKind, NonFiniteStatistic, statistics_batch
from hetdet.estimation import EstimationConfig
from hetdet.montecarlo import (
    AlgorithmTag,
    CalibratedThreshold,
    CurvePoint,
    _rank_threshold,
    calibrate_threshold,
    calibrate_thresholds,
    convergence_trace,
    curve_point,
    estimate_pfa,
    pd_curve,
    pd_curves,
    pfa_sweep,
    sample_statistics,
    statistics_for_bursts,
    wilson_interval,
    write_curves_csv,
    write_manifest,
    write_trace_csv,
)
from hetdet import montecarlo
from hetdet.scenario import Hypothesis, ScenarioConfig, gen_block

WHITE = ScenarioConfig(k=16, delta=0.0)
EST = EstimationConfig()


class TestWilsonInterval:
    def test_frozen_values(self):
        low, high = wilson_interval(100, 10000)
        assert np.isclose(low, 0.008229306747947238, rtol=1e-12)
        assert np.isclose(high, 0.012147025480263973, rtol=1e-12)

    def test_edge_counts_clamp(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and high > 0.0
        low, high = wilson_interval(50, 50)
        assert high == 1.0 and low < 1.0

    def test_contains_point_estimate(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 500))
            s = int(rng.integers(0, n + 1))
            low, high = wilson_interval(s, n)
            assert low <= s / n <= high

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(6, 5)


class TestCurvePoint:
    def test_curve_point_builder(self):
        pt = curve_point(10.0, 9, 1000)
        assert pt.estimate == 0.009
        assert pt.ci_low <= pt.estimate <= pt.ci_high
        assert pt.trials == 1000

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            CurvePoint(0.0, 1.5, 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            CurvePoint(0.0, 0.5, 0.6, 1.0, 10)
        with pytest.raises(ValueError):
            CurvePoint(0.0, 0.5, 0.4, 0.6, 0)


class TestThresholdRank:
    def test_rank_arithmetic(self):
        stats = np.arange(1.0, 101.0)
        assert _rank_threshold(stats, 0.05) == 95.0
        assert _rank_threshold(stats, 0.01) == 99.0
        rng = np.random.default_rng(1)
        assert _rank_threshold(rng.permutation(stats), 0.05) == 95.0

    def test_monotone_in_pfa(self):
        rng = np.random.default_rng(2)
        stats = rng.standard_normal(5000)
        etas = [_rank_threshold(stats, pfa) for pfa in (0.2, 0.1, 0.05, 0.02)]
        assert all(a <= b for a, b in zip(etas, etas[1:]))

    def test_ten_thousand_trial_rank(self):
        rng = np.random.default_rng(3)
        stats = rng.standard_normal(10000)
        assert _rank_threshold(stats, 0.01) == np.sort(stats)[9899]


class TestCalibration:
    def test_energy_threshold_matches_chi_square_quantile(self):
        th = calibrate_threshold(DetectorKind.ED, None, WHITE, 0.05, 4000, seed=3)
        analytic = sps.chi2.ppf(0.95, 2 * WHITE.k)
        assert abs(th.eta - analytic) / analytic < 0.05

    def test_provenance_recorded(self):
        th = calibrate_threshold(DetectorKind.ED, None, WHITE, 0.05, 2000, seed=9)
        assert th.detector is DetectorKind.ED
        assert th.nominal_pfa == 0.05
        assert th.trials == 2000
        assert th.seed == 9
        assert th.calibration_scenario == WHITE

    def test_trials_floor_enforced(self):
        with pytest.raises(ValueError, match="ceil"):
            calibrate_threshold(DetectorKind.ED, None, WHITE, 0.01, 2000, seed=0)

    def test_shared_calibration_matches_single(self):
        kinds = [DetectorKind.ED, DetectorKind.CHD]
        shared = calibrate_thresholds(kinds, None, WHITE, 0.05, 2000, seed=4)
        for kind in kinds:
            alone = calibrate_threshold(kind, None, WHITE, 0.05, 2000, seed=4)
            assert shared[kind].eta == alone.eta

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CalibratedThreshold(DetectorKind.ED, np.nan, 0.05, 100, 0, WHITE)
        with pytest.raises(ValueError):
            CalibratedThreshold(DetectorKind.ED, 1.0, 1.5, 100, 0, WHITE)


_sample_block = montecarlo._sample_block


def _dies_in_second_block(args):
    """Stand-in block function: the worker given the second block exits without a result."""
    if args[5] == montecarlo.BLOCK_SIZE:
        time.sleep(2.0)  # the first block's result arrives before the pool breaks
        os._exit(1)
    return _sample_block(args)


class TestSampleStatistics:
    @pytest.mark.parametrize("kind", [DetectorKind.AGD, DetectorKind.C_GD_HE])
    def test_non_finite_error_names_the_trial(self, monkeypatch, kind):
        scen = ScenarioConfig(k=16, delta=10.0)
        cfg = EstimationConfig(n_co2=2)
        fused = estimation._em_parts
        generate = montecarlo.gen_block
        block = {}

        def gen(scen, hypothesis, seed, start, count):
            block["start"] = start
            return generate(scen, hypothesis, seed, start, count)

        def poisoned(p, sigma2):
            log_term, mean, resid = fused(p, sigma2)
            if block["start"] == 512 and mean.shape[0] > 3:
                mean[3] = np.nan
            return log_term, mean, resid

        monkeypatch.setattr(montecarlo, "gen_block", gen)
        monkeypatch.setattr(estimation, "_em_parts", poisoned)
        # Where the NaN lands within the second block, from the batch alone.
        x, _ = gen(scen, Hypothesis.H0, 9, 512, 8)
        with pytest.raises(NonFiniteStatistic) as err:
            statistics_batch(x, [kind], cfg)
        i = err.value.burst
        with pytest.raises(ValueError, match=rf"not finite at burst {i} \(trial {512 + i}\)$"):
            sample_statistics([kind], cfg, scen, Hypothesis.H0, 520, seed=9)

    def test_worker_count_invariance(self):
        stats1 = sample_statistics([DetectorKind.ED], None, WHITE, Hypothesis.H0, 1100, seed=5, workers=1)
        stats2 = sample_statistics([DetectorKind.ED], None, WHITE, Hypothesis.H0, 1100, seed=5, workers=2)
        np.testing.assert_array_equal(stats1[DetectorKind.ED], stats2[DetectorKind.ED])

    def test_block_boundaries_do_not_leak(self):
        full = sample_statistics([DetectorKind.ED], None, WHITE, Hypothesis.H0, 700, seed=6)
        x, _ = gen_block(WHITE, Hypothesis.H0, seed=6, start=600, count=1)
        assert full[DetectorKind.ED][600] == np.sum(x[0] ** 2)

    def test_clairvoyant_uses_target_signature_under_null(self):
        scen = ScenarioConfig(k=16, delta=10.0, snr_db=10.0)
        stats = sample_statistics([DetectorKind.CD], None, scen, Hypothesis.H0, 64, seed=7)
        x, s2 = gen_block(scen, Hypothesis.H0, seed=7, start=0, count=64)
        m = scen.target_mean
        diff = x - m
        expected = -np.sum(np.sum(diff**2, axis=2) / s2, axis=1) + np.sum(np.sum(x**2, axis=2) / s2, axis=1)
        np.testing.assert_array_equal(stats[DetectorKind.CD], expected)

    def test_pool_capped_at_block_count(self, monkeypatch):
        pool_sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
        trials = 2 * montecarlo.BLOCK_SIZE
        stats = sample_statistics([DetectorKind.ED], None, WHITE, Hypothesis.H0, trials, seed=8, workers=8)
        assert pool_sizes == [2]
        single = sample_statistics([DetectorKind.ED], None, WHITE, Hypothesis.H0, trials, seed=8)
        np.testing.assert_array_equal(stats[DetectorKind.ED], single[DetectorKind.ED])

    def test_dead_worker_names_its_block(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_sample_block", _dies_in_second_block)
        with pytest.raises(ValueError, match=rf"the block at trial {montecarlo.BLOCK_SIZE} never finished$"):
            sample_statistics(
                [DetectorKind.ED], None, WHITE, Hypothesis.H0, 3 * montecarlo.BLOCK_SIZE, seed=4, workers=2
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_statistics([DetectorKind.ED], None, WHITE, Hypothesis.H0, 0, seed=0)
        with pytest.raises(ValueError):
            sample_statistics([DetectorKind.ED], None, WHITE, Hypothesis.H0, 10, seed=0, workers=0)
        with pytest.raises(ValueError):
            sample_statistics([DetectorKind.ED], None, WHITE, "h0", 10, seed=0)


class TestPfaEstimation:
    def test_matched_scenario_self_consistency(self):
        th = calibrate_threshold(DetectorKind.ED, None, WHITE, 0.05, 4000, seed=11)
        pt = estimate_pfa(DetectorKind.ED, None, WHITE, th, 4000, seed=12)
        assert pt.ci_low <= 0.05 <= pt.ci_high
        assert pt.abscissa == 0.0

    def test_abscissa_reports_heterogeneity_parameter(self):
        th = calibrate_threshold(DetectorKind.ED, None, WHITE, 0.05, 2000, seed=13)
        scen_q = ScenarioConfig(k=16, texture_shape=0.5)
        pt = estimate_pfa(DetectorKind.ED, None, scen_q, th, 500, seed=14)
        assert pt.abscissa == 0.5

    def test_detector_mismatch_rejected(self):
        th = calibrate_threshold(DetectorKind.ED, None, WHITE, 0.05, 2000, seed=15)
        with pytest.raises(ValueError, match="different detector"):
            estimate_pfa(DetectorKind.CHD, None, WHITE, th, 500, seed=16)

    def test_sweep_shares_draws_and_orders_output(self):
        kinds = [DetectorKind.ED, DetectorKind.CHD]
        ths = calibrate_thresholds(kinds, None, WHITE, 0.05, 2000, seed=17)
        scens = [ScenarioConfig(k=16, delta=d) for d in (0.0, 10.0, 20.0)]
        curves = pfa_sweep(kinds, None, ths, scens, 1000, seed=18)
        for kind in kinds:
            assert [pt.abscissa for pt in curves[kind]] == [0.0, 10.0, 20.0]
            single = estimate_pfa(kind, None, scens[1], ths[kind], 1000, seed=18)
            assert curves[kind][1].estimate == single.estimate

    def test_sweep_requires_all_thresholds(self):
        ths = calibrate_thresholds([DetectorKind.ED], None, WHITE, 0.05, 2000, seed=19)
        with pytest.raises(ValueError, match="missing threshold"):
            pfa_sweep([DetectorKind.ED, DetectorKind.CHD], None, ths, [WHITE], 100, seed=20)


class TestPdCurves:
    def test_energy_detector_curve_increases(self):
        th = calibrate_threshold(DetectorKind.ED, None, WHITE, 0.05, 2000, seed=21)
        pts = pd_curve(DetectorKind.ED, None, WHITE, th, [-20.0, 0.0, 10.0], 1000, seed=22)
        estimates = [pt.estimate for pt in pts]
        assert estimates[0] < estimates[1] < estimates[2]
        assert pts[-1].estimate > 0.99

    def test_vanishing_snr_recovers_pfa(self):
        th = calibrate_threshold(DetectorKind.ED, None, WHITE, 0.05, 4000, seed=23)
        pts = pd_curve(DetectorKind.ED, None, WHITE, th, [-np.inf], 4000, seed=24)
        assert pts[0].ci_low <= 0.05 <= pts[0].ci_high

    def test_clairvoyant_rejected_without_per_snr_thresholds(self):
        th = calibrate_threshold(DetectorKind.ED, None, WHITE, 0.05, 2000, seed=25)
        with pytest.raises(ValueError, match="pd_curves"):
            pd_curve(DetectorKind.CD, None, WHITE, th, [0.0], 100, seed=26)

    def test_grid_validation(self):
        th = calibrate_threshold(DetectorKind.ED, None, WHITE, 0.05, 2000, seed=27)
        with pytest.raises(ValueError):
            pd_curve(DetectorKind.ED, None, WHITE, th, [], 100, seed=28)
        with pytest.raises(ValueError):
            pd_curve(DetectorKind.ED, None, WHITE, th, [np.nan], 100, seed=28)

    def test_multi_detector_engine(self):
        scen = ScenarioConfig(k=16, delta=10.0)
        kinds = [DetectorKind.CD, DetectorKind.ED]
        curves, thresholds = pd_curves(
            kinds, None, scen, [0.0, 10.0, 20.0],
            nominal_pfa=0.05, cal_trials=2000, trials=1000, seed=29,
        )
        assert isinstance(thresholds[DetectorKind.ED], CalibratedThreshold)
        assert len(thresholds[DetectorKind.CD]) == 3
        for kind in kinds:
            assert len(curves[kind]) == 3
            for pt in curves[kind]:
                assert pt.ci_low <= pt.estimate <= pt.ci_high
        cd_final = curves[DetectorKind.CD][-1].estimate
        ed_final = curves[DetectorKind.ED][-1].estimate
        assert cd_final >= ed_final - 0.02

    def test_separate_calibration_stream(self):
        scen = ScenarioConfig(k=16, delta=10.0)
        _, ths = pd_curves(
            [DetectorKind.ED], None, scen, [5.0],
            nominal_pfa=0.05, cal_trials=2000, trials=500, seed=30,
        )
        assert ths[DetectorKind.ED].seed == 31
        assert ths[DetectorKind.ED].calibration_scenario == scen


class TestConvergenceTrace:
    def test_cyclic_ml_trace_shape_and_decay(self):
        scen = ScenarioConfig(k=16, delta=10.0)
        trace = convergence_trace(AlgorithmTag.ALG1, scen, 10.0, 600, seed=31)
        assert [i for i, _ in trace] == list(range(2, 16))
        values = [v for _, v in trace]
        assert values[-1] < 1e-2
        assert values[-1] < values[0]

    def test_em_mean_trace(self):
        scen = ScenarioConfig(k=16, delta=10.0)
        trace = convergence_trace(AlgorithmTag.EM_M, scen, 10.0, 300, seed=32)
        assert [i for i, _ in trace] == list(range(1, 21))
        assert trace[-1][1] < 1e-3

    def test_outer_trace_indices(self):
        scen = ScenarioConfig(k=16, delta=10.0)
        trace = convergence_trace(AlgorithmTag.CYCLIC_EM, scen, 10.0, 64, seed=33)
        assert [i for i, _ in trace] == list(range(1, 16))
        trace_s = convergence_trace(AlgorithmTag.EM_SIGMA, scen, 10.0, 64, seed=33)
        assert [i for i, _ in trace_s] == list(range(1, 21))

    def test_parse_and_validation(self):
        assert AlgorithmTag.parse("em-m") is AlgorithmTag.EM_M
        with pytest.raises(ValueError, match="unknown algorithm"):
            AlgorithmTag.parse("em")
        with pytest.raises(ValueError):
            convergence_trace("alg1", WHITE, 0.0, 10, seed=0)


class TestBurstListStatistics:
    def test_matches_batch(self):
        x, _ = gen_block(WHITE, Hypothesis.H0, seed=34, start=0, count=3)
        stats = statistics_for_bursts(x, [DetectorKind.ED], None)
        np.testing.assert_array_equal(stats[DetectorKind.ED], np.sum(x**2, axis=(1, 2)))

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="sequence"):
            statistics_for_bursts([np.ones((4, 2)), np.ones((5, 2))], [DetectorKind.ED])
        with pytest.raises(ValueError, match="at least one burst"):
            statistics_for_bursts(np.empty((0, 4, 2)), [DetectorKind.ED])
        with pytest.raises(ValueError, match="at least one burst"):
            statistics_for_bursts([], [DetectorKind.ED])


class TestWriters:
    def test_curves_csv_exact_bytes(self, tmp_path):
        path = tmp_path / "c.csv"
        curves = {DetectorKind.AGD: [CurvePoint(10.0, 0.5, 0.25, 0.75, 4)]}
        write_curves_csv(path, curves)
        expected = (
            "detector,abscissa,estimate,ci_low,ci_high,trials\n"
            "agd,10.0,0.5,0.25,0.75,4\n"
        )
        assert path.read_bytes() == expected.encode()

    def test_trace_csv_exact_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(path, AlgorithmTag.ALG1, [(2, 0.125)], 100)
        expected = "algorithm,iteration,mean_abs_change,trials\nalg1,2,0.125,100\n"
        assert path.read_bytes() == expected.encode()

    def test_manifest_serializes_domain_types(self, tmp_path):
        import json

        path = tmp_path / "m.json"
        th = CalibratedThreshold(DetectorKind.ED, 1.5, 0.05, 2000, 7, WHITE)
        write_manifest(path, {"threshold": th, "detectors": [DetectorKind.AGD], "grid": np.array([1.0, 2.0])})
        data = json.loads(path.read_text())
        assert data["threshold"]["detector"] == "ed"
        assert data["threshold"]["calibration_scenario"]["k"] == 16
        assert data["detectors"] == ["agd"]
        assert data["grid"] == [1.0, 2.0]
