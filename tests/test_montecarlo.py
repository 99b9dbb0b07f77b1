"""Tests for threshold calibration, probability estimation, and trace averaging."""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from dataclasses import replace

from hetdet import estimation
from hetdet.detectors import DetectorKind, NonFiniteStatistic, statistics_batch
from hetdet.estimation import EstimationConfig
from hetdet.montecarlo import (
    AlgorithmTag,
    CurvePoint,
    _UpperTail,
    _exceeding,
    calibrate_thresholds,
    convergence_trace,
    curve_point,
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
from oracles import cell_averaged_sf, coherent_detector_sf, energy_detector_sf

WHITE = ScenarioConfig(k=16, delta=0.0)
EST = EstimationConfig()


def _draw_refused(*args, **kwargs):
    raise AssertionError("a trial was drawn")


def _rank_threshold(stats, nominal_pfa, block=montecarlo.BLOCK_SIZE):
    """The eta of `stats` at `nominal_pfa`, streamed through `_UpperTail` in blocks."""
    tail = _UpperTail(nominal_pfa, stats.size)
    for start in range(0, stats.size, block):
        tail.add(stats[start:start + block])
    return tail.eta()


def _sorted_rank(stats, nominal_pfa):
    """The eta by definition: the rank-th smallest statistic, rank = ceil((1 - pfa) * n)."""
    return np.sort(stats)[int(np.ceil((1.0 - nominal_pfa) * stats.size)) - 1]


def _ed_threshold(nominal_pfa, trials, seed):
    thresholds = calibrate_thresholds([DetectorKind.ED], None, WHITE, nominal_pfa, trials, seed)
    return thresholds[DetectorKind.ED]


def _ed_pfa(scen, threshold, trials, seed):
    """One detector's Pfa at one scenario: a one-point pfa_sweep."""
    curves = pfa_sweep([DetectorKind.ED], None, {DetectorKind.ED: threshold}, [scen], trials, seed)
    return curves[DetectorKind.ED][0]


def _ed_pd(snr_grid, cal_trials, trials, seed, cal_seed):
    curves, _ = pd_curves(
        [DetectorKind.ED], None, WHITE, snr_grid, nominal_pfa=0.05, cal_trials=cal_trials,
        trials=trials, seed=seed, cal_seed=cal_seed,
    )
    return curves[DetectorKind.ED]


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


class TestExceedanceCurves:
    def test_strict_threshold(self):
        # Every curve, synthetic or recorded, counts with `_exceeding`.
        stats = np.array([1.5, 1.0, 0.5])
        # Only 1.5 exceeds 1.0: a tie is no detection.
        assert _exceeding(stats, 1.0, 0) == 1
        # One threshold per point may come in any sequence, here an array.
        per_point = np.array([1.0, 0.5])
        assert [_exceeding(stats, per_point, i) for i in (0, 1)] == [1, 2]


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

    @given(
        values=st.lists(st.integers(-5, 5), min_size=1, max_size=300),
        cuts=st.lists(st.integers(1, 300), max_size=8),
        nominal_pfa=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_streamed_eta_is_the_sorted_rank(self, values, cuts, nominal_pfa):
        """Any block split of tied values gives the sorted rank's bits, holding at most 2 * keep."""
        stats = np.array(values, dtype=float) / 4.0
        tail = _UpperTail(nominal_pfa, stats.size)
        assert tail.keep >= 1
        edges = sorted({0, stats.size, *(c for c in cuts if c < stats.size)})
        for a, b in zip(edges, edges[1:]):
            tail.add(stats[a:b])
            assert tail.held == sum(block.size for block in tail.blocks) <= 2 * tail.keep
        eta = tail.eta()
        assert isinstance(eta, float)
        assert eta == _sorted_rank(stats, nominal_pfa)


class TestCalibration:
    def test_energy_threshold_matches_chi_square_quantile(self):
        th = _ed_threshold(0.05, 4000, seed=3)
        analytic = sps.chi2.ppf(0.95, 2 * WHITE.k)
        assert isinstance(th, float)
        assert abs(th - analytic) / analytic < 0.05

    def test_trials_floor_enforced(self):
        with pytest.raises(ValueError, match="ceil"):
            _ed_threshold(0.01, 2000, seed=0)
        with pytest.raises(ValueError, match=r"nominal_pfa must lie in \(0, 1\)"):
            _ed_threshold(1.5, 2000, seed=0)

    def test_pfa_whose_floor_overflows_refused(self):
        """ceil(100/pfa) is infinite below about 5.6e-307: a ValueError, not an OverflowError."""
        with pytest.raises(ValueError, match=r"^pfa 1e-320 is too small"):
            _ed_threshold(1e-320, 2000, seed=0)
        with pytest.raises(ValueError, match=r"^pfa 1e-320 is too small"):
            pd_curves([DetectorKind.ED], None, WHITE, [0.0], 1e-320, 2000, 10, seed=0, cal_seed=1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("nominal_pfa, trials", [(0.5, 1300), (0.1, 1300), (0.01, 10100)])
    def test_etas_are_sorted_ranks_bit_for_bit(self, nominal_pfa, trials, workers):
        """The streamed etas equal the rank-th of every sorted statistic, at a partial last block."""
        assert trials % montecarlo.BLOCK_SIZE
        scen = ScenarioConfig(k=8, delta=4.0)
        kinds = [DetectorKind.ED, DetectorKind.GD_HE, DetectorKind.CD]
        run = (nominal_pfa, trials, 61, workers)

        def sorted_ranks(at):
            stats = sample_statistics(kinds, EST, at, Hypothesis.H0, trials, seed=61)
            return {kind: _sorted_rank(stats[kind], nominal_pfa) for kind in kinds}

        expected = sorted_ranks(scen)
        etas = calibrate_thresholds(kinds, EST, scen, *run)
        for kind in kinds:
            assert np.float64(etas[kind]).tobytes() == expected[kind].tobytes()
        grid = [0.0, 9.0]
        _, ths = pd_curves(kinds, EST, scen, grid, nominal_pfa=nominal_pfa, cal_trials=trials, trials=10,
                           seed=60, cal_seed=61, workers=workers)
        for kind in (DetectorKind.ED, DetectorKind.GD_HE):
            assert np.float64(ths[kind]).tobytes() == expected[kind].tobytes()
        for snr, eta in zip(grid, ths[DetectorKind.CD]):
            at = sorted_ranks(replace(scen, snr_db=snr))[DetectorKind.CD]
            assert np.float64(eta).tobytes() == at.tobytes()

    def test_shared_calibration_matches_single(self):
        kinds = [DetectorKind.ED, DetectorKind.CHD]
        shared = calibrate_thresholds(kinds, None, WHITE, 0.05, 2000, seed=4)
        for kind in kinds:
            alone = calibrate_thresholds([kind], None, WHITE, 0.05, 2000, seed=4)[kind]
            assert shared[kind] == alone


_sample_block = montecarlo._sample_block


def _dies_in_second_block(context, block):
    """Stand-in block function: the worker given the second block exits without a result."""
    if block.start == montecarlo.BLOCK_SIZE:
        time.sleep(2.0)  # the first block's result arrives before the pool breaks
        os._exit(1)
    return _sample_block(context, block)


def _inline_pools(monkeypatch) -> list:
    """Run every pool's blocks in this process; returns the list of pool sizes started."""
    pool_sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            pool_sizes.append(max_workers)
            initializer(*initargs)  # sets this process's worker task, restored below

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(montecarlo, "_task", None)
    return pool_sizes


def _counted_draws(monkeypatch) -> list:
    """The start of every block drawn through montecarlo's raw-draw global, in call order."""
    starts = []
    draw = montecarlo._draw_block

    def counted(scen, seed, start, count):
        starts.append(start)
        return draw(scen, seed, start, count)

    monkeypatch.setattr(montecarlo, "_draw_block", counted)
    return starts


# The exact null tails of the three statistics that need no estimate, at K = 16
# and sigma_n2 = 1 under white noise (delta 0) or uniform heterogeneity.
_NULL_SF = {
    DetectorKind.ED: lambda eta, delta: energy_detector_sf(eta, 0.0, WHITE.k, delta),
    DetectorKind.CHD: lambda eta, delta: coherent_detector_sf(eta, WHITE.k),
    DetectorKind.CA_CHD: lambda eta, delta: cell_averaged_sf(eta, WHITE.k),
}
# The chance that a correct program fails a test below, split over its checks.
_ORACLE_ALPHA = 1e-3


def _rank_band(nominal_pfa, trials, checks):
    """Bonferroni band of sf(eta) at the rank-r eta of `trials` draws, r = ceil((1 - pfa) * trials).

    For any continuous law the r-th smallest of n draws has F(eta) ~ Beta(r,
    n - r + 1), so sf(eta) ~ Beta(n - r + 1, r) exactly.
    """
    rank = int(np.ceil((1.0 - nominal_pfa) * trials))
    law = sps.beta(trials - rank + 1, rank)
    tail = _ORACLE_ALPHA / (2 * checks)
    return law.ppf(tail), law.isf(tail)


class TestExactNullOracles:
    def test_closed_forms_match_direct_draws(self):
        """The chd and ca-chd tails, checked on white bursts drawn here, not by the package."""
        x = np.random.default_rng(71).standard_normal((100_000, WHITE.k, 2))
        coherent = np.sum(np.sum(x, axis=1) ** 2, axis=-1)
        energy = np.sum(x * x, axis=(1, 2))
        levels = (0.5, 0.1, 0.01)
        bound = sps.norm.isf(_ORACLE_ALPHA / (2 * 2 * len(levels)))
        for values, sf in ((coherent, _NULL_SF[DetectorKind.CHD]),
                           (coherent / energy, _NULL_SF[DetectorKind.CA_CHD])):
            for level in levels:
                t = np.quantile(values, 1.0 - level)
                # The empirical tail at t is level; the oracle must agree within sampling error.
                sigma = np.sqrt(level * (1.0 - level) / values.size)
                assert abs(sf(t, 0.0) - level) <= bound * sigma

    def test_calibrated_etas_sit_at_their_exact_rank_law(self):
        """sf(eta) ~ Beta(n - r + 1, r) for ed, chd and ca-chd, at workers 1 and 2."""
        kinds = list(_NULL_SF)
        runs = [(0.1, 2000, 11), (0.01, 20_000, 12), (0.001, 100_000, 13)]
        checks = len(runs) * len(kinds) * 2
        for nominal_pfa, trials, seed in runs:
            low, high = _rank_band(nominal_pfa, trials, checks)
            etas = [calibrate_thresholds(kinds, None, WHITE, nominal_pfa, trials, seed, workers)
                    for workers in (1, 2)]
            assert etas[0] == etas[1]
            for eta in etas:
                for kind in kinds:
                    u = _NULL_SF[kind](eta[kind], 0.0)
                    assert low <= u <= high, (kind, nominal_pfa, u / nominal_pfa)

    def test_energy_pfa_under_heterogeneity_matches_its_oracle(self):
        """ed calibrated and swept at delta 10, 20 and 50 against the exact heterogeneous law."""
        deltas = (10.0, 20.0, 50.0)
        nominal_pfa, cal_trials, trials = 0.1, 2000, 10_000
        checks = 2 * len(deltas)
        low, high = _rank_band(nominal_pfa, cal_trials, checks)
        for delta in deltas:
            scen = replace(WHITE, delta=delta)
            eta = calibrate_thresholds([DetectorKind.ED], None, scen, nominal_pfa, cal_trials, 21, 2)
            q = _NULL_SF[DetectorKind.ED](eta[DetectorKind.ED], delta)
            assert low <= q <= high, (delta, q / nominal_pfa)
            point = pfa_sweep([DetectorKind.ED], None, eta, [scen], trials, 22, 2)[DetectorKind.ED][0]
            count = round(point.estimate * trials)
            # Exact two-sided binomial test of the swept Pfa against the oracle's.
            p_value = min(1.0, 2 * min(sps.binom.cdf(count, trials, q), sps.binom.sf(count - 1, trials, q)))
            assert p_value >= _ORACLE_ALPHA / checks, (delta, point.estimate, q)


class TestSampleStatistics:
    @pytest.mark.parametrize("kind", [DetectorKind.AGD, DetectorKind.C_GD_HE])
    def test_non_finite_error_names_the_trial(self, monkeypatch, kind):
        scen = ScenarioConfig(k=16, delta=10.0)
        cfg = EstimationConfig(n_co2=2)
        fused = estimation._em_mean
        draw = montecarlo._draw_block
        block = {}

        def drawn(scen, seed, start, count):
            block["start"] = start
            return draw(scen, seed, start, count)

        def poisoned(p, sig, core):
            mean = fused(p, sig, core)
            if block["start"] == 512 and mean.shape[0] > 3:
                mean[3] = np.nan
            return mean

        monkeypatch.setattr(montecarlo, "_draw_block", drawn)
        monkeypatch.setattr(estimation, "_em_mean", poisoned)
        # Where the NaN lands within the second block, from the batch alone.
        x, _ = montecarlo._bursts(scen, Hypothesis.H0, *drawn(scen, 9, 512, 8))
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
        pool_sizes = _inline_pools(monkeypatch)
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


class TestTrialBound:
    """A count above MAX_TRIALS is refused before a single trial is drawn."""

    def test_sample_statistics(self, monkeypatch):
        # Were the check gone, one block per 2**40 trials keeps the block list short.
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", montecarlo.MAX_TRIALS)
        monkeypatch.setattr(montecarlo, "_sample_block", _draw_refused)
        with pytest.raises(ValueError, match="at most MAX_TRIALS = 2"):
            sample_statistics([DetectorKind.ED], None, WHITE, Hypothesis.H0,
                              montecarlo.MAX_TRIALS + 1, seed=0)

    def test_convergence_trace(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "gen_block", _draw_refused)
        with pytest.raises(ValueError, match="at most MAX_TRIALS = 2"):
            convergence_trace(AlgorithmTag.ALG1, WHITE, montecarlo.MAX_TRIALS + 1, seed=0)


class TestSharedGrid:
    """A grid's points score one simulation of the trials, in one pool."""

    KINDS = [DetectorKind.GD_HE, DetectorKind.ED, DetectorKind.CHD]
    TRIALS = 1100  # two full blocks and a partial one

    def _thresholds(self):
        return calibrate_thresholds(self.KINDS, EST, WHITE, 0.1, 1000, seed=40)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "scens",
        [[ScenarioConfig(k=8, delta=d) for d in (0.0, 5.0, 20.0)],
         [ScenarioConfig(k=8, texture_shape=q) for q in (0.5, 2.0)]],
        ids=["delta", "q"],
    )
    def test_sweep_equals_one_point_sweeps(self, scens, workers):
        ths = self._thresholds()
        curves = pfa_sweep(self.KINDS, EST, ths, scens, self.TRIALS, seed=41, workers=workers)
        for i, scen in enumerate(scens):
            alone = pfa_sweep(self.KINDS, EST, ths, [scen], self.TRIALS, seed=41)
            for kind in self.KINDS:
                assert curves[kind][i] == alone[kind][0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pd_curves_equal_one_point_runs(self, workers):
        scen = ScenarioConfig(k=8, delta=4.0)
        kinds = [DetectorKind.CD, DetectorKind.ED]
        grid = [0.0, 6.0, 12.0]
        run = dict(nominal_pfa=0.1, cal_trials=1100, trials=self.TRIALS, seed=42, cal_seed=43)
        curves, ths = pd_curves(kinds, None, scen, grid, workers=workers, **run)
        assert len(ths[DetectorKind.CD]) == len(grid)
        for i, snr in enumerate(grid):
            alone, alone_ths = pd_curves(kinds, None, scen, [snr], **run)
            # The per-SNR calibration gives what its own calibration would.
            assert alone_ths[DetectorKind.CD] == (ths[DetectorKind.CD][i],)
            assert ths[DetectorKind.CD][i] == calibrate_thresholds(
                [DetectorKind.CD], None, replace(scen, snr_db=snr), 0.1, 1100, seed=43
            )[DetectorKind.CD]
            assert alone_ths[DetectorKind.ED] == ths[DetectorKind.ED]
            for kind in kinds:
                assert curves[kind][i] == alone[kind][0]

    def test_delta_and_snr_grids_draw_each_block_once(self, monkeypatch):
        starts = _counted_draws(monkeypatch)
        scens = [ScenarioConfig(k=8, delta=d) for d in (0.0, 5.0, 20.0)]
        pfa_sweep([DetectorKind.ED], None, {DetectorKind.ED: 20.0}, scens, self.TRIALS, seed=44)
        assert starts == [0, 512, 1024]
        starts.clear()
        pd_curves([DetectorKind.CD, DetectorKind.ED], None, ScenarioConfig(k=8, delta=4.0),
                  [0.0, 6.0, 12.0], nominal_pfa=0.1, cal_trials=1000, trials=self.TRIALS,
                  seed=45, cal_seed=46)
        # One calibration pass for ed and for cd at every SNR, then the evaluation.
        assert starts == [0, 512] + [0, 512, 1024]

    def test_q_grid_draws_each_point(self, monkeypatch):
        starts = _counted_draws(monkeypatch)
        scens = [ScenarioConfig(k=8, texture_shape=q) for q in (0.5, 2.0)]
        pfa_sweep([DetectorKind.ED], None, {DetectorKind.ED: 20.0}, scens, self.TRIALS, seed=44)
        assert starts == [0, 0, 512, 512, 1024, 1024]

    def test_one_pool_per_sweep(self, monkeypatch):
        pool_sizes = _inline_pools(monkeypatch)
        ths = self._thresholds()
        scens = [ScenarioConfig(k=8, delta=d) for d in (0.0, 1.0, 10.0, 50.0)]
        curves = pfa_sweep(self.KINDS, EST, ths, scens, self.TRIALS, seed=47, workers=2)
        assert pool_sizes == [2]
        assert curves == pfa_sweep(self.KINDS, EST, ths, scens, self.TRIALS, seed=47)
        pool_sizes.clear()
        pd_curves([DetectorKind.CD, DetectorKind.ED], None, ScenarioConfig(k=8, delta=4.0),
                  [0.0, 3.0, 6.0, 12.0], nominal_pfa=0.1, cal_trials=1100, trials=self.TRIALS,
                  seed=48, cal_seed=49, workers=2)
        # One pool calibrates ed and cd at each of the four SNRs, one evaluates.
        assert pool_sizes == [2, 2]

    def test_non_finite_error_at_a_later_point_names_the_trial(self, monkeypatch):
        scens = [ScenarioConfig(k=8, delta=d) for d in (0.0, 5.0, 20.0)]
        bursts = montecarlo._bursts
        starts = _counted_draws(monkeypatch)

        def poisoned(scen, hypothesis, u, g):
            x, sigma2 = bursts(scen, hypothesis, u, g)
            if starts[-1] == 512 and scen is scens[1]:
                x[5, 2, 0] = 1e300  # finite, but its energy is not
            return x, sigma2

        monkeypatch.setattr(montecarlo, "_bursts", poisoned)
        message = r"^ed statistic is not finite at burst 5 \(trial 517\)$"
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
            pfa_sweep([DetectorKind.ED], None, {DetectorKind.ED: 20.0}, scens, self.TRIALS, seed=50)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_norm_sample_at_a_later_point_names_the_trial(self, monkeypatch, workers):
        scens = [ScenarioConfig(k=8, delta=d) for d in (0.0, 5.0, 20.0)]
        bursts = montecarlo._bursts
        starts = _counted_draws(monkeypatch)

        def poisoned(scen, hypothesis, u, g):
            x, sigma2 = bursts(scen, hypothesis, u, g)
            if starts[-1] == 512 and scen == scens[1]:  # a pool worker gets a copy
                x[5, 2] = 0.0
            return x, sigma2

        monkeypatch.setattr(montecarlo, "_bursts", poisoned)
        message = r"^cannot normalize a zero-norm sample at burst 5, pulse 2 \(trial 517\)$"
        kinds = [DetectorKind.ED, DetectorKind.C_AGD]
        thresholds = {kind: 20.0 for kind in kinds}
        with pytest.raises(ValueError, match=message):
            pfa_sweep(kinds, EST, thresholds, scens, self.TRIALS, seed=50, workers=workers)


class TestPartitionInvariance:
    """No result depends on how the trials are cut into blocks, or on the worker count.

    Each example runs at a random `BLOCK_SIZE` and compares with the default
    partition, one block of `TRIALS` here.
    """

    KINDS = [DetectorKind.ED, DetectorKind.GD_HE, DetectorKind.C_AGD]
    SCENS = [ScenarioConfig(k=8, delta=d) for d in (0.0, 20.0)]
    TRIALS = 150
    _expected = {}

    def _default(self, name, run):
        if name not in self._expected:
            self._expected[name] = run()
        return self._expected[name]

    @pytest.mark.parametrize("workers", [1, 2])
    @settings(max_examples=6)
    @given(block=st.integers(1, 64))
    def test_statistics_and_curves(self, workers, block):
        thresholds = dict.fromkeys(self.KINDS, 4.0)

        def run(workers=1):
            stats = sample_statistics(self.KINDS, EST, self.SCENS[1], Hypothesis.H0, self.TRIALS, 70, workers)
            curves = pfa_sweep(self.KINDS, EST, thresholds, self.SCENS, self.TRIALS, 71, workers)
            return stats, curves

        stats, curves = self._default("sample", run)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "BLOCK_SIZE", block)
            cut_stats, cut_curves = run(workers)
        for kind in self.KINDS:
            assert cut_stats[kind].tobytes() == stats[kind].tobytes()
        assert cut_curves == curves

    @settings(max_examples=8)
    @given(block=st.integers(1, 64), algorithm=st.sampled_from(list(AlgorithmTag)))
    def test_convergence_trace_adds_blocks_in_order(self, block, algorithm):
        """The blocks' sums are added in order, so a partition moves only the rounding.

        The default partition's bits are pinned by the CLI's convergence digests.
        """
        scen = ScenarioConfig(k=8, delta=5.0, snr_db=10.0)
        trials = 70

        def run():
            return np.array(convergence_trace(algorithm, scen, trials, seed=72))

        trace = self._default(algorithm, run)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "BLOCK_SIZE", block)
            cut = run()
            assert run().tobytes() == cut.tobytes()
        np.testing.assert_array_equal(cut[:, 0], trace[:, 0])
        np.testing.assert_allclose(cut[:, 1], trace[:, 1], rtol=1e-12, atol=0.0)


class TestPfaEstimation:
    def test_matched_scenario_self_consistency(self):
        th = _ed_threshold(0.05, 4000, seed=11)
        pt = _ed_pfa(WHITE, th, 4000, seed=12)
        assert pt.ci_low <= 0.05 <= pt.ci_high
        assert pt.abscissa == 0.0

    def test_abscissa_reports_heterogeneity_parameter(self):
        th = _ed_threshold(0.05, 2000, seed=13)
        scen_q = ScenarioConfig(k=16, texture_shape=0.5)
        pt = _ed_pfa(scen_q, th, 500, seed=14)
        assert pt.abscissa == 0.5

    def test_sweep_shares_draws_and_orders_output(self):
        kinds = [DetectorKind.ED, DetectorKind.CHD]
        ths = calibrate_thresholds(kinds, None, WHITE, 0.05, 2000, seed=17)
        scens = [ScenarioConfig(k=16, delta=d) for d in (0.0, 10.0, 20.0)]
        curves = pfa_sweep(kinds, None, ths, scens, 1000, seed=18)
        for kind in kinds:
            assert [pt.abscissa for pt in curves[kind]] == [0.0, 10.0, 20.0]
            single = pfa_sweep([kind], None, ths, [scens[1]], 1000, seed=18)[kind][0]
            assert curves[kind][1].estimate == single.estimate

    def test_sweep_requires_all_thresholds(self):
        ths = calibrate_thresholds([DetectorKind.ED], None, WHITE, 0.05, 2000, seed=19)
        with pytest.raises(ValueError, match="missing threshold"):
            pfa_sweep([DetectorKind.ED, DetectorKind.CHD], None, ths, [WHITE], 100, seed=20)
        with pytest.raises(ValueError, match="at least one scenario"):
            pfa_sweep([DetectorKind.ED], None, ths, [], 100, seed=20)


class TestPdCurves:
    def test_energy_detector_curve_increases(self):
        pts = _ed_pd([-20.0, 0.0, 10.0], 2000, 1000, seed=22, cal_seed=21)
        estimates = [pt.estimate for pt in pts]
        assert estimates[0] < estimates[1] < estimates[2]
        assert pts[-1].estimate > 0.99

    def test_vanishing_snr_recovers_pfa(self):
        pts = _ed_pd([-np.inf], 4000, 4000, seed=24, cal_seed=23)
        assert pts[0].ci_low <= 0.05 <= pts[0].ci_high

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            _ed_pd([], 2000, 100, seed=28, cal_seed=27)
        with pytest.raises(ValueError):
            _ed_pd([np.nan], 2000, 100, seed=28, cal_seed=27)

    @pytest.mark.parametrize("kinds", [[], [DetectorKind.ED, DetectorKind.ED]])
    def test_kinds_validation(self, kinds):
        with pytest.raises(ValueError, match="kinds must be non-empty and unique"):
            pd_curves(kinds, None, WHITE, [0.0], nominal_pfa=0.05, cal_trials=2000, trials=100,
                      seed=28, cal_seed=27)

    def test_multi_detector_engine(self):
        scen = ScenarioConfig(k=16, delta=10.0)
        kinds = [DetectorKind.CD, DetectorKind.ED]
        curves, thresholds = pd_curves(
            kinds, None, scen, [0.0, 10.0, 20.0],
            nominal_pfa=0.05, cal_trials=2000, trials=1000, seed=29, cal_seed=30,
        )
        assert isinstance(thresholds[DetectorKind.ED], float)
        cd = thresholds[DetectorKind.CD]
        assert isinstance(cd, tuple) and len(cd) == 3
        assert all(isinstance(eta, float) for eta in cd)
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
            nominal_pfa=0.05, cal_trials=2000, trials=500, seed=30, cal_seed=31,
        )
        # The matched scenario's null, drawn from the calibration stream.
        assert ths == calibrate_thresholds([DetectorKind.ED], None, scen, 0.05, 2000, 31)


class TestConvergenceTrace:
    def test_cyclic_ml_trace_shape_and_decay(self):
        scen = ScenarioConfig(k=16, delta=10.0)
        trace = convergence_trace(AlgorithmTag.ALG1, replace(scen, snr_db=10.0), 600, seed=31)
        assert [i for i, _ in trace] == list(range(2, 16))
        values = [v for _, v in trace]
        assert values[-1] < 1e-2
        assert values[-1] < values[0]

    def test_em_mean_trace(self):
        scen = ScenarioConfig(k=16, delta=10.0)
        trace = convergence_trace(AlgorithmTag.EM_M, replace(scen, snr_db=10.0), 300, seed=32)
        assert [i for i, _ in trace] == list(range(1, 21))
        assert trace[-1][1] < 1e-3

    def test_outer_trace_indices(self):
        scen = ScenarioConfig(k=16, delta=10.0)
        trace = convergence_trace(AlgorithmTag.CYCLIC_EM, replace(scen, snr_db=10.0), 64, seed=33)
        assert [i for i, _ in trace] == list(range(1, 16))
        trace_s = convergence_trace(AlgorithmTag.EM_SIGMA, replace(scen, snr_db=10.0), 64, seed=33)
        assert [i for i, _ in trace_s] == list(range(1, 21))

    def test_parse_and_validation(self):
        assert AlgorithmTag.parse("em-m") is AlgorithmTag.EM_M
        with pytest.raises(ValueError, match="unknown algorithm"):
            AlgorithmTag.parse("em")
        with pytest.raises(ValueError):
            convergence_trace("alg1", replace(WHITE, snr_db=0.0), 10, seed=0)
        with pytest.raises(ValueError, match="trials must be positive"):
            convergence_trace(AlgorithmTag.ALG1, WHITE, 0, seed=0)


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
        thresholds = {DetectorKind.ED: 1.5, DetectorKind.CD: (2.0, 2.5)}
        write_manifest(path, {"thresholds": thresholds, "scenario": WHITE,
                              "detectors": [DetectorKind.AGD], "grid": np.array([1.0, 2.0]),
                              "count": np.int64(7), "level": np.float32(0.5)})
        data = json.loads(path.read_text())
        assert data["count"] == 7 and data["level"] == 0.5
        assert data["thresholds"] == {"ed": 1.5, "cd": [2.0, 2.5]}
        assert data["scenario"]["k"] == 16 and data["scenario"]["delta"] == 0.0
        assert data["detectors"] == ["agd"]
        assert data["grid"] == [1.0, 2.0]
