"""Tests for burst containers, synthetic generators, and recorded-series I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetdet.scenario import (
    Burst,
    GroundTruth,
    Hypothesis,
    InvariantBurst,
    RecordedSeries,
    ScenarioConfig,
    gen_block,
    gen_compound_gaussian,
    gen_uniform_het,
    ingest_recorded,
    pulse_powers,
    sliding_bursts,
    _stream_states,
    to_invariant,
    trial_rng,
)


class TestScenarioConfig:
    def test_exactly_one_model_required(self):
        with pytest.raises(ValueError):
            ScenarioConfig(k=16)
        with pytest.raises(ValueError):
            ScenarioConfig(k=16, delta=5.0, texture_shape=1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(k=1, delta=5.0)
        with pytest.raises(ValueError):
            ScenarioConfig(k=16, delta=-1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(k=16, texture_shape=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(k=16, delta=5.0, sigma_n2=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(k=16, delta=5.0, snr_db=np.nan)
        with pytest.raises(ValueError):
            ScenarioConfig(k=16, delta=5.0, snr_db=np.inf)
        with pytest.raises(ValueError):
            ScenarioConfig(k=16, delta=5.0, c0=0.0)

    def test_c0_defaults_to_noise_power(self):
        cfg = ScenarioConfig(k=16, delta=5.0, sigma_n2=3.0)
        assert cfg.c0 == 3.0
        cfg2 = ScenarioConfig(k=16, delta=5.0, sigma_n2=3.0, c0=0.5)
        assert cfg2.c0 == 0.5

    def test_target_mean_norm_and_phase(self):
        cfg = ScenarioConfig(k=16, delta=5.0, sigma_n2=2.0, snr_db=13.0, target_phase=0.7)
        m = cfg.target_mean
        assert np.isclose(m @ m, 2.0 * 10.0 ** 1.3, rtol=1e-14)
        assert np.isclose(np.arctan2(m[1], m[0]), 0.7, rtol=1e-14)

    def test_minus_inf_snr_gives_zero_mean(self):
        cfg = ScenarioConfig(k=16, delta=5.0, snr_db=-np.inf)
        assert np.array_equal(cfg.target_mean, np.zeros(2))


class TestBurstContainers:
    def test_burst_shape_and_immutability(self):
        b = Burst(np.ones((4, 2)))
        assert b.k == 4
        assert not b.samples.flags.writeable
        with pytest.raises(ValueError):
            Burst(np.ones((4, 3)))
        with pytest.raises(ValueError):
            Burst(np.array([[1.0, np.inf]]))

    def test_invariant_burst_validation(self):
        z = np.tile([1.0, 0.0], (3, 1))
        InvariantBurst(directions=z, norms=np.ones(3))
        with pytest.raises(ValueError):
            InvariantBurst(directions=z, norms=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            InvariantBurst(directions=z, norms=np.ones(2))

    def test_to_invariant_reconstruction(self):
        rng = np.random.default_rng(3)
        b = Burst(rng.standard_normal((8, 2)))
        inv = to_invariant(b)
        np.testing.assert_allclose(np.sum(inv.directions**2, axis=1), 1.0, rtol=1e-14)
        np.testing.assert_allclose(inv.directions * inv.norms[:, None], b.samples, rtol=1e-14)

    def test_to_invariant_scale_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 2))
        scales = rng.uniform(0.1, 10.0, size=8)
        inv_a = to_invariant(Burst(x))
        inv_b = to_invariant(Burst(scales[:, None] * x))
        np.testing.assert_allclose(inv_a.directions, inv_b.directions, rtol=1e-13)

    def test_to_invariant_rejects_zero_sample(self):
        x = np.ones((3, 2))
        x[1] = 0.0
        with pytest.raises(ValueError, match="zero-norm"):
            to_invariant(Burst(x))

    def test_ground_truth_validation(self):
        with pytest.raises(ValueError):
            GroundTruth(mean=np.zeros(2), target_mean=np.zeros(2), sigma2=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            GroundTruth(mean=np.zeros(3), target_mean=np.zeros(2), sigma2=np.ones(2))


class TestTrialStreams:
    def test_reproducible_and_distinct(self):
        a = trial_rng(5, 9).standard_normal(4)
        b = trial_rng(5, 9).standard_normal(4)
        c = trial_rng(5, 10).standard_normal(4)
        d = trial_rng(6, 9).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_block_matches_per_trial_draws(self):
        cfg = ScenarioConfig(k=16, delta=10.0, snr_db=8.0)
        x, s2 = gen_block(cfg, Hypothesis.H1, seed=21, start=0, count=6)
        for trial in range(6):
            burst, gt = gen_uniform_het(cfg, Hypothesis.H1, trial_rng(21, trial))
            np.testing.assert_array_equal(x[trial], burst.samples)
            np.testing.assert_array_equal(s2[trial], gt.sigma2)

    def test_block_partition_independence(self):
        cfg = ScenarioConfig(k=8, texture_shape=1.0)
        whole, _ = gen_block(cfg, Hypothesis.H0, seed=2, start=0, count=10)
        first, _ = gen_block(cfg, Hypothesis.H0, seed=2, start=0, count=4)
        rest, _ = gen_block(cfg, Hypothesis.H0, seed=2, start=4, count=6)
        np.testing.assert_array_equal(whole, np.concatenate([first, rest]))

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3])
    def test_stream_states_match_seed_sequence(self, seed):
        trials = [0, 511, 2**32 - 1, 2**32, 2**40]
        expected = [
            np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(4, np.uint64) for t in trials
        ]
        got = _stream_states(seed, trials)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, np.array(expected))

    @pytest.mark.parametrize("model", ["uniform", "compound"])
    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    @pytest.mark.parametrize("k", [2, 16])
    @pytest.mark.parametrize(
        "seed, start, count", [(21, 0, 6), (3, 1024, 1), (2**40, 2**32 - 3, 6)]
    )
    def test_block_is_bit_identical_to_trial_streams(self, model, hypothesis, k, seed, start, count):
        if model == "uniform":
            cfg = ScenarioConfig(k=k, delta=10.0, sigma_n2=1.5, snr_db=8.0, target_phase=0.3)
        else:
            cfg = ScenarioConfig(k=k, texture_shape=0.7, sigma_n2=2.0, snr_db=3.0)
        _assert_block_matches_trial_streams(cfg, hypothesis, seed, start, count)

    def test_negative_seed_or_start_rejected(self):
        cfg = ScenarioConfig(k=4, delta=1.0)
        with pytest.raises(ValueError):
            gen_block(cfg, Hypothesis.H0, seed=-1, start=0, count=2)
        with pytest.raises(ValueError):
            gen_block(cfg, Hypothesis.H0, seed=0, start=-1, count=2)
        with pytest.raises(ValueError):
            gen_block(cfg, Hypothesis.H0, seed=0, start=-1, count=0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**96 - 1),
        start=st.integers(0, 2**40 - 1),
        count=st.integers(1, 64),
        compound=st.booleans(),
    )
    def test_block_equals_trial_streams_property(self, seed, start, count, compound):
        cfg = ScenarioConfig(k=4, texture_shape=1.3) if compound else ScenarioConfig(k=4, delta=5.0)
        _assert_block_matches_trial_streams(cfg, Hypothesis.H1, seed, start, count)


def _reference_burst(cfg, hypothesis, rng):
    """One burst drawn and mapped per trial, as generation did before block seeding."""
    if cfg.delta is not None:
        sigma2 = cfg.delta * rng.random(cfg.k) + cfg.sigma_n2
    else:
        sigma2 = cfg.sigma_n2 * rng.gamma(shape=cfg.texture_shape, scale=1.0 / cfg.texture_shape, size=cfg.k)
    x = np.sqrt(sigma2)[:, None] * rng.standard_normal((cfg.k, 2))
    if hypothesis is Hypothesis.H1:
        x = x + cfg.target_mean
    return x, sigma2


def _assert_block_matches_trial_streams(cfg, hypothesis, seed, start, count):
    """gen_block against one trial_rng stream per trial, bit for bit."""
    x, s2 = gen_block(cfg, hypothesis, seed, start, count)
    assert x.shape == (count, cfg.k, 2) and s2.shape == (count, cfg.k)
    assert x.dtype == s2.dtype == np.float64
    assert x.flags.c_contiguous and s2.flags.c_contiguous
    for i in range(count):
        ref_x, ref_s2 = _reference_burst(cfg, hypothesis, trial_rng(seed, start + i))
        assert x[i].tobytes() == ref_x.tobytes()
        assert s2[i].tobytes() == ref_s2.tobytes()


class TestUniformHeterogeneity:
    def test_variance_support_and_shapes(self):
        cfg = ScenarioConfig(k=16, delta=10.0, sigma_n2=2.0)
        burst, gt = gen_uniform_het(cfg, Hypothesis.H0, trial_rng(1, 0))
        assert burst.samples.shape == (16, 2)
        assert np.all(gt.sigma2 >= 2.0)
        assert np.all(gt.sigma2 <= 12.0)
        assert np.array_equal(gt.mean, np.zeros(2))
        np.testing.assert_array_equal(gt.target_mean, cfg.target_mean)

    def test_h1_carries_target_mean(self):
        cfg = ScenarioConfig(k=16, delta=10.0, snr_db=10.0, target_phase=0.3)
        _, gt = gen_uniform_het(cfg, Hypothesis.H1, trial_rng(1, 0))
        np.testing.assert_array_equal(gt.mean, cfg.target_mean)

    def test_paired_hypotheses_share_noise(self):
        cfg = ScenarioConfig(k=16, delta=10.0, snr_db=12.0)
        b1, gt1 = gen_uniform_het(cfg, Hypothesis.H1, trial_rng(7, 3))
        b0, gt0 = gen_uniform_het(cfg, Hypothesis.H0, trial_rng(7, 3))
        np.testing.assert_array_equal(gt1.sigma2, gt0.sigma2)
        np.testing.assert_allclose(b1.samples - cfg.target_mean, b0.samples, atol=1e-12)

    def test_mean_sample_power_matches_model(self):
        cfg = ScenarioConfig(k=16, delta=10.0, sigma_n2=1.0)
        x, _ = gen_block(cfg, Hypothesis.H0, seed=100, start=0, count=20000)
        observed = np.mean(np.sum(x**2, axis=2) / 2.0)
        assert np.isclose(observed, 1.0 + 10.0 / 2.0, rtol=0.01)

    def test_zero_delta_is_homogeneous(self):
        cfg = ScenarioConfig(k=16, delta=0.0, sigma_n2=2.5)
        _, gt = gen_uniform_het(cfg, Hypothesis.H0, trial_rng(0, 0))
        np.testing.assert_array_equal(gt.sigma2, np.full(16, 2.5))

    def test_model_mismatch_rejected(self):
        cfg = ScenarioConfig(k=16, texture_shape=1.0)
        with pytest.raises(ValueError):
            gen_uniform_het(cfg, Hypothesis.H0, trial_rng(0, 0))
        cfg2 = ScenarioConfig(k=16, delta=1.0)
        with pytest.raises(ValueError):
            gen_compound_gaussian(cfg2, Hypothesis.H0, trial_rng(0, 0))
        with pytest.raises(ValueError):
            gen_uniform_het(cfg2, "h0", trial_rng(0, 0))


class TestCompoundGaussian:
    def test_textures_have_unit_mean(self):
        cfg = ScenarioConfig(k=16, texture_shape=0.5, sigma_n2=3.0)
        _, s2 = gen_block(cfg, Hypothesis.H0, seed=40, start=0, count=20000)
        assert np.all(s2 > 0)
        assert np.isclose(np.mean(s2) / 3.0, 1.0, rtol=0.02)

    def test_texture_spread_shrinks_with_shape(self):
        spreads = []
        for q in (0.5, 50.0):
            cfg = ScenarioConfig(k=16, texture_shape=q)
            _, s2 = gen_block(cfg, Hypothesis.H0, seed=41, start=0, count=4000)
            spreads.append(np.var(s2))
        assert spreads[1] < spreads[0] / 10.0


def _write_series(path, bins, n_pulses, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["bin_index, pulse_index, re, im"]
    values = {}
    for b in bins:
        for p in range(n_pulses):
            re, im = (float(v) for v in rng.standard_normal(2))
            values[(b, p)] = complex(re, im)
            lines.append(f"{b}, {p}, {re!r}, {im!r}")
    path.write_text("\n".join(lines) + "\n")
    return values


class TestRecordedSeries:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "rec.csv"
        values = _write_series(path, [3, 7], 24)
        series = ingest_recorded(path)
        assert series.n_bins == 2
        assert series.n_pulses == 24
        np.testing.assert_array_equal(series.bin_labels, [3, 7])
        for (b, p), v in values.items():
            assert series.row(b)[p] == v

    def test_unknown_bin_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        _write_series(path, [3], 8)
        series = ingest_recorded(path)
        with pytest.raises(ValueError, match="unknown range bin"):
            series.row(4)

    def test_header_required(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a, b, c, d\n1, 0, 0.0, 0.0\n")
        with pytest.raises(ValueError, match="header"):
            ingest_recorded(path)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("bin_index, pulse_index, re, im\n1, 0, 0.0, 0.0\n1, 1, oops, 0.0\n")
        with pytest.raises(ValueError, match=":3"):
            ingest_recorded(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("bin_index, pulse_index, re, im\n1, 0, 0.0, 0.0\n1, 0, 1.0, 0.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            ingest_recorded(path)

    def test_missing_pulse_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(
            "bin_index, pulse_index, re, im\n"
            "1, 0, 0.0, 0.0\n1, 1, 0.0, 0.0\n2, 0, 0.0, 0.0\n"
        )
        with pytest.raises(ValueError, match="missing pulse"):
            ingest_recorded(path)

    def test_gapped_pulse_indices_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("bin_index, pulse_index, re, im\n1, 0, 0.0, 0.0\n1, 2, 0.0, 0.0\n")
        with pytest.raises(ValueError, match="cover 0"):
            ingest_recorded(path)

    @pytest.mark.parametrize(
        "row, message",
        [("1, 2", "expected 4 fields, got 2"), ("1.0, 1, 0.0, 0.0", "cannot read"),
         ("1, 1, 9.0, 0.0", r"duplicate cell \(1, 1\)")],
    )
    def test_bad_row_is_named_by_its_file_line(self, tmp_path, row, message):
        path = tmp_path / "rec.csv"
        path.write_text("bin_index, pulse_index, re, im\n1, 0, 0.0, 0.0\n\n   \n1, 1, 0.0, 0.0\n" + row + "\n")
        with pytest.raises(ValueError, match=rf"rec.csv:6: {message}"):
            ingest_recorded(path)

    def test_values_equal_float_bit_for_bit(self, tmp_path):
        texts = ["-0.0", "5e-324", "1.7976931348623157e308", "0.1", "-2.2250738585072014e-308",
                 "1e-400", "3.14159265358979323846264338327950288", "+7", "-1E+2"]
        # Rows out of order, CRLF endings, blank and whitespace-only lines, spaces after commas.
        lines = ["bin_index,pulse_index,re,im"]
        for p in reversed(range(len(texts))):
            lines += [f"4, {p},  {texts[p]}, {texts[-1 - p]} ", "", "  "]
        path = tmp_path / "rec.csv"
        path.write_bytes("\r\n".join(lines).encode())
        row = ingest_recorded(path).row(4)
        got = np.stack([row.real, row.imag], axis=-1)
        want = np.array([[float(t), float(u)] for t, u in zip(texts, reversed(texts))])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_literal_offset(self, tmp_path):
        path = tmp_path / "rec.csv"
        _write_series(path, [1], 8)
        base = ingest_recorded(path)
        shifted = ingest_recorded(path, offset=2.5)
        np.testing.assert_allclose(shifted.cells, base.cells + 2.5, rtol=1e-15)

    def test_noise_offset_adds_power_deterministically(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(
            "bin_index, pulse_index, re, im\n"
            + "\n".join(f"1, {p}, 0.0, 0.0" for p in range(4000))
            + "\n"
        )
        a = ingest_recorded(path, offset=4.0, offset_mode="noise", seed=11)
        b = ingest_recorded(path, offset=4.0, offset_mode="noise", seed=11)
        np.testing.assert_array_equal(a.cells, b.cells)
        assert np.isclose(np.mean(np.abs(a.cells) ** 2), 4.0, rtol=0.05)

    def test_offset_mode_validated(self, tmp_path):
        path = tmp_path / "rec.csv"
        _write_series(path, [1], 4)
        with pytest.raises(ValueError):
            ingest_recorded(path, offset=1.0, offset_mode="additive")
        with pytest.raises(ValueError):
            ingest_recorded(path, offset=-1.0, offset_mode="noise")


class TestSlidingBursts:
    @pytest.mark.parametrize(
        "n_pulses,k,stride",
        [(64, 16, 16), (64, 16, 8), (65, 16, 16), (16, 16, 1), (40, 8, 3)],
    )
    def test_window_count(self, tmp_path, n_pulses, k, stride):
        path = tmp_path / "rec.csv"
        _write_series(path, [0], n_pulses)
        series = ingest_recorded(path)
        windows = sliding_bursts(series, 0, k=k, stride=stride)
        assert windows.shape == ((n_pulses - k) // stride + 1, k, 2)
        assert windows.dtype == float and windows.flags.c_contiguous

    def test_window_contents(self, tmp_path):
        path = tmp_path / "rec.csv"
        _write_series(path, [2], 20, seed=5)
        series = ingest_recorded(path)
        windows = sliding_bursts(series, 2, k=8, stride=4)
        row = series.row(2)
        assert len(windows) == 4
        for i, window in enumerate(windows):
            np.testing.assert_array_equal(window[:, 0], row[4 * i : 4 * i + 8].real)
            np.testing.assert_array_equal(window[:, 1], row[4 * i : 4 * i + 8].imag)

    def test_parameter_validation(self, tmp_path):
        path = tmp_path / "rec.csv"
        _write_series(path, [0], 10)
        series = ingest_recorded(path)
        with pytest.raises(ValueError):
            sliding_bursts(series, 0, k=1, stride=1)
        with pytest.raises(ValueError):
            sliding_bursts(series, 0, k=4, stride=0)
        with pytest.raises(ValueError, match="exceeds"):
            sliding_bursts(series, 0, k=11, stride=1)

    def test_pulse_powers(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("bin_index, pulse_index, re, im\n5, 0, 3.0, 4.0\n5, 1, 0.0, 2.0\n")
        series = ingest_recorded(path)
        np.testing.assert_allclose(pulse_powers(series, 5), [25.0, 4.0], rtol=1e-15)
