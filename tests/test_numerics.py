"""Numeric kernel tests: frozen oracle values, properties, and stability."""

from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hetdet import numerics as nm

from oracles import (
    cond_mean_norm_exact,
    cond_mean_sq_residual_exact,
    log1p_mills_exact,
    magnitude_moments,
)


class TestLog1pMills:
    def test_frozen_points(self):
        np.testing.assert_allclose(
            nm.log1p_mills(-30.0), -6.8057152273933313, rtol=1e-13
        )
        np.testing.assert_allclose(
            nm.log1p_mills(30.0), 454.32013591486683, rtol=1e-13
        )
        np.testing.assert_allclose(
            nm.log1p_mills(-500.0), -12.429228196676388, rtol=1e-13
        )
        np.testing.assert_allclose(nm.log1p_mills(-40.0), -7.3796298234152875, rtol=1e-13)
        assert nm.log1p_mills(0.0) == 0.0

    def test_against_oracle_grid(self):
        for t in (-200.0, -8.5, -7.9, -2.0, 0.0, 3.0, 7.9, 8.5, 100.0, 500.0):
            np.testing.assert_allclose(
                nm.log1p_mills(t), float(log1p_mills_exact(t)), rtol=1e-12
            )

    def test_deep_negative_limit(self):
        """1 + t*Phi/phi -> 1/t^2 as t -> -inf, so the log falls like -2*log|t|."""
        t = np.array([-1e4, -500.0, -100.0])
        np.testing.assert_allclose(nm.log1p_mills(t), -2.0 * np.log(-t), rtol=1e-3)

    def test_finite_over_extended_range(self):
        t = np.linspace(-500.0, 500.0, 200001)
        v = nm.log1p_mills(t)
        assert np.all(np.isfinite(v))
        assert np.all(np.diff(v) > 0)

    def test_strictly_convex(self):
        """log(sigma^2) + log1p_mills(p/sigma) has second derivative Var[b]/sigma^4 > 0 in p."""
        v = nm.log1p_mills(np.linspace(-500.0, 500.0, 4001))
        assert np.all(v[2:] - 2.0 * v[1:-1] + v[:-2] > 0)

    def test_branch_seams(self):
        for seam in (-8.0, 8.0):
            below = nm.log1p_mills(np.nextafter(seam, -np.inf))
            above = nm.log1p_mills(np.nextafter(seam, np.inf))
            np.testing.assert_allclose(below, above, rtol=1e-12)

    def test_finite_past_phi_overflow(self):
        """1/phi(t) overflows float64 near t = 37.7; the log-domain branch does not."""
        for t in (39.0, 60.0):
            np.testing.assert_allclose(
                nm.log1p_mills(t), float(log1p_mills_exact(t)), rtol=1e-13
            )


class TestCondMeanNorm:
    def test_rayleigh_mean_at_zero(self):
        np.testing.assert_allclose(
            nm.cond_mean_norm(0.0, 4.0), 2.0 * np.sqrt(np.pi / 2.0), rtol=1e-14
        )

    def test_frozen_points(self):
        np.testing.assert_allclose(nm.cond_mean_norm(1.0, 1.0), 1.7766387252017393, rtol=1e-13)
        np.testing.assert_allclose(nm.cond_mean_norm(-40.0, 1.0), 0.049906657648518193, rtol=1e-13)
        np.testing.assert_allclose(nm.cond_mean_norm(-12.0, 2.5), 0.39722833850896597, rtol=1e-13)

    def test_against_quadrature(self):
        for p, s2 in ((0.0, 1.0), (2.0, 0.25), (-6.0, 3.0), (12.0, 1.0)):
            _, mean_ref, _ = magnitude_moments(p, s2)
            np.testing.assert_allclose(nm.cond_mean_norm(p, s2), float(mean_ref), rtol=1e-10)

    def test_positive_monotone_increasing(self):
        p = np.linspace(-300.0, 300.0, 20001)
        h = nm.cond_mean_norm(p, 2.0)
        assert np.all(h > 0)
        assert np.all(np.diff(h) > 0)

    def test_approaches_p_from_above(self):
        h = nm.cond_mean_norm(1.0e4, 1.0)
        assert h > 1.0e4
        np.testing.assert_allclose(h - 1.0e4, 1.0e-4, rtol=1e-3)

    def test_opposing_direction_decay(self):
        p = np.array([-50.0, -200.0])
        np.testing.assert_allclose(nm.cond_mean_norm(p, 1.0), -2.0 / p, rtol=1e-2)

    def test_is_slope_of_log_term(self):
        """d/dp [log sigma^2 + log1p_mills(p/sigma)] = cond_mean_norm(p, sigma^2) / sigma^2."""
        s2, h = 1.3, 1e-5
        for p in (-6.0, -0.3, 0.0, 2.0, 5.5):
            fd = (nm.log1p_mills((p + h) / np.sqrt(s2)) - nm.log1p_mills((p - h) / np.sqrt(s2))) / (2 * h)
            np.testing.assert_allclose(nm.cond_mean_norm(p, s2) / s2, fd, rtol=1e-8)

    def test_scales_with_sigma(self):
        """The mean is sigma times a function of t = p/sigma; a power-of-two scale is exact in t."""
        p = np.linspace(-50.0, 50.0, 101)
        for c in (0.25, 4.0):
            np.testing.assert_allclose(
                nm.cond_mean_norm(c * p, c * c * 2.5), c * nm.cond_mean_norm(p, 2.5), rtol=1e-15
            )


class TestCondMeanSqResidual:
    def test_exact_at_zero(self):
        assert nm.cond_mean_sq_residual(0.0, 3.0, 5.0) == 2.0 * 3.0 + 5.0

    def test_frozen_points(self):
        np.testing.assert_allclose(
            nm.cond_mean_sq_residual(1.0, 1.0, 1.0), 1.2233612747982607, rtol=1e-13
        )
        np.testing.assert_allclose(
            nm.cond_mean_sq_residual(-40.0, 1.0, 1600.0), 1603.9962663059407, rtol=1e-13
        )

    def test_against_quadrature(self):
        for p, s2, msq in ((1.0, 1.0, 1.0), (-3.0, 2.0, 9.5), (5.0, 0.5, 30.0), (-12.0, 1.0, 150.0)):
            _, _, r_ref = magnitude_moments(p, s2, msq)
            np.testing.assert_allclose(
                nm.cond_mean_sq_residual(p, s2, msq), float(r_ref), rtol=1e-10
            )

    def test_scales_with_sigma2(self):
        """Scaling p and sigma by c, and norm_m_sq by c^2, scales the residual by c^2."""
        p = np.linspace(-50.0, 50.0, 101)
        msq = p * p + 3.0
        for c in (0.25, 4.0):
            np.testing.assert_allclose(
                nm.cond_mean_sq_residual(c * p, c * c * 2.5, c * c * msq),
                c * c * nm.cond_mean_sq_residual(p, 2.5, msq),
                rtol=1e-15,
            )

    def test_additive_in_norm_m_sq(self):
        base = nm.cond_mean_sq_residual(-1.5, 2.0, 4.0)
        bumped = nm.cond_mean_sq_residual(-1.5, 2.0, 9.0)
        np.testing.assert_allclose(bumped - base, 5.0, rtol=1e-12)

    def test_positive_for_consistent_inputs(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(0.0, 2.0 * np.pi, 5000)
        norm_m = 10.0 ** rng.uniform(-2.0, 2.5, 5000)
        p = norm_m * np.cos(theta)
        s2 = 10.0 ** rng.uniform(-2.0, 2.0, 5000)
        r = nm.cond_mean_sq_residual(p, s2, norm_m**2)
        assert np.all(np.isfinite(r))
        assert np.all(r > 0)


def _em_grid():
    """t grid over [-60, 60] with both neighbours of every branch seam and
    points across the 1/phi overflow edge near t = 38."""
    seams = np.array([-8.0, -4.0, 8.0])
    return np.unique(np.concatenate([
        np.linspace(-60.0, 60.0, 481),
        seams, np.nextafter(seams, -np.inf), np.nextafter(seams, np.inf),
        np.linspace(37.0, 39.0, 41),
    ]))


class TestEmParts:
    """The EM kernel, which the checked moment kernels wrap, against extended precision."""

    @pytest.mark.parametrize("sigma2", [1.0, 0.37, 2.5, 40.0])
    def test_matches_oracles(self, sigma2):
        t = _em_grid()
        p = t * np.sqrt(sigma2)
        msq = p * p + 0.5 * sigma2
        log_term, mean, resid = nm._em_parts(p, np.full_like(p, sigma2))
        for i, pi in enumerate(p):
            np.testing.assert_allclose(
                log_term[i], float(log1p_mills_exact(pi / np.sqrt(sigma2))), rtol=1e-13, atol=0
            )
            np.testing.assert_allclose(
                mean[i], float(cond_mean_norm_exact(pi, sigma2)), rtol=1e-13, atol=0
            )
            # resid + msq cancels p^2 (up to 3600 sigma^2 here) to about sigma^2.
            np.testing.assert_allclose(
                resid[i] + msq[i], float(cond_mean_sq_residual_exact(pi, sigma2, msq[i])),
                rtol=1e-12, atol=0,
            )

    def test_mean_accuracy_above_moment_branch(self):
        """Just above t = -4 the moment forms still cancel; pin the error against 50 digits."""
        t = np.linspace(-4.0, -3.5, 2001)[1:]
        with mp.workdps(50):
            for s2 in (1.0, 2.5):
                p = t * np.sqrt(s2)
                _, got, _ = nm._em_parts(p, np.full_like(p, s2))
                for pi, gi in zip(p, got):
                    ref = cond_mean_norm_exact(pi, s2)
                    assert abs((mp.mpf(gi) - ref) / ref) < 2e-13, (pi, s2)

    def test_seams_continuous_and_finite(self):
        for seam in (-8.0, -4.0, 8.0):
            t = np.array([np.nextafter(seam, -np.inf), seam, np.nextafter(seam, np.inf)])
            parts = nm._em_parts(t, np.ones(3))
            for part in parts:
                assert np.all(np.isfinite(part))
                np.testing.assert_allclose(part, part[1], rtol=1e-12)


class TestEmPieces:
    """The pieces the EM passes evaluate apart give `_em_parts`'s bits on every branch."""

    @staticmethod
    def _grid(seed=0):
        # (B, K) = (40, 16) with t = p/sigma on all four branches: <= -8, (-8, -4], interior, >= 8.
        rng = np.random.default_rng(seed)
        t = rng.choice([-30.0, -9.0, -6.0, -4.0, -1.0, 0.0, 2.0, 7.9, 8.0, 12.0, 40.0], size=(40, 16))
        t = t * rng.uniform(0.9, 1.1, size=t.shape)
        sigma2 = rng.choice([0.01, 1.0, 0.37, 40.0], size=t.shape)
        return t * np.sqrt(sigma2), sigma2

    def test_pieces_match_em_parts(self):
        p, sigma2 = self._grid()
        sig = np.sqrt(sigma2)
        core = nm._em_core(p, sig)
        assert np.any(core.t >= 8.0) and core.neg.size
        log_term, mean, resid = nm._em_parts(p, sigma2)
        assert core.log_term.tobytes() == log_term.tobytes()
        assert nm._em_mean(p, sig, core).tobytes() == mean.tobytes()
        assert nm._em_resid(p * p, sigma2, core).tobytes() == resid.tobytes()

    def test_element_subset_matches_whole_evaluation(self):
        """What an element gets does not depend on which others are evaluated with it."""
        p, sigma2 = self._grid(2)
        log_term, mean, resid = nm._em_parts(p, sigma2)
        idx = (np.random.default_rng(3).random(p.size) < 0.4).nonzero()[0]
        ps, s2s = p.take(idx), sigma2.take(idx)
        sig = np.sqrt(s2s)
        core = nm._em_core(ps, sig)
        assert core.log_term.tobytes() == log_term.take(idx).tobytes()
        assert nm._em_resid(ps * ps, s2s, core).tobytes() == resid.take(idx).tobytes()
        assert nm._em_mean(ps, sig, core).tobytes() == mean.take(idx).tobytes()


_SIGMA2 = st.floats(1e-3, 1e3)


class TestCoreProperties:
    """Hypothesis properties of the Mills-ratio core over its whole range."""

    @given(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0))
    def test_log1p_mills_finite_and_increasing(self, a, b):
        lo, hi = nm.log1p_mills(np.array([min(a, b), max(a, b)]))
        assert np.isfinite(lo) and np.isfinite(hi)
        assert lo <= hi
        if abs(b - a) >= 1e-3:
            assert lo < hi

    @given(st.sampled_from([-8.0, -4.0, 8.0]), st.integers(1, 1000), _SIGMA2)
    def test_em_parts_continuous_across_seams(self, seam, ulps, sigma2):
        below = above = seam
        for _ in range(ulps):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        t = np.array([below, seam, above])
        parts = nm._em_parts(t * np.sqrt(sigma2), np.full(3, sigma2))
        for part in parts:
            assert np.all(np.isfinite(part))
            np.testing.assert_allclose(part, part[1], rtol=1e-12)

    @given(st.floats(37.0, 39.0), _SIGMA2)
    def test_em_parts_finite_across_overflow_edge(self, t, sigma2):
        """1/phi(t) overflows float64 near t = 37.7; every output stays finite."""
        p = np.array([t * np.sqrt(sigma2)])
        log_term, mean, resid = nm._em_parts(p, np.array([sigma2]))
        assert np.isfinite(log_term[0]) and np.isfinite(mean[0]) and np.isfinite(resid[0])
        assert mean[0] > p[0]

    @given(st.floats(-2.0, 2.5), st.floats(0.0, 2.0 * np.pi), st.floats(-2.0, 2.0))
    def test_residual_positive_for_consistent_inputs(self, log_norm_m, theta, log_sigma2):
        """p = z.m with unit z, so norm_m_sq >= p^2 and the residual stays positive."""
        norm_m = 10.0**log_norm_m
        r = nm.cond_mean_sq_residual(norm_m * np.cos(theta), 10.0**log_sigma2, norm_m**2)
        assert np.isfinite(r) and r > 0


class TestValidation:
    def test_sigma2_must_be_positive(self):
        for call in (
            lambda: nm.cond_mean_norm(1.0, -2.0),
            lambda: nm.cond_mean_sq_residual(1.0, 0.0, 1.0),
        ):
            with pytest.raises(ValueError):
                call()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            nm.log1p_mills(np.nan)
        with pytest.raises(ValueError):
            nm.cond_mean_norm(np.inf, 1.0)
        with pytest.raises(ValueError):
            nm.cond_mean_sq_residual(1.0, 1.0, np.nan)

    def test_negative_norm_m_sq_rejected(self):
        with pytest.raises(ValueError):
            nm.cond_mean_sq_residual(1.0, 1.0, -1.0)

    def test_scalar_in_float_out(self):
        """Scalars give floats and arrays keep their shape, as 0-d input runs on 1-d masks."""
        assert isinstance(nm.log1p_mills(0.3), float)
        assert isinstance(nm.cond_mean_norm(0.3, 1.0), float)
        assert isinstance(nm.cond_mean_sq_residual(0.3, 1.0, 1.0), float)
        for t in (-9.0, 9.0):
            assert nm.log1p_mills(t) == nm.log1p_mills(np.array([t]))[0]
        arr = nm.log1p_mills(np.array([0.1, 0.2]))
        assert isinstance(arr, np.ndarray) and arr.shape == (2,)
        grid = nm.cond_mean_norm(np.zeros((3, 1)), np.ones(4))
        assert grid.shape == (3, 4)
        assert nm.cond_mean_sq_residual(0.0, np.ones(2), np.ones((3, 1))).shape == (3, 2)
