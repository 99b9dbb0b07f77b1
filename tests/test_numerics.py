"""Numeric kernel tests: frozen oracle values, properties, and stability."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate

from hetdet import numerics as nm

from oracles import (
    angular_density_exact,
    log1p_mills_exact,
    magnitude_moments,
    mills_exact,
)


class TestStdNormal:
    def test_frozen_point(self):
        """Values at t = 1 frozen from a 40-digit computation."""
        pdf, cdf = nm.std_normal(1.0)
        np.testing.assert_allclose(pdf, 0.24197072451914335, rtol=1e-14)
        np.testing.assert_allclose(cdf, 0.84134474606854295, rtol=1e-14)

    def test_symmetry_and_tails(self):
        half = np.linspace(0.0, 37.0, 1001)[1:]
        t = np.concatenate([-half[::-1], [0.0], half])
        pdf, cdf = nm.std_normal(t)
        np.testing.assert_allclose(pdf, pdf[::-1], rtol=1e-13)
        np.testing.assert_allclose(cdf + cdf[::-1], 1.0, atol=1e-15)
        assert np.all(np.diff(cdf) >= 0)
        # Strict growth holds until the cdf rounds to 1 near t = 8.1.
        inner = np.abs(t) <= 8.0
        assert np.all(np.diff(cdf[inner]) > 0)

    def test_tail_relative_accuracy(self):
        for t in (-5.0, -12.0, -30.0, -37.0):
            _, cdf = nm.std_normal(t)
            exact = float(mills_exact(t) / t * np.exp(-t * t / 2) / np.sqrt(2 * np.pi))
            np.testing.assert_allclose(cdf, exact, rtol=5e-13)


class TestMillsTerm:
    def test_zero(self):
        assert nm.mills_term(0.0) == 0.0

    def test_frozen_deep_negative(self):
        """t = -30 sits on the continued-fraction branch; oracle frozen."""
        v = nm.mills_term(-30.0)
        np.testing.assert_allclose(v, -0.9988925721749164, rtol=1e-13)
        assert -1.0 < v < -0.998

    def test_against_oracle_grid(self):
        for t in (-500.0, -100.0, -8.5, -5.0, -1.0, 0.5, 5.0, 20.0, 37.0):
            np.testing.assert_allclose(
                nm.mills_term(t), float(mills_exact(t)), rtol=1e-12
            )

    def test_limits(self):
        t = np.array([-1e4, -500.0, -100.0])
        v = nm.mills_term(t)
        assert np.all(v > -1.0)
        np.testing.assert_allclose(v, -1.0 + 1.0 / t**2, rtol=1e-3)

    def test_branch_seams(self):
        for seam in (-8.0, 8.0):
            below = nm.mills_term(np.nextafter(seam, -np.inf))
            above = nm.mills_term(np.nextafter(seam, np.inf))
            np.testing.assert_allclose(below, above, rtol=1e-12)

    def test_saturates_beyond_float_range(self):
        assert np.isinf(nm.mills_term(39.0))


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

    def test_against_oracle_grid(self):
        for t in (-200.0, -8.5, -7.9, -2.0, 0.0, 3.0, 7.9, 8.5, 100.0, 500.0):
            np.testing.assert_allclose(
                nm.log1p_mills(t), float(log1p_mills_exact(t)), rtol=1e-12
            )

    def test_finite_over_extended_range(self):
        t = np.linspace(-500.0, 500.0, 200001)
        v = nm.log1p_mills(t)
        assert np.all(np.isfinite(v))
        assert np.all(np.diff(v) > 0)


class TestXi:
    def test_frozen_deep_negative(self):
        np.testing.assert_allclose(nm.xi(-40.0, 1.0), -7.3796298234152875, rtol=1e-13)

    def test_against_quadrature(self):
        for p, s2 in ((0.3, 1.0), (-3.0, 2.0), (6.0, 0.5), (-15.0, 4.0)):
            xi_ref, _, _, _, _ = magnitude_moments(p, s2)
            np.testing.assert_allclose(nm.xi(p, s2), float(xi_ref), rtol=1e-10)

    def test_log_sigma2_shift(self):
        """Scaling both p and sigma shifts xi by exactly log of the variance ratio."""
        p = np.array([-4.0, -0.5, 0.0, 2.5])
        base = nm.xi(p, 1.0)
        shifted = nm.xi(3.0 * p, 9.0)
        np.testing.assert_allclose(shifted - base, np.log(9.0), rtol=1e-12)

    def test_finite_over_extended_range(self):
        p = np.linspace(-500.0, 500.0, 10001)
        assert np.all(np.isfinite(nm.xi(p, 1.0)))


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
            _, mean_ref, _, _, _ = magnitude_moments(p, s2)
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
            _, _, r_ref, _, _ = magnitude_moments(p, s2, msq)
            np.testing.assert_allclose(
                nm.cond_mean_sq_residual(p, s2, msq), float(r_ref), rtol=1e-10
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


class TestXiDerivatives:
    def test_first_matches_mean_over_sigma2(self):
        p = np.linspace(-50.0, 50.0, 101)
        d1, _ = nm.xi_derivatives(p, 2.5)
        np.testing.assert_allclose(d1, nm.cond_mean_norm(p, 2.5) / 2.5, rtol=1e-12)

    def test_against_quadrature(self):
        for p, s2 in ((0.7, 1.0), (-4.0, 0.5), (9.0, 2.0), (-14.0, 1.0)):
            _, _, _, xi1_ref, xi2_ref = magnitude_moments(p, s2)
            d1, d2 = nm.xi_derivatives(p, s2)
            np.testing.assert_allclose(d1, float(xi1_ref), rtol=1e-10)
            np.testing.assert_allclose(d2, float(xi2_ref), rtol=1e-9)

    def test_finite_differences(self):
        """Steps sized so truncation and float cancellation both stay small."""
        for p in (-6.0, -0.3, 0.0, 2.0, 5.5):
            h1, h2 = 1e-5, 1e-3
            fd1 = (nm.xi(p + h1, 1.3) - nm.xi(p - h1, 1.3)) / (2 * h1)
            fd2 = (nm.xi(p + h2, 1.3) - 2 * nm.xi(p, 1.3) + nm.xi(p - h2, 1.3)) / h2**2
            d1, d2 = nm.xi_derivatives(p, 1.3)
            np.testing.assert_allclose(d1, fd1, rtol=1e-8)
            np.testing.assert_allclose(d2, fd2, rtol=1e-5)

    def test_strict_convexity_at_random_points(self):
        """Second derivative positive at 1e4 random points over wide scales."""
        rng = np.random.default_rng(42)
        p = rng.uniform(-500.0, 500.0, 10000)
        s2 = 10.0 ** rng.uniform(-2.0, 2.0, 10000)
        _, d2 = nm.xi_derivatives(p, s2)
        assert np.all(np.isfinite(d2))
        assert np.all(d2 > 0)

    def test_frozen_second_derivative(self):
        _, d2 = nm.xi_derivatives(0.0, 1.0)
        np.testing.assert_allclose(d2, 2.0 - np.pi / 2.0, rtol=1e-13)
        _, d2 = nm.xi_derivatives(-40.0, 1.0)
        np.testing.assert_allclose(d2, 0.001243019581625899, rtol=1e-12)


class TestGaussianPdf:
    def test_peak_value(self):
        assert nm.gaussian_pdf([0.3, -0.4], [0.3, -0.4], 1.0) == 1.0 / (2.0 * np.pi)

    def test_normalizes(self):
        val, err = integrate.dblquad(
            lambda y, x: nm.gaussian_pdf([x, y], [0.7, -1.2], 2.0),
            -15.0, 15.0, -15.0, 15.0, epsabs=1e-10,
        )
        np.testing.assert_allclose(val, 1.0, atol=1e-8)
        assert err < 1e-8

    def test_batched_rows(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((64, 2))
        vals = nm.gaussian_pdf(x, np.array([0.0, 0.0]), 1.5)
        single = np.array([nm.gaussian_pdf(row, [0.0, 0.0], 1.5) for row in x])
        np.testing.assert_allclose(vals, single, rtol=1e-15)


class TestAngularPdfH1:
    def test_uniform_when_mean_absent(self):
        z = np.array([[1.0, 0.0], [0.0, -1.0]])
        vals = nm.angular_pdf_h1(z, [0.0, 0.0], 3.0)
        assert np.all(vals == 1.0 / (2.0 * np.pi))

    def test_normalizes_on_circle(self):
        for m, s2 in (([1.5, -0.5], 1.0), ([4.0, 3.0], 0.5)):
            val, err = integrate.quad(
                lambda th: nm.angular_pdf_h1([np.cos(th), np.sin(th)], m, s2),
                0.0, 2.0 * np.pi, epsabs=1e-12, limit=200,
            )
            np.testing.assert_allclose(val, 1.0, atol=1e-10)

    def test_matches_magnitude_marginalization(self):
        """Defining relation: integrate the joint density over the magnitude."""
        m = [1.2, -0.8]
        for theta in (0.1, 1.0, 2.5, 4.0):
            ref = float(angular_density_exact(theta, m[0], m[1], 1.7))
            got = nm.angular_pdf_h1([np.cos(theta), np.sin(theta)], m, 1.7)
            np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_extreme_mean_stays_finite_positive(self):
        """Positive wherever the true value is representable in float64."""
        m = [35.0, 0.0]
        for z in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]):
            v = nm.angular_pdf_h1(z, m, 1.0)
            assert np.isfinite(v) and v > 0
        # At 80 sigma the opposing direction genuinely underflows; no NaN/Inf.
        vals = nm.angular_pdf_h1(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), [80.0, 0.0], 1.0
        )
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0) and vals[0] > 0


def _em_grid():
    """Dense t grid over [-60, 60] with both neighbours of every branch seam
    and points across the 1/phi overflow edge near t = 38."""
    seams = np.array([-8.0, -4.0, 8.0])
    return np.unique(np.concatenate([
        np.linspace(-60.0, 60.0, 24001),
        seams, np.nextafter(seams, -np.inf), np.nextafter(seams, np.inf),
        np.linspace(37.0, 39.0, 401),
    ]))


class TestEmParts:
    """The unchecked EM kernel against the checked public kernels."""

    @pytest.mark.parametrize("sigma2", [1.0, 0.37, 2.5, 40.0])
    def test_matches_public_kernels(self, sigma2):
        t = _em_grid()
        s2 = np.full_like(t, sigma2)
        p = t * np.sqrt(sigma2)
        msq = p * p + 0.5 * sigma2
        log_term, mean, resid = nm._em_parts(p, s2)
        np.testing.assert_array_equal(log_term, nm.log1p_mills(p / np.sqrt(s2)))
        np.testing.assert_allclose(mean, nm.cond_mean_norm(p, s2), rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            resid + msq, nm.cond_mean_sq_residual(p, s2, msq), rtol=1e-12, atol=0
        )

    def test_seams_continuous_and_finite(self):
        for seam in (-8.0, -4.0, 8.0):
            t = np.array([np.nextafter(seam, -np.inf), seam, np.nextafter(seam, np.inf)])
            parts = nm._em_parts(t, np.ones(3))
            for part in parts:
                assert np.all(np.isfinite(part))
                np.testing.assert_allclose(part, part[1], rtol=1e-12)


class TestValidation:
    def test_sigma2_must_be_positive(self):
        for call in (
            lambda: nm.xi(1.0, 0.0),
            lambda: nm.cond_mean_norm(1.0, -2.0),
            lambda: nm.cond_mean_sq_residual(1.0, 0.0, 1.0),
            lambda: nm.xi_derivatives(1.0, -1.0),
            lambda: nm.gaussian_pdf([1.0, 0.0], [0.0, 0.0], 0.0),
            lambda: nm.angular_pdf_h1([1.0, 0.0], [1.0, 0.0], -3.0),
        ):
            with pytest.raises(ValueError):
                call()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            nm.mills_term(np.nan)
        with pytest.raises(ValueError):
            nm.xi(np.inf, 1.0)
        with pytest.raises(ValueError):
            nm.gaussian_pdf([np.nan, 0.0], [0.0, 0.0], 1.0)

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            nm.angular_pdf_h1([2.0, 0.0], [1.0, 0.0], 1.0)

    def test_scalar_in_float_out(self):
        assert isinstance(nm.mills_term(0.3), float)
        assert isinstance(nm.xi(0.3, 1.0), float)
        d1, d2 = nm.xi_derivatives(0.3, 1.0)
        assert isinstance(d1, float) and isinstance(d2, float)
        arr = nm.mills_term(np.array([0.1, 0.2]))
        assert isinstance(arr, np.ndarray)
