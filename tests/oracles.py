"""Reference values computed independently of the package, mostly in extended precision.

Everything here goes through mpmath quadrature, mpmath's own normal
functions, or scipy quadrature of a closed-form characteristic function,
never through the code under test, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
from scipy import integrate

mp.mp.dps = 40


def _phi(t):
    return mp.e ** (-t * t / 2) / mp.sqrt(2 * mp.pi)


def magnitude_moments(p, sigma2, norm_m_sq=0.0):
    """Quadrature moments of the magnitude-given-direction density.

    The density of a magnitude b given its direction is proportional to
    b*exp((2*b*p - b^2)/(2*sigma2)) on b >= 0.  Returns (xi, mean,
    mean_sq_residual) where xi = log of the unnormalized mass and
    mean_sq_residual = E[b^2] - 2*p*E[b] + norm_m_sq.
    """
    p = mp.mpf(p)
    s2 = mp.mpf(sigma2)
    msq = mp.mpf(norm_m_sq)
    sig = mp.sqrt(s2)
    peak = (p + mp.sqrt(p * p + 4 * s2)) / 2
    pts = [0, peak / 2, peak, peak + 4 * sig, peak + 12 * sig, mp.inf]
    w = lambda b: b * mp.e ** ((2 * b * p - b * b) / (2 * s2))
    z = mp.quad(w, pts)
    m1 = mp.quad(lambda b: b * w(b), pts) / z
    m2 = mp.quad(lambda b: b * b * w(b), pts) / z
    return mp.log(z), m1, m2 - 2 * p * m1 + msq


def mills_exact(t):
    """t*Phi(t)/phi(t) through mpmath's normal cdf."""
    t = mp.mpf(t)
    return t * mp.ncdf(t) / _phi(t)


def cond_mean_norm_exact(p, sigma2):
    """p + sigma2*Phi(t)/(sigma*phi(t) + p*Phi(t)) at t = p/sigma, in mpmath."""
    p = mp.mpf(p)
    s2 = mp.mpf(sigma2)
    sig = mp.sqrt(s2)
    cdf = mp.ncdf(p / sig)
    return p + s2 * cdf / (sig * _phi(p / sig) + p * cdf)


def cond_mean_sq_residual_exact(p, sigma2, norm_m_sq):
    """sigma2*(1 + A) - p^2 + norm_m_sq at t = p/sigma, in mpmath.

    A = sigma*phi/(sigma*phi + p*Phi), and E[(b - p)^2] = sigma2*(1 + A) for
    the magnitude b given its direction, so this is E[b^2] - 2*p*E[b] +
    norm_m_sq (see magnitude_moments).
    """
    p = mp.mpf(p)
    s2 = mp.mpf(sigma2)
    sig = mp.sqrt(s2)
    pdf = _phi(p / sig)
    a = sig * pdf / (sig * pdf + p * mp.ncdf(p / sig))
    return s2 * (1 + a) - p * p + mp.mpf(norm_m_sq)


def log1p_mills_exact(t):
    return mp.log(1 + mills_exact(t))


def angular_density_exact(theta, m1, m2, sigma2):
    """Direction density at angle theta by quadrature over the magnitude."""
    s2 = mp.mpf(sigma2)
    z1, z2 = mp.cos(mp.mpf(theta)), mp.sin(mp.mpf(theta))
    f = lambda b: (
        b
        / (2 * mp.pi * s2)
        * mp.e ** (-((b * z1 - m1) ** 2 + (b * z2 - m2) ** 2) / (2 * s2))
    )
    return mp.quad(f, [0, mp.inf])


_U_NODES, _U_WEIGHTS = np.polynomial.legendre.leggauss(128)


def energy_detector_sf(threshold, norm_m_sq, k, delta, sigma_n2=1.0):
    """P(energy > threshold) for K pulses under uniform heterogeneity.

    Each pulse has per-axis variance s = sigma_n2 + delta*U with U uniform on
    [0, 1], independently across pulses, plus a common mean of squared norm
    norm_m_sq (0 under the null).  Given s, a pulse's squared magnitude is
    s times a noncentral chi-square with two degrees of freedom and
    noncentrality norm_m_sq/s, whose characteristic function is
    exp(i*norm_m_sq*t/(1 - 2ist)) / (1 - 2ist).  Averaging over U by
    Gauss-Legendre quadrature and raising to the K-th power gives the
    characteristic function of the energy, which Gil-Pelaez inversion turns
    into the tail probability.
    """
    s = sigma_n2 + delta * (_U_NODES + 1.0) / 2.0
    w = _U_WEIGHTS / 2.0

    def cf(t):
        d = 1.0 - 2j * s * t
        return np.dot(w, np.exp(1j * norm_m_sq * t / d) / d) ** k

    # |cf(t)| <= (mean |1 - 2ist|^-1)^K, which falls monotonically; truncate
    # the inversion integral once that bound is negligible.
    upper = 1.0 / sigma_n2
    while np.dot(w, np.abs(1.0 / (1.0 - 2j * s * upper))) ** k > 1e-18:
        upper *= 2.0
    val, _ = integrate.quad(
        lambda t: (np.exp(-1j * t * threshold) * cf(t)).imag / t,
        0.0, upper, limit=2000, epsabs=1e-13, epsrel=1e-12,
    )
    return 0.5 + val / np.pi


def coherent_detector_sf(threshold, k, sigma_n2=1.0):
    """P(|sum of K pulses|^2 > threshold) under white noise of per-axis variance sigma_n2.

    Each axis of the pulse sum is normal with variance K*sigma_n2, so the
    power over K*sigma_n2 is chi-square with two degrees of freedom, whose
    tail is exp(-t/2).
    """
    return float(np.exp(-threshold / (2.0 * k * sigma_n2)))


def cell_averaged_sf(threshold, k):
    """P(|sum of K pulses|^2 / sum of |pulse|^2 > threshold) under white noise of any power.

    The ratio is K times the squared norm of the projection of a 2K-dim
    white Gaussian vector's direction onto the 2-dim span of the pulse sum,
    and that squared norm is Beta(1, K - 1), whose tail is (1 - u)^(K - 1).
    """
    return float(np.clip(1.0 - threshold / k, 0.0, 1.0) ** (k - 1))
