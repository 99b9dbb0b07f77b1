"""Seeded compound-Gaussian recording for the recorded-sweep workload.

Each range bin is Gaussian speckle scaled by a unit-mean Gamma texture that
varies slowly along the pulses: a stationary AR(1) Gaussian process with a
correlation length of CORR_PULSES pulses is mapped through the Gaussian CDF
and the Gamma quantile function, so every pulse's texture is exactly
Gamma(SHAPE, 1/SHAPE) while neighbouring pulses see nearly the same power.

    python3 perfbench/recording.py SEED N_BINS N_PULSES OUT.csv

The benchmark runs it as a subprocess, so that numpy and scipy never load
into the process whose children's peak memory it measures.
"""

from __future__ import annotations

import sys

import numpy as np
from scipy import signal, special, stats

SHAPE = 1.0
CORR_PULSES = 256
_BURN_IN = 8 * CORR_PULSES
_STREAM = 0x5EC0  # keeps the recording's stream apart from the CLI's seeds


def generate(seed: int, n_bins: int, n_pulses: int) -> np.ndarray:
    """(n_bins, n_pulses) complex samples drawn from `seed` alone."""
    rng = np.random.default_rng([seed, _STREAM])
    rho = np.exp(-1.0 / CORR_PULSES)
    innovations = rng.standard_normal((n_bins, _BURN_IN + n_pulses))
    ar = signal.lfilter([np.sqrt(1.0 - rho * rho)], [1.0, -rho], innovations, axis=1)
    texture = stats.gamma.ppf(special.ndtr(ar[:, _BURN_IN:]), SHAPE, scale=1.0 / SHAPE)
    speckle = rng.standard_normal((n_bins, n_pulses, 2))
    cells = np.sqrt(texture) * (speckle[..., 0] + 1j * speckle[..., 1])
    # The CLI aborts a whole sweep on one zero-magnitude cell; such a cell
    # would be a defect of this generator, not a property of the workload.
    if not np.all(np.abs(cells) > 0.0):
        raise RuntimeError("generated recording holds a zero-magnitude cell")
    return cells


def write_csv(path, cells: np.ndarray) -> None:
    """Write cells as a `bin_index,pulse_index,re,im` series.

    Values go through Python floats, whose repr is the shortest round-trip
    form; the repr of a numpy float64 does not parse as a number.
    """
    lines = ["bin_index,pulse_index,re,im"]
    for b, row in enumerate(cells):
        for p, (re, im) in enumerate(zip(row.real.tolist(), row.imag.tolist())):
            lines.append(f"{b},{p},{re!r},{im!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    seed, n_bins, n_pulses = (int(v) for v in sys.argv[1:4])
    write_csv(sys.argv[4], generate(seed, n_bins, n_pulses))
