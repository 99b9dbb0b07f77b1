"""The benchmark's CLI workloads and the check of their CSV artifacts.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written up in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

CSV_HEADER = "detector,abscissa,estimate,ci_low,ci_high,trials"
RECORDING_BINS = 32
RECORDING_PULSES = 4096


@dataclass(frozen=True)
class Workload:
    """One fixed hetdet CLI invocation; only the seed and file paths vary."""

    name: str
    command: str
    detectors: tuple
    flags: tuple
    grid: tuple
    trials: int
    cal_trials: int
    workers: int
    recorded: bool = False
    k: int = 16
    stride: int = 1

    @property
    def windows_per_bin(self) -> int:
        return (RECORDING_PULSES - self.k) // self.stride + 1

    def argv(self, out: str, seed: int, recorded_path: str | None = None,
             workers: int | None = None) -> list[str]:
        """The CLI arguments after `hetdet`."""
        argv = [self.command, "--detectors", ",".join(self.detectors), *self.flags,
                "--seed", str(seed), "--cal-trials", str(self.cal_trials),
                "--workers", str(self.workers if workers is None else workers), "--out", out]
        if self.recorded:
            argv += ["--recorded", recorded_path, "--stride", str(self.stride)]
        else:
            argv += ["--trials", str(self.trials)]
        return argv

    def bursts(self) -> int:
        """Bursts scored by one run: calibration, evaluation and recorded windows."""
        if self.recorded:
            return self.cal_trials + len(self.grid) * self.windows_per_bin
        return self.cal_trials + len(self.grid) * self.trials

    def expected_rows(self) -> list[tuple[str, float, int]]:
        """(detector, abscissa, trials) of every artifact row, in file order."""
        trials = self.windows_per_bin if self.recorded else self.trials
        return [(d, float(x), trials) for d in self.detectors for x in self.grid]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pd-adaptive",
            command="pd-curve",
            detectors=("agd", "gd-he", "c-agd", "c-gd-he", "ed"),
            flags=("--k", "16", "--delta", "10", "--snr-grid", "6,9,12", "--pfa", "0.05"),
            grid=(6.0, 9.0, 12.0),
            trials=2048,
            cal_trials=2048,
            workers=2,
        ),
        Workload(
            name="cfar-cheap",
            command="cfar-sweep",
            detectors=("gd-he", "c-agd", "ed", "chd", "ca-chd"),
            flags=("--delta-grid", "0,1,10,50", "--pfa", "0.01"),
            grid=(0.0, 1.0, 10.0, 50.0),
            trials=40960,
            cal_trials=40960,
            workers=2,
        ),
        Workload(
            name="recorded-sweep",
            command="cfar-sweep",
            detectors=("gd-he", "c-agd", "ed", "ca-chd"),
            flags=("--pfa", "0.01"),
            grid=tuple(range(RECORDING_BINS)),
            trials=0,
            cal_trials=10000,
            workers=1,
            recorded=True,
        ),
    )
}


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_artifact(workload: Workload, path) -> str | None:
    """Why the CSV artifact is wrong for the workload, or None if it is right."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return f"cannot read artifact: {exc}"
    if not lines or lines[0] != CSV_HEADER:
        return "wrong CSV header"
    rows = lines[1:]
    expected = workload.expected_rows()
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for lineno, (line, (detector, abscissa, trials)) in enumerate(zip(rows, expected), start=2):
        fields = line.split(",")
        if len(fields) != 6:
            return f"line {lineno}: {len(fields)} fields"
        try:
            estimate, low, high = (float(v) for v in fields[2:5])
            row = (fields[0], float(fields[1]), int(fields[5]))
        except ValueError:
            return f"line {lineno}: unparsable field"
        if row != (detector, abscissa, trials):
            return f"line {lineno}: {row} where {(detector, abscissa, trials)} was expected"
        if not all(math.isfinite(v) for v in (estimate, low, high)):
            return f"line {lineno}: non-finite estimate or interval"
        if not low <= estimate <= high:
            return f"line {lineno}: estimate {estimate} outside [{low}, {high}]"
    return None
