"""Benchmark of the hetdet CLI: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload pd-adaptive --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the repository root is the parent of this directory, and
the program is imported from its `src/`.  With --trace 0 the workload's CLI
run is repeated as a subprocess for --seconds and the end-to-end metrics of
BENCHMARK.json are reported.  With --trace 1 one untraced and one traced
in-process run at workers=1 give the per-layer metrics, and CLI runs fill the
rest of --seconds.  Every CSV artifact is checked; a run that exits nonzero,
times out or fails the check counts as failed.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A result file with provenance is written under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import metrics
from workloads import RECORDING_BINS, RECORDING_PULSES, WORKLOADS, check_artifact, sha256_file

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_LAUNCHES = 4
RUN_LIMIT_S = 170.0
EXPECTED_SHA_SEED = 0
_SETUP_CODE = (
    "import sys\nimport hetdet.cli\nhetdet.cli.parse_config(sys.argv[1:])\nprint('ready', flush=True)\n"
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _spec():
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _provenance(seed: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hetdet").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def _relative(argv) -> list[str]:
    prefix = str(ROOT) + os.sep
    return [a.replace(prefix, "") for a in argv]


class Runner:
    """Starts and reaps the CLI subprocesses of one benchmark invocation."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = _child_env()

    def setup_seconds(self, argv) -> float:
        """Launch to resolved config: a fresh interpreter imports hetdet and parses argv."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CODE, *argv], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            rc = proc.wait(timeout=60)
        if rc != 0 or line.strip() != b"ready":
            raise BenchError(f"hetdet did not start from {ROOT / 'src'} (exit {rc})")
        return elapsed

    def cli(self, argv, log_name: str) -> dict:
        """One CLI run: wall time, CPU and peak RSS of it and its pool workers."""
        timeout = max(5.0, self.deadline - time.monotonic())
        with open(self.work / log_name, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "hetdet.cli", *argv], cwd=ROOT, env=self.env,
                stdout=subprocess.DEVNULL, stderr=log, start_new_session=True,
            )
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # pool workers left behind by a crashed run
        return {
            "rc": proc.returncode,
            "timed_out": proc.returncode != 0 and time.monotonic() >= self.deadline,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024.0,
        }


def _kill_group(pgid: int):
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


class Invocation:
    """One workload at one seed: inputs, runs, checks and the result."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, spec: dict):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.spec = spec
        self.started = time.monotonic()
        self.work = ROOT / ".perfbench" / "work" / f"{name}-{seed}-{os.getpid()}"
        self.results = ROOT / ".perfbench" / "results"
        self.runner = Runner(self.work, self.started + RUN_LIMIT_S)
        self.ops = []
        self.failures = []
        self.artifact_sha = None
        self.recorded = None
        self.span_table = None
        expected = json.loads((BENCH_DIR / "expected_sha256.json").read_text())
        self.expected_sha = expected[name] if seed == EXPECTED_SHA_SEED else None

    def argv(self, out: str, workers=None) -> list[str]:
        return self.workload.argv(str(self.work / out), self.seed, self.recorded, workers)

    def prepare(self):
        if not (ROOT / "src" / "hetdet" / "cli.py").is_file():
            raise BenchError(f"no hetdet sources under {ROOT / 'src'}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.results.mkdir(parents=True, exist_ok=True)
        if self.workload.recorded:
            self.recorded = str(self.work / "recording.csv")
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "recording.py"), str(self.seed),
                 str(RECORDING_BINS), str(RECORDING_PULSES), self.recorded],
                check=True, timeout=120,
            )

    def check(self, label: str, path: Path) -> bool:
        """Artifact check; every artifact of one invocation must be byte-identical."""
        problem = check_artifact(self.workload, path)
        if problem is None:
            sha = sha256_file(path)
            if self.expected_sha is not None and sha != self.expected_sha:
                problem = f"sha256 {sha} differs from the recorded {self.expected_sha}"
            elif self.artifact_sha is not None and sha != self.artifact_sha:
                problem = f"sha256 {sha} differs from this invocation's first artifact"
            self.artifact_sha = self.artifact_sha or sha
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
        return problem is None

    def cli_op(self) -> dict:
        index = len(self.ops)
        out = self.work / f"op{index}.csv"
        op = self.runner.cli(self.argv(out.name), f"op{index}.log")
        if op["rc"] != 0:
            reason = "timed out" if op["timed_out"] else f"exit {op['rc']}"
            self.failures.append(f"op {index}: {reason}")
            op["ok"] = False
        else:
            op["ok"] = self.check(f"op {index}", out)
        self.ops.append(op)
        return op

    def cli_ops(self, budget_s: float):
        """At least one CLI run, then more while the next would end near budget_s."""
        start = time.monotonic()
        runs = 0
        while True:
            self.cli_op()
            runs += 1
            spent = time.monotonic() - start
            if spent + 0.5 * spent / runs >= budget_s:
                return

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def end_to_end(self) -> dict:
        argv = self.argv("setup.csv")
        self.runner.setup_seconds(argv)  # fills the bytecode cache; not a sample
        setups = [self.runner.setup_seconds(argv) for _ in range(SETUP_LAUNCHES)]
        self.cli_ops(self.seconds)
        good = [op for op in self.ops if op["ok"]]
        if not good:
            raise BenchError("every CLI run failed: " + "; ".join(self.failures))
        bursts = self.workload.bursts()
        return {
            "bursts_per_s": [bursts / op["wall_s"] for op in good],
            "cpu_us_per_burst": [1e6 * op["cpu_s"] / bursts for op in good],
            "setup_s": setups,
            "peak_rss_mib": [op["rss_mib"] for op in good],
        }

    def per_layer(self) -> dict:
        from tracer import Tracer  # numpy; kept out of untraced invocations

        cli = _import_hetdet()
        modules = {name: sys.modules[name] for name in sys.modules if name.startswith("hetdet")}
        untraced_s = self._inprocess(cli, "inproc.csv", None)
        run_id = f"{self.workload.name}-{self.seed}-{os.getpid()}"
        with Tracer(run_id, modules) as tracer:
            self._inprocess(cli, "traced.csv", tracer)
        tracer.write(self.results / f"{self.workload.name}-seed{self.seed}-spans.jsonl")
        self.cli_ops(self.seconds - self.elapsed())
        good = [op for op in self.ops if op["ok"] and not op.get("in_process")]
        if not good:
            raise BenchError("every CLI run failed: " + "; ".join(self.failures))
        wall = metrics.quartiles([op["wall_s"] for op in good])[1]
        self.span_table = metrics.span_table(tracer.spans)
        values = metrics.layer_metrics(tracer.spans, self.workload.workers, wall, untraced_s)
        return {name: [value] for name, value in values.items()}

    def _inprocess(self, cli, out: str, tracer) -> float:
        """One in-process run at workers=1; returns its wall time."""
        argv = self.argv(out, workers=1)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            config = cli.parse_config(argv)
            start = time.perf_counter()
            if tracer is None:
                rc = cli.run(config)
            else:
                with tracer.span("cli.run"):
                    rc = cli.run(config)
            wall = time.perf_counter() - start
        self.ops.append({"rc": rc, "wall_s": wall, "in_process": True, "traced": tracer is not None})
        label = "traced run" if tracer is not None else "in-process run"
        self.ops[-1]["ok"] = rc == 0 and self.check(label, self.work / out)
        if rc != 0:
            self.failures.append(f"{label}: exit {rc}")
        return wall

    def execute(self) -> dict:
        self.prepare()
        try:
            samples = self.per_layer() if self.trace else self.end_to_end()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        key = "per_layer" if self.trace else "end_to_end"
        table = {}
        for metric in self.spec[key]:
            stats = metrics.summary(samples[metric["name"]], metric["better"])
            table[metric["name"]] = {"unit": metric["unit"], "better": metric["better"], **stats}
        attempted = len(self.ops)
        failed = sum(1 for op in self.ops if not op["ok"])
        result = {
            "workload": self.workload.name,
            "trace": int(self.trace),
            "seconds": self.seconds,
            "argv": _relative(self.argv("out.csv")),
            "traced_argv": _relative(self.argv("out.csv", workers=1)) if self.trace else None,
            "provenance": _provenance(self.seed),
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "failures": self.failures,
            "artifact_sha256": self.artifact_sha,
            "ops": self.ops,
            "metrics": table,
            "spans": self.span_table,
            "elapsed_s": self.elapsed(),
        }
        path = self.results / f"{self.workload.name}-seed{self.seed}-trace{int(self.trace)}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        return result


def _import_hetdet():
    sys.path.insert(0, str(ROOT / "src"))
    import hetdet.cli

    source = Path(hetdet.cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise BenchError(f"imported hetdet from {source}, not from {ROOT / 'src'}")
    return hetdet.cli


def _print_table(result: dict):
    print(
        f"{result['workload']}  trace {result['trace']}  seed {result['provenance']['seed']}: "
        f"{result['attempted']} runs, {result['failed']} failed "
        f"(failed_frac {result['failed_frac']:.3g})"
    )
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"  {'metric':36} {'unit':11} {'median':>12} {'q1':>12} {'q3':>12} {'tail':>12} {'n':>4}")
    for name, m in result["metrics"].items():
        tail = "-" if m["tail"] is None else f"{m['tail']:.6g}@p{m['tail_percentile']:.0f}"
        print(
            f"  {name:36} {m['unit']:11} {m['median']:12.6g} {m['q1']:12.6g} "
            f"{m['q3']:12.6g} {tail:>12} {m['samples']:4d}"
        )


def _line(results) -> dict:
    prefix = len(results) > 1
    out = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for r in results:
        for name, m in r["metrics"].items():
            key = f"{r['workload']}.{name}" if prefix else name
            out["metrics"][key] = {"value": m["median"], "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=EXPECTED_SHA_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default 0; both with 'all'")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        spec = _spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload == "all":
            traces = [args.trace] if args.trace is not None else [0, 1]
            plan = [(name, t) for t in traces for name in WORKLOADS]
        else:
            plan = [(args.workload, args.trace or 0)]
        results = []
        for name, trace in plan:
            result = Invocation(name, args.seed, seconds, bool(trace), spec).execute()
            _print_table(result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
