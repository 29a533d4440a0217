"""platoonflow benchmark: one workload (or all of them), one JSON result.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload grid_short --seed 42 --seconds 40 --trace 0
  python3 perfbench/run.py --workload all --seed 42 --seconds 40 --trace 1

Every iteration is a fresh ``python3 perfbench/child.py`` process that
imports ``platoonflow.cli`` from ``src/`` and calls ``cli.main`` with the
workload's CLI calls, as a user running ``platoonflow`` would. With
``--trace 0`` iterations repeat until ``--seconds`` is spent and the end-
to-end metrics are medians over them. With ``--trace 1`` untraced and
traced iterations alternate, at least two of each; the per-layer metrics
come from the traced ones, whose work counts must repeat exactly. Outputs
of every iteration are checked against ``reference.json`` outside the
timed region. The last line of stdout is the JSON result; the lines before it
name every metric with its unit. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTS, layer_metrics
from workloads import WORKLOADS, Workload, check_outputs, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 5     # set-up-only processes per run, one after each of the first iterations
RUN_LIMIT_S = 165.0  # a run must end inside 180 s, so no child may outlive this
MIN_TRACED = 2       # traced iterations whose counts must agree

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "work_per_s": "1/s"}


class BenchError(RuntimeError):
    """The program could not be run or measured; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    # Enum members hash their names; a fixed string-hash salt makes dict costs repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(request: dict, deadline: float) -> dict:
    """Run one child process to completion, or kill its whole group at the deadline."""
    proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(request)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env(), start_new_session=True, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("iteration did not finish inside the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


class Run:
    """One benchmark run of one workload: iterations, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float, reference: dict):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.reference = reference
        self.start = time.monotonic()
        self.deadline = self.start + RUN_LIMIT_S
        self.outdir = OUT_ROOT / f"{workload.name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.setup_s: list[float] = []
        self.numpy = "?"
        self.iterations = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, argvs: list[list[str]], trace: bool = False) -> dict:
        res = run_child({"src": str(SRC), "argvs": argvs, "trace": trace}, self.deadline)
        self.setup_s.append(res["setup_s"])
        self.numpy = res["numpy"]
        return res

    def iterate(self, trace: bool = False, jobs: int | None = None) -> dict:
        """One child running the workload; its outputs are checked, then removed."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        argvs = [self.workload.argv(self.seed, self.outdir, jobs=jobs)]
        try:
            res = self.child(argvs, trace)
            check = check_outputs(self.workload, self.seed, self.outdir, self.reference)
        finally:
            shutil.rmtree(self.outdir, ignore_errors=True)
        self.attempted += check.attempted
        self.failed += check.failed
        if any(res["exit_codes"]):
            self.notes.append(f"cli.main exit codes {res['exit_codes']}")
        self.notes.extend(check.notes[:5])
        return res

    def untraced(self) -> dict[str, float]:
        iters: list[dict] = []
        while True:
            iters.append(self.iterate())
            if len(iters) <= SETUP_PROBES:
                self.child([])  # spread over the run, so host drift hits it as it hits wall_s
            per_iteration = self.elapsed() / len(iters)
            if self.elapsed() + per_iteration > self.seconds:
                break
        self.iterations = len(iters)
        wall = statistics.median(r["wall_s"] for r in iters)
        return {"wall_s": wall,
                "setup_s": statistics.median(self.setup_s),
                "cpu_s": statistics.median(r["cpu_s"] for r in iters),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in iters),
                "work_per_s": self.workload.work / wall}

    def traced(self) -> dict[str, tuple[float, str]]:
        plain = self.iterate() if self.workload.jobs > 1 else None
        # untraced and traced iterations alternate in ABBA order, so host drift
        # and any first-or-second effect cancel in the overhead
        serial, traced = [], []
        while True:
            for trace in (False, True) if len(traced) % 2 == 0 else (True, False):
                (traced if trace else serial).append(self.iterate(trace=trace, jobs=1))
            pair = serial[-1]["wall_s"] + traced[-1]["wall_s"]
            if len(traced) >= MIN_TRACED and self.elapsed() + pair > self.seconds:
                break
        plain = plain or serial[0]
        self.iterations = len(traced)
        per_iter = [layer_metrics(r["trace"]) for r in traced]
        out: dict[str, tuple[float, str]] = {}
        for name, (value, unit) in per_iter[0].items():
            if name in COUNTS:
                if any(m[name][0] != value for m in per_iter[1:]):
                    self.failed += 1
                    self.notes.append(f"count {name} differs between traced iterations: "
                                      f"{[m[name][0] for m in per_iter]}")
                out[name] = (value, unit)
            else:
                out[name] = (statistics.median(m[name][0] for m in per_iter), unit)
        self.attempted += 1  # the count-repeat check itself
        out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in serial), "s")
        out["experiments.parallel_efficiency"] = (
            plain["cpu_s"] / (self.workload.jobs * plain["wall_s"]), "ratio")
        return out


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop; run metadata, not a metric."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    workload = WORKLOADS[name]
    probe = host_probe()
    run = Run(workload, seed, seconds, reference)
    if trace:
        metrics = run.traced()
    else:
        values = run.untraced()
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    frac = run.failed / run.attempted if run.attempted else 1.0

    print(f"perfbench workload={name} seed={seed} trace={int(trace)} "
          f"iterations={run.iterations} set-up samples={len(run.setup_s)} "
          f"elapsed_s={run.elapsed():.1f}")
    print(f"  meta nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"python={platform.python_version()} numpy={run.numpy} "
          f"host_probe_s={probe:.4f}")
    for metric, (value, unit) in metrics.items():
        label = workload.work_metric if metric == "work_per_s" else metric
        print(f"  {label:<48} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':<48} {frac:>16.6g} ratio "
          f"({run.failed} of {run.attempted} rows, files and checks)")
    for note in run.notes[:20]:
        print(f"  FAILED: {note}")
    return {"correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "platoonflow" / "cli.py").is_file():
        print(f"perfbench: no platoonflow package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reference = load_reference()
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace), reference)
                   for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
