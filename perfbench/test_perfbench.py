"""Tests of the benchmark itself (not collected by the package's suite).

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from run import OUT_ROOT, ROOT, SRC, Run, run_child
from tracer import COUNTS, layer_metrics, p99
from workloads import WORKLOADS, Workload, check_outputs, load_reference

# every controller law (p < 1 leaves human drivers; combos 1, 4, 7, 8 cover
# CTG, BS, VTG1 + CS and VTG2), the trajectory writers, and verify-prob
TINY = Workload("tiny", "sweep", (15.0,), (0.8,), (1, 4, 7, 8), duration=20.0, warmup=10.0,
                extra=("--save-trajectories", "--record-every", "5"))
TINY_PROB = ["verify-prob", "--runs", "3", "--p-start", "0.2", "--p-stop", "0.8",
             "--p-step", "0.2", "--seed", "5"]


def _run(outdir: Path, trace: bool) -> tuple[dict, dict[str, bytes]]:
    shutil.rmtree(outdir, ignore_errors=True)
    argvs = [TINY.argv(3, outdir / "sweep"), TINY_PROB + ["--outdir", str(outdir / "prob")]]
    res = run_child({"src": str(SRC), "argvs": argvs, "trace": trace},
                    time.monotonic() + 120.0)
    files = {str(p.relative_to(outdir)): p.read_bytes()
             for p in sorted(outdir.rglob("*")) if p.is_file()}
    shutil.rmtree(outdir, ignore_errors=True)
    return res, files


@pytest.fixture(scope="module")
def tiny_runs():
    base = OUT_ROOT / "test-tiny"
    plain = _run(base / "plain", trace=False)
    traced = [_run(base / f"traced{i}", trace=True) for i in range(2)]
    return plain, traced


def test_counts_repeat_exactly_and_are_nonzero(tiny_runs):
    _, traced = tiny_runs
    first, second = (layer_metrics(res["trace"]) for res, _ in traced)
    for name in COUNTS:
        assert first[name][0] == second[name][0], name
        # no vehicle overlaps in these cells, so only violations may stay 0
        assert first[name][0] > 0 or name == "ring.violations", f"{name} never counted"


def test_counts_match_the_inputs(tiny_runs):
    _, traced = tiny_runs
    m = layer_metrics(traced[0][0]["trace"])
    assert m["ring.steps"][0] == 4 * TINY.steps
    assert m["ring.vehicle_steps"][0] == TINY.work
    assert m["experiments.run_cell.count"][0] == 4
    assert m["ring.init_state.calls"][0] == 4
    # 4 ring fleets of 15 plus 2 intensities x 4 p values x 3 runs of 100
    assert m["fleet.vehicles_drawn"][0] == 4 * 15 + 2 * 4 * 3 * 100
    # samples every 5 steps over the 100 post-warmup steps, 15 vehicles, 4 cells
    assert m["energy.samples_reduced"][0] == 4 * 20 * 15
    assert m["controllers.hv_accel.calls"][0] == 4 * TINY.steps


def test_tracing_changes_no_output_byte(tiny_runs):
    (_, plain_files), traced = tiny_runs
    assert len(plain_files) == 1 + 2 * 4 + 2
    for _, files in traced:
        assert files == plain_files


def test_p99_needs_ten_samples_beyond():
    assert p99([1.0] * 999) is None
    samples = [float(i) for i in range(1, 1001)]
    assert p99(samples) == 990.0


def test_checks_accept_reference_and_count_a_changed_row():
    reference = load_reference()
    workload = WORKLOADS["traj_dump"]
    run = Run(workload, 1234, 0.0, reference)
    run.iterate()
    assert run.failed == 0 and run.attempted == 2 + 4

    outdir = OUT_ROOT / "test-traj"
    shutil.rmtree(outdir, ignore_errors=True)
    run_child({"src": str(SRC), "argvs": [workload.argv(1234, outdir)], "trace": False},
              time.monotonic() + 120.0)
    metrics = outdir / "metrics.csv"
    lines = metrics.read_text().splitlines()
    lines[1] += "0"  # the violations column
    metrics.write_text("\n".join(lines) + "\n")
    check = check_outputs(workload, 1234, outdir, reference)
    shutil.rmtree(outdir, ignore_errors=True)
    assert check.failed == 1
    assert check.attempted == 2 + 4


def test_unrecorded_prob_seed_uses_projection_and_criterion_2():
    run = Run(WORKLOADS["verify_prob"], 123456, 0.0, load_reference())
    run.iterate()
    assert run.failed == 0 and run.attempted == 3


def test_exits_nonzero_without_the_package():
    tmp_path = OUT_ROOT / "test-empty"
    shutil.rmtree(tmp_path, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd]
                          + ["--workload", "verify_prob", "--seed", "1", "--seconds", "1",
                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    shutil.rmtree(tmp_path, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
