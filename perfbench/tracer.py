"""Spans and work counts taken from outside the platoonflow package.

The tracer replaces public functions at the name under which their
caller imported them (``platoonflow.ring.ctg_accel``,
``platoonflow.experiments.fleet_fuel``, ...) with a wrapper that records
a span and, for some functions, a work count read from the arguments or
the result. Nothing under ``src/`` changes. Spans are aggregated in
memory per name: calls, total time and self time, which is the span's
duration minus the time of the spans it caused. Per-call durations are
kept only for ``experiments.run_cell``, whose percentiles are reported.

``layer_metrics`` turns one traced iteration's aggregate into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

LAWS = ("hv", "ctg", "vtg1", "vtg2", "cs", "bdbm")
KEEP_DURATIONS = {"experiments.run_cell"}


def _csv_written(tracer, args, kwargs, result):
    rows = kwargs.get("rows", args[2] if len(args) > 2 else ())
    tracer.counts["csvio.rows_written"] += len(rows)
    tracer.counts["csvio.bytes_written"] += Path(result).stat().st_size


def _run_state(tracer, args, kwargs, result):
    state, config = args[0], args[1]
    steps = round(config.duration / config.dt)
    tracer.counts["ring.steps"] += steps
    tracer.counts["ring.vehicle_steps"] += steps * state.x.size
    tracer.counts["ring.violations"] += len(result.violations)
    nbytes = result.times.nbytes + result.x.nbytes + result.v.nbytes + result.a.nbytes
    tracer.counts["ring.trajectory_bytes.sum"] += nbytes
    tracer.counts["ring.trajectory_bytes.max"] = max(
        tracer.counts["ring.trajectory_bytes.max"], nbytes)


def _drawn(tracer, args, kwargs, result):
    tracer.counts["fleet.sequences_drawn"] += 1
    tracer.counts["fleet.vehicles_drawn"] += len(result)


def _reduced(tracer, args, kwargs, result):
    tracer.counts["energy.samples_reduced"] += args[0].v.size


def _law(name):
    def count(tracer, args, kwargs, result):
        tracer.counts[f"controllers.{name}.vehicles"] += args[0].v.size
    return count


# (module, attribute in that module, span name, work counter)
WRAPS = (
    ("platoonflow.cli", "main", "cli.main", None),
    ("platoonflow.cli", "run_sweep", "experiments.run_sweep", None),
    ("platoonflow.cli", "verify_probability_model",
     "experiments.verify_probability_model", None),
    ("platoonflow.cli", "write_metrics_csv", "csvio.write_metrics_csv", None),
    ("platoonflow.cli", "write_csv", "csvio.write_csv", _csv_written),
    ("platoonflow.csvio", "write_csv", "csvio.write_csv", _csv_written),
    ("platoonflow.experiments", "run_cell", "experiments.run_cell", None),
    ("platoonflow.experiments", "cell_seed", "experiments.cell_seed", None),
    ("platoonflow.experiments", "fleet_fuel", "energy.fleet_fuel", _reduced),
    ("platoonflow.experiments", "fleet_emissions", "energy.fleet_emissions", None),
    ("platoonflow.experiments", "write_trajectory_csv", "csvio.write_trajectory_csv", None),
    ("platoonflow.experiments", "write_violations_csv", "csvio.write_violations_csv", None),
    ("platoonflow.experiments", "generate_sequence", "fleet.generate_sequence", _drawn),
    ("platoonflow.experiments", "empirical_distribution", "fleet.empirical_distribution", None),
    ("platoonflow.experiments", "class_probabilities", "fleet.class_probabilities", None),
    ("platoonflow.experiments", "goodness_of_fit", "fleet.goodness_of_fit", None),
    ("platoonflow.ring", "init_state", "ring.init_state", None),
    ("platoonflow.ring", "run_state", "ring.run_state", _run_state),
    ("platoonflow.ring", "generate_sequence", "fleet.generate_sequence", _drawn),
    ("platoonflow.ring", "form_platoons", "platoons.form_platoons", None),
    ("platoonflow.ring", "assign_strategies", "platoons.assign_strategies", None),
    ("platoonflow.fleet", "label_roles", "fleet.label_roles", None),
    *(("platoonflow.ring", f"{law}_accel", f"controllers.{law}_accel", _law(f"{law}_accel"))
      for law in LAWS),
)


class Tracer:
    """Aggregated spans and counts of one process."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}          # name -> [calls, total_s, self_s]
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._child_time = [0.0]                   # one accumulator per open span

    def install(self) -> None:
        for module_name, attr, name, counter in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, counter))

    def _wrap(self, fn, name, counter):
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        durations = self.durations[name] if name in KEEP_DURATIONS else None
        child_time = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                child_time[-1] += elapsed
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - inner
                if durations is not None:
                    durations.append(elapsed)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def report(self) -> dict:
        if self.missing:
            print(f"perfbench: not traced (missing): {', '.join(self.missing)}",
                  file=sys.stderr)
        return {"spans": self.spans, "durations": dict(self.durations),
                "counts": dict(self.counts)}


# ------------------------------------------------------------ per-layer view

def p99(samples: list[float]) -> float | None:
    """p99 by nearest rank, or None unless at least ten samples lie beyond it."""
    if len(samples) < 1000:
        return None
    return sorted(samples)[math.ceil(0.99 * len(samples)) - 1]


SELF_TIMES = (
    "cli.main", "experiments.run_sweep", "experiments.verify_probability_model",
    "experiments.run_cell", "experiments.cell_seed", "ring.init_state", "ring.run_state",
    "platoons.form_platoons", "platoons.assign_strategies",
    "energy.fleet_fuel", "energy.fleet_emissions",
    "csvio.write_metrics_csv", "csvio.write_trajectory_csv",
    "csvio.write_violations_csv", "csvio.write_csv",
    "fleet.generate_sequence", "fleet.label_roles", "fleet.empirical_distribution",
    "fleet.class_probabilities", "fleet.goodness_of_fit",
    *(f"controllers.{law}_accel" for law in LAWS),
)
COUNTS = (
    "ring.steps", "ring.vehicle_steps", "ring.violations", "ring.init_state.calls",
    "ring.trajectory_bytes.sum", "ring.trajectory_bytes.max",
    *(f"controllers.{law}_accel.{what}" for law in LAWS for what in ("calls", "vehicles")),
    "energy.samples_reduced", "experiments.run_cell.count",
    "csvio.rows_written", "csvio.bytes_written",
    "fleet.sequences_drawn", "fleet.vehicles_drawn",
)
COUNT_UNITS = {"ring.trajectory_bytes.sum": "B", "ring.trajectory_bytes.max": "B",
               "csvio.bytes_written": "B"}


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration, name -> (value, unit).

    Every metric is present for every workload; a layer the workload
    never calls reads 0, and ``experiments.run_cell.p99_ms`` reads 0 when
    fewer than 1000 cells leave fewer than ten samples beyond p99.
    """
    spans, counts = raw["spans"], raw["counts"]

    def span(name):
        return spans.get(name, [0, 0.0, 0.0])

    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (span(name)[2], "s")
    counted = dict(counts)
    counted["ring.init_state.calls"] = span("ring.init_state")[0]
    counted["experiments.run_cell.count"] = span("experiments.run_cell")[0]
    for law in LAWS:
        counted[f"controllers.{law}_accel.calls"] = span(f"controllers.{law}_accel")[0]
    for name in COUNTS:
        out[name] = (counted.get(name, 0), COUNT_UNITS.get(name, "count"))

    steps = counted.get("ring.steps", 0)
    out["ring.us_per_step"] = (1e6 * span("ring.run_state")[1] / steps if steps else 0.0,
                               "us")
    samples = counted.get("energy.samples_reduced", 0)
    reduce_s = span("energy.fleet_fuel")[1] + span("energy.fleet_emissions")[1]
    out["energy.ns_per_sample"] = (1e9 * reduce_s / samples if samples else 0.0, "ns")
    cells = raw["durations"].get("experiments.run_cell", [])
    out["experiments.run_cell.p50_ms"] = (1e3 * statistics.median(cells) if cells else 0.0,
                                          "ms")
    tail = p99(cells)
    out["experiments.run_cell.p99_ms"] = (0.0 if tail is None else 1e3 * tail, "ms")
    return out
