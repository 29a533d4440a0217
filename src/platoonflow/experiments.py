"""Experiment drivers: the sweep grid and the verification reports.

A sweep cell is one (density, penetration, combo) simulation; every
cell runs under the sweep's one engine config (``SweepSpec.sim``), which
is checked before any cell runs. Cells are independent, and a cell that
fails on its own values becomes a status row instead of killing the
sweep. All combos of a (density, p) drive its one fleet layout (common
random numbers: a combo difference carries no layout noise), drawn at
full platoon intensity, which reads no seed (``_draw``). Row order is
fixed to (combo, p, density) so repeated runs serialize identically.

A sweep draws each ring once and steps each distinct ring once. One
pass over the cells in the parent (``_chunks``) checks the fleet of
each (density, p) once and draws its CAV flag row once, for all its
combos. Each cell of a (density, p) no ring can hold gets its own
error row and failure line there, before any chunk runs. Two cells
with the same ``ring.ring_key`` get the same columns from
``build_rings``, and a ring's numbers do not depend on its chunk, so
the pass groups the cells of each ring, and a worker gets each ring's
flag row, vehicle count and cells. The worker that steps a ring writes
every cell of it: the ring's row under the cell's own labels, or the
cell's own failure line if the ring failed, and, with saved
trajectories, the cell's own copy of the ring's files.
On the default grid, 1014 of the 1200 cells are distinct rings, holding
53,520 of its 63,000 vehicles: the 200 cells at p 0 are 20 all-human
rings, and six cells at 5 veh/km and p 0.2 repeat a one-CAV ring that
only its leader law tells apart. The benchmark's ``grid_short`` has
that grid's shape and share; its ``traj_dump`` (95 veh/km, p 1,
combos 1 and 7) holds no two cells with the same ring.

The sweep cuts the rings, in order, into chunks of up to CHUNK_VEHICLES
vehicles (fewer where one worker's share of the sweep is smaller),
counting each ring's vehicles once, and steps each chunk's rings
together in one engine run. Its samples come in blocks
(``ring.run_blocks``): one ``energy.sample_rates`` pass per block adds
to each ring's rate sums, and a saved ring's rows are appended to its
file; when the run ends, one ``energy.summarize`` call turns every
ring's means into its metrics. A ring's sums depend only on its own
samples and the block length, not on what it is stacked with, so
chunking changes no output byte. A ring that fails in the run (masked
to NaN, see ``ring``) gives each of its cells an error row and leaves
no file. A progress line per chunk goes to stderr.

The sweep's chunks and ``verify_probability_model``'s grid points, one
task each, go to one worker pool (``_pool_map``): ``jobs`` workers, one
per CPU unless told otherwise (JOBS), but no more than there are CPUs
(``_workers``) or tasks, and none when that leaves one. A ``jobs``
above the CPU count plans the same chunks as the CPU count, and runs
them on as many workers. No output byte depends on it.

The pool is a fork per worker and two pipes to it (``_fork_map``), not
``concurrent.futures``, whose import loads about 30 modules no task
uses (``multiprocessing``, ``socket``, ``subprocess``, ``logging``, ...)
into every process, ``jobs`` 1 too. A worker takes the next task when
it sends a result, as an executor's does, and does not get a fixed
stripe of them: at a 300 s horizon the default grid's 14 chunks took
0.36-0.84 s each on a 2-CPU VM, and two workers would take 4.46 s to
the last result striped against 4.27 s in turn (simulated from those
times). The workers are forked, not spawned: a spawned worker imports
numpy and this package again, about 0.1 s each on a 2-CPU VM, which is
about the whole wall time of a 5 s-horizon run of the default grid's
shape. Forking is safe here because the CLI's process runs one thread
when it forks: it sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads,
and the map starts no thread of its own.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import shutil
import sys
import time
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from pathlib import Path

import numpy as np

from .controllers import H_FOLLOWER, H_LEADER, Strategy, check_speed_cap
from .csvio import (TRAJECTORY_HEAD, append_trajectory, format_value, write_csv,
                    write_violations_csv)
from .energy import METRICS, PER_KM, RATES, sample_rates, summarize
from .fleet import (S_MAX, FleetSpec, class_probabilities, draw_flags,
                    empirical_distribution, goodness_of_fit, role_codes)
from .platoons import check_combos
from . import ring  # engine calls go through the module, so wrappers set on it apply

PLOT_METRICS = {col.split("_", 1)[0]: col for col in PER_KM}
PLOT_DENSITIES = (15.0, 55.0, 95.0)
# (start, stop, step) of the default grids of the verification reports
P_GRID = (0.01, 0.99, 0.01)  # penetrations of verify_probability_model
V_GRID = (0.0, 33.3, 0.1)    # equilibrium speeds of verify_stability, m/s

# Vehicles stepped together in one engine run. Larger chunks spread the
# per-step numpy dispatch over more vehicles: on mixed default-grid chunks
# (2-CPU Xeon VM) a vehicle-step costs ~119 ns at 1024 vehicles, 78 at
# 2048, 57 at 4096 and 54.5 at 8192, so CHUNK_VEHICLES sits at the knee.
# A chunk's samples stream through in blocks, so no horizon limits it.
CHUNK_VEHICLES = 4096
# Worker processes of sweep and verify_probability_model unless told
# otherwise: one per CPU. No output byte depends on it.
JOBS = os.cpu_count() or 1


@dataclass(frozen=True)
class SweepSpec:
    densities: tuple[float, ...] = tuple(float(d) for d in range(5, 101, 5))
    penetrations: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    combos: tuple[int, ...] = tuple(range(1, 11))
    sim: ring.SimConfig = ring.SimConfig()
    base_seed: int = 42
    jobs: int = JOBS

    def __post_init__(self) -> None:
        object.__setattr__(self, "penetrations", tuple(_positive_zero(self.penetrations)))
        for name in ("densities", "penetrations", "combos"):
            # metrics.csv labels each row by these texts
            _check_axis(f"sweep axis {name}", getattr(self, name), format_value, "metrics.csv")
        if bad := [d for d in self.densities if not 0.0 < d < math.inf]:
            raise ValueError(f"sweep axis densities holds {bad[0]}; a density must be "
                             "positive and finite")
        if bad := [p for p in self.penetrations if not 0.0 <= p <= 1.0]:
            raise ValueError(f"sweep axis penetrations holds {bad[0]}; a penetration must "
                             "lie in [0, 1]")
        check_combos(self.combos)
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


def _positive_zero(values) -> list:
    """``values`` with -0.0 as 0.0 (``-0.0 + 0`` is ``0.0``), so a zero prints as one value."""
    return [value + 0 for value in values]


def _key_text(value: float) -> str:
    """``value`` in a seed key: two values that print alike share their seeds."""
    return f"{value:.6g}"


def cell_seeds(base_seed: int, density: float, p: float, lasts) -> list[int]:
    """Stable seed of the key ``base_seed:density:p:last`` for each of ``lasts``.

    Process hashes are salted, so use a digest. The keys' shared prefix
    is hashed once, and a copy of its state is extended by each last key.
    """
    import hashlib  # here, not at the top: it loads OpenSSL, which no sweep needs
    prefix = hashlib.sha256(f"{base_seed}:{_key_text(density)}:{_key_text(p)}:".encode())
    seeds = []
    for last in lasts:
        digest = prefix.copy()
        digest.update(f"{last}".encode())
        seeds.append(int.from_bytes(digest.digest()[:8], "big"))
    return seeds


def _draw(fleet: FleetSpec, base_seed: int, key: float, runs: int) -> np.ndarray:
    """``runs`` flag rows of ``fleet``, seeded by ``cell_seeds(base_seed, key, p, ...)``;
    full intensity reads no seed and draws one ring every run: one row, nothing hashed."""
    if fleet.intensity == 1.0:
        return draw_flags(fleet, [None])
    return draw_flags(fleet, cell_seeds(base_seed, key, fleet.p, range(runs)))


def _check_axis(name: str, values, form, medium: str) -> None:
    """Reject an axis that is empty, holds NaN, repeats a value or holds two
    values that ``form`` prints alike, as ``medium`` would write them.

    NaN never equals itself, so it is checked before the repeats.
    """
    if not values:
        raise ValueError(f"{name} is empty")
    if any(math.isnan(value) for value in values):
        raise ValueError(f"{name} holds NaN: {values}")
    if len(set(values)) < len(values):
        raise ValueError(f"{name} repeats a value: {values}")
    printed: dict[str, float] = {}
    for value in values:
        text = form(value)
        other = printed.setdefault(text, value)
        if other != value:
            raise ValueError(f"{name} holds {other!r} and {value!r}, which {medium} "
                             f"writes alike as {text}")


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    """Points from ``start`` by ``step`` up to ``stop``, inclusive."""
    if not 0 < step < math.inf:  # an infinite step would make start + inf * 0, NaN
        raise ValueError(f"step must be positive and finite, got {step}")
    if not math.isfinite((stop - start) / step):
        raise ValueError(f"grid from {start} to {stop} by {step} is not finite")
    # no point past stop, except by float error when stop is a whole
    # number of steps from start
    count = math.floor((stop - start) / step + 1e-9) + 1
    if count < 1:
        raise ValueError(f"grid from {start} to {stop} by {step} holds no point")
    return start + step * np.arange(count)


def enumerate_cells(spec: SweepSpec) -> list[tuple[float, float, int]]:
    """(density, p, combo) triples in serialization order."""
    return [(d, p, c)
            for c in sorted(spec.combos)
            for p in sorted(spec.penetrations)
            for d in sorted(spec.densities)]


def _fail(row: dict, reason) -> None:
    # the labels as metrics.csv writes them, so no two rows' lines read alike
    print(f"cell combo={row['combo']} p={format_value(row['p'])} "
          f"density={format_value(row['density'])} failed: {reason}", file=sys.stderr)
    row.update(dict.fromkeys(METRICS, math.nan), violations=0, status="error")


def _stem(save_dir: str | Path, row: dict) -> Path:
    """Path of a saved cell's files, less their ``_<kind>.csv`` ending, each
    value printed as in metrics.csv, whose labels ``SweepSpec`` keeps apart."""
    return Path(save_dir, f"cell_c{row['combo']}_p{format_value(row['p'])}"
                          f"_d{format_value(row['density'])}")


def run_chunk(sim: ring.SimConfig, chunk: tuple[np.ndarray, list],
              save_dir: str | Path | None = None) -> list[dict]:
    """Step the rings of a chunk together in one engine run; one metrics row per cell.

    ``chunk`` is the rings' flag rows back to back and each ring's
    vehicle count and cells (see ``_chunks``). A ring runs under its
    first cell's combo, and every cell of it gets the ring's row under
    its own labels, or its own failure line if the ring fails. With
    ``save_dir``, each ring's rows go to its first cell's
    ``<stem>_trajectory.csv.partial`` block by block; when the run ends,
    a failed ring's file is removed, and each cell of the other rings
    gets its own copy of the file, by way of its own ``.partial`` file,
    and its own violations file.
    """
    flags, rings = chunk
    groups = [[{"combo": combo, "p": p, "density": density} for density, p, combo in cells]
              for _, cells in rings]
    state = ring.build_rings(sim, flags, [size for size, _ in rings],
                             [group[0]["combo"] for group in groups])
    bounds = [*state.starts, state.n]
    sums = np.zeros((len(RATES), len(rings)))
    violations: list[list[ring.Violation]] = [[] for _ in rings]
    errors: dict[int, str] = {}
    stems = [[] if save_dir is None else [_stem(save_dir, row) for row in group]
             for group in groups]
    partials = {r: Path(f"{cell_stems[0]}_trajectory.csv.partial")
                for r, cell_stems in enumerate(stems) if cell_stems}
    for partial in partials.values():
        partial.parent.mkdir(parents=True, exist_ok=True)
        partial.write_text(TRAJECTORY_HEAD)
    for block in ring.run_blocks(state, sim):
        # a ring's sum depends on its own samples alone: its vehicles per
        # sample by reduceat, then its samples as one contiguous row
        for total, rate in zip(sums, sample_rates(block.v, block.a)):
            per_sample = np.add.reduceat(rate.reshape(block.v.shape), state.starts, axis=1)
            total += np.add.reduce(np.ascontiguousarray(per_sample.T), axis=1)
        for viol in block.violations:
            violations[viol.ring].append(viol)
        errors.update(block.errors)
        for r, partial in partials.items():
            if r not in errors:
                cols = slice(bounds[r], bounds[r + 1])
                with open(partial, "a") as fh:
                    append_trajectory(fh, block.times, block.x[:, cols], block.v[:, cols],
                                      block.a[:, cols])
    # every ring's metrics in one pass, a column per ring
    columns = summarize(sums / (len(sim.sample_steps) * np.array([size for size, _ in rings])))
    for r, (values, group, cell_stems) in enumerate(zip(zip(*columns.values()), groups, stems)):
        metrics = dict(zip(METRICS, values))
        status = "stalled" if metrics["mean_speed_mps"] == 0.0 else "ok"
        for row in group:
            if r in errors:
                _fail(row, errors[r])
            else:
                row.update(metrics, violations=len(violations[r]), status=status)
        if r in errors and cell_stems:
            partials[r].unlink()
        elif cell_stems:
            for stem in cell_stems[1:]:
                shutil.copyfile(partials[r], f"{stem}_trajectory.csv.partial")
            for stem in cell_stems:
                Path(f"{stem}_trajectory.csv.partial").replace(f"{stem}_trajectory.csv")
                write_violations_csv(violations[r], f"{stem}_violations.csv")
    return [row for group in groups for row in group]


def _workers(jobs: int) -> int:
    """Worker processes of ``jobs`` on this machine: no more than its CPUs."""
    return min(jobs, os.cpu_count() or 1)


def _chunk_cap(spec: SweepSpec, vehicles: float) -> int:
    """Most vehicles in one chunk of a sweep of ``vehicles`` in all.

    CHUNK_VEHICLES, but no more than one worker's share of the sweep,
    so each worker gets a chunk when the sweep is small.
    """
    return max(1, min(CHUNK_VEHICLES, math.ceil(vehicles / _workers(spec.jobs))))


def _chunks(spec: SweepSpec, cells: list[tuple[float, float, int]]):
    """The error rows of the cells no ring can hold, and the other cells' chunks.

    Here, and only here, a cell becomes a ring. Each (density, p) is
    checked once (``ring.cell_fleet``) and, if a ring can hold it, its
    flag row is drawn once (``_draw``, keyed by the density), with the
    row's bytes and CAV count; all combos of the point share that row.
    Each cell of a (density, p) the check rejects gets its own error row
    and failure line, in cell order. The cells with one ``ring.ring_key``
    are one ring, listed in the order its first cell appears. The rings,
    in order, go in consecutive chunks holding at most ``_chunk_cap``
    vehicles; a ring larger than the cap goes alone. A chunk is its
    rings' flag rows back to back, as one array, and each ring's vehicle
    count and cells.
    """
    failed: list[dict] = []
    layouts: dict = {}  # (density, p) -> its error, or its flag row, bytes and CAV count
    rings: dict = {}    # ring key -> its flag row and cells
    for density, p, combo in cells:
        layout = layouts.get((density, p))
        if layout is None:
            try:
                fleet = ring.cell_fleet(spec.sim, density, p)
            except ValueError as exc:
                layout = exc
            else:
                flags = _draw(fleet, spec.base_seed, density, 1)[0]
                layout = (flags, flags.tobytes(), np.count_nonzero(flags))
            layouts[density, p] = layout
        if isinstance(layout, ValueError):
            row = {"combo": combo, "p": p, "density": density}
            _fail(row, layout)
            failed.append(row)
            continue
        flags, row_bytes, cavs = layout
        rings.setdefault(ring.ring_key(row_bytes, cavs, combo),
                         (flags, []))[1].append((density, p, combo))
    cap = _chunk_cap(spec, sum(flags.size for flags, _ in rings.values()))
    batches: list[list] = []
    total = cap  # every ring holds a vehicle, so the first opens a chunk
    for flags, ring_cells in rings.values():
        if total + flags.size > cap:
            batches.append([])
            total = 0
        batches[-1].append((flags, ring_cells))
        total += flags.size
    return failed, [(np.concatenate([flags for flags, _ in batch]),
                     [(flags.size, ring_cells) for flags, ring_cells in batch])
                    for batch in batches]


def _gather(rows: list[dict], results, total: int) -> list[dict]:
    """``rows`` and the rows of finished chunks in ``enumerate_cells`` order.

    A progress line per chunk, or one if there is none.
    """
    if len(rows) == total:  # every cell failed its checks: no chunk
        results = [[]]
    start = time.perf_counter()
    for chunk_rows in results:
        rows.extend(chunk_rows)
        elapsed = time.perf_counter() - start
        eta = elapsed * (total - len(rows)) / len(rows)
        print(f"sweep: {len(rows)}/{total} cells, {elapsed:.1f} s elapsed, "
              f"ETA {eta:.1f} s", file=sys.stderr)
    return sorted(rows, key=itemgetter("combo", "p", "density"))


def _pool_map(jobs: int, fn, tasks: list):
    """``map(fn, tasks)``, on ``_workers(jobs)`` worker processes, or fewer.

    With one worker or none it maps in this process, as it does where
    there is no ``os.fork`` (Windows). Otherwise the workers are forked,
    all at once, so there are never more than tasks (``_fork_map``): a
    forked worker starts without importing anything or unpickling its
    tasks. Each takes the next task when it is done with one, since one
    chunk can cost three times another (see the module docstring).
    """
    workers = min(_workers(jobs), len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return map(fn, tasks)
    return _fork_map(workers, fn, tasks)


def _read(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``, or fewer if it ends first."""
    parts = []
    while size:
        part = os.read(fd, min(size, 1 << 20))
        if not part:
            break
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _work(fn, tasks: list, task_r: int, result_w: int, others) -> None:
    """A forked worker: run the task of each index read, send back each result.

    A result goes back as its pickle's length and the pickle of
    ``(index, True, result)``, or of ``(index, False, exception)``, the
    exception with a note of the worker's traceback, which the parent
    prints if no one catches it. The worker ends when its task pipe
    does, and only through ``os._exit``, so it never returns into its
    parent's code.
    """
    code = 1
    try:
        for fd in others:  # the parent's ends, so only the parent holds them
            os.close(fd)
        while head := _read(task_r, 4):
            index = int.from_bytes(head, "little")
            try:
                data = pickle.dumps((index, True, fn(tasks[index])))
            except Exception as exc:
                import traceback  # only a failed task needs it
                exc.__notes__ = [*getattr(exc, "__notes__", ()), f"in worker process "
                                 f"{os.getpid()}:\n{''.join(traceback.format_exception(exc))}"]
                data = pickle.dumps((index, False, exc))
            view = memoryview(len(data).to_bytes(8, "little") + data)
            while view:
                view = view[os.write(result_w, view):]
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _fork_map(workers: int, fn, tasks: list):
    """``map(fn, tasks)`` on ``workers`` forked processes, results in task order.

    The workers inherit ``fn`` and ``tasks``, so nothing is pickled on
    the way in; stdout and stderr are flushed first, so no worker
    writes the parent's buffered text again. Each worker has a pipe of
    task indices and a pipe of results, and takes the next task when it
    sends a result. A task's exception is raised here when its turn in
    the results comes, as ``map`` raises it. A worker that dies mid-task
    is a ``ChildProcessError``. However the map ends (done, raised or
    closed early), every pipe is closed and every worker waited for:
    one mid-task finishes it first.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    fds: set[int] = set()      # this process's open pipe ends
    pids: set[int] = set()     # workers not yet waited for
    running: dict = {}         # result pipe -> its worker's pid, task pipe and task index
    todo = iter(range(len(tasks)))
    poller = select.poll()

    def give(result_r: int) -> None:
        task_w = running[result_r][1]
        index = next(todo, None)
        if index is None:  # the worker's pipe ends, and so does the worker
            poller.unregister(result_r)
            del running[result_r]
            for fd in (task_w, result_r):
                os.close(fd)
                fds.discard(fd)
            return
        running[result_r][2] = index
        try:
            os.write(task_w, index.to_bytes(4, "little"))
        except BrokenPipeError:  # the worker is gone: its result pipe ends too
            pass

    def lost(result_r: int) -> ChildProcessError:
        pid, _, index = running[result_r]
        pids.discard(pid)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
        return ChildProcessError(f"worker process {pid} {how} during task {index + 1} "
                                 f"of {len(tasks)}")

    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            fds.update((task_r, task_w, result_r, result_w))
            pid = os.fork()
            if pid == 0:
                _work(fn, tasks, task_r, result_w, fds - {task_r, result_w})
            pids.add(pid)
            for fd in (task_r, result_w):
                os.close(fd)
                fds.discard(fd)
            running[result_r] = [pid, task_w, None]
            poller.register(result_r, select.POLLIN)
            give(result_r)
        done: dict = {}  # task index -> (ok, result or exception)
        for index in range(len(tasks)):
            while index not in done:
                for result_r, _ in poller.poll():
                    head = _read(result_r, 8)
                    size = int.from_bytes(head, "little")
                    data = _read(result_r, size)
                    if len(head) < 8 or len(data) < size:  # the worker is gone
                        raise lost(result_r)
                    got, ok, value = pickle.loads(data)
                    done[got] = ok, value
                    give(result_r)
            ok, value = done.pop(index)
            if not ok:
                raise value
            yield value
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def run_sweep(spec: SweepSpec, save_dir: str | Path | None = None) -> list[dict]:
    """All cells of the grid, rows in ``enumerate_cells`` order."""
    cells = enumerate_cells(spec)
    failed, chunks = _chunks(spec, cells)
    return _gather(failed, _pool_map(spec.jobs, partial(run_chunk, spec.sim, save_dir=save_dir),
                                     chunks), len(cells))


@dataclass(frozen=True)
class ProbabilityVerification:
    fits: list[dict]    # intensity, class, r2, rmse, note
    curves: list[dict]  # intensity, p, class, empirical, theoretical


def _share(n_vehicles: int, runs: int, seed: int, point: tuple[float, float]):
    """Empirical class shares of one (intensity, p) point, over ``runs`` rings."""
    intensity, p = point
    # at full intensity one row stands for all runs: c / n and
    # runs * c / (runs * n) are the same correctly rounded quotient
    flags = _draw(FleetSpec(n_vehicles, p, intensity), seed, intensity, runs)
    return empirical_distribution(role_codes(flags.ravel(), [n_vehicles] * len(flags), S_MAX))


def verify_probability_model(n_vehicles: int = 100, runs: int = 200,
                             p_grid=None, intensities=(0.0, 1.0),
                             seed: int = 0, jobs: int = JOBS) -> ProbabilityVerification:
    """Empirical class frequencies of sampled rings against the closed form.

    Each (intensity, p) point is one task of the worker pool (see
    ``_pool_map``); a point's shares do not depend on its worker.
    """
    if p_grid is None:
        p_grid = _grid(*P_GRID)
    p_grid = _positive_zero(map(float, p_grid))
    intensities = tuple(_positive_zero(intensities))
    if runs < 1 or n_vehicles < 1:
        raise ValueError("need at least one run of at least one vehicle")
    # a point's seeds come from its values' key texts (cell_seeds), so two
    # values that print alike would draw one sample twice
    _check_axis("intensities", intensities, _key_text, "a seed key")
    _check_axis("p_grid", p_grid, _key_text, "a seed key")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    points = [(intensity, p) for intensity in intensities for p in p_grid]
    drawn = _pool_map(jobs, partial(_share, n_vehicles, runs, seed), points)
    curves: list[dict] = []
    for (intensity, p), dist in zip(points, drawn):
        model = class_probabilities(p, intensity, S_MAX)
        for name, e, t in (("LV1", dist.p_lv1, model.p_lv1), ("LV2", dist.p_lv2, model.p_lv2),
                           ("PV", dist.p_pv, model.p_pv)):
            curves.append({"intensity": intensity, "p": p, "class": name,
                           "empirical": e, "theoretical": t})
    # each intensity's curve of each class, in the order the curves list them
    by_class: dict[tuple, list[dict]] = {}
    for row in curves:
        by_class.setdefault((row["intensity"], row["class"]), []).append(row)
    fits = [{"intensity": intensity, "class": name,
             **goodness_of_fit([r["empirical"] for r in rows], [r["theoretical"] for r in rows])}
            for (intensity, name), rows in by_class.items()]
    return ProbabilityVerification(fits, curves)


def verify_stability(strategies=None, v_grid=None) -> dict:
    """Margin report for the requested laws plus VTG2's speed-dependent region,
    both as rows keyed by their file's columns."""
    # imported here, its only user, so the other verbs do not import it
    from .stability import equilibrium_partials, stability_region, string_stable
    if v_grid is None:
        v_grid = _grid(*V_GRID)
    # the engine keeps speeds in [0, V_FREE]; NaN fails the comparison too
    if bad := [v for v in v_grid if not v >= 0.0]:
        raise ValueError(f"equilibrium speeds must not be NaN or negative, got {bad[0]}")
    check_speed_cap(v_grid)
    if strategies is None:
        strategies = (Strategy.CTG, Strategy.VTG1, Strategy.VTG2, Strategy.CS)
    wanted = {s if isinstance(s, Strategy) else Strategy(str(s).upper())
              for s in strategies}
    rows = []
    for label, strategy, kwargs in (
            (f"CTG(h={format_value(H_LEADER)})", Strategy.CTG, {"h": H_LEADER}),
            (f"CTG(h={format_value(H_FOLLOWER)})", Strategy.CTG, {"h": H_FOLLOWER}),
            ("VTG1", Strategy.VTG1, {}),
            ("CS", Strategy.CS, {})):
        if strategy not in wanted:
            continue
        res = string_stable(equilibrium_partials(strategy, 15.0, **kwargs))
        rows.append({"strategy": label, "k_in_range": res.k_in_range,
                     "margin": res.margin, "stable": res.stable,
                     "caveat": res.caveat or ""})
    region = []
    if Strategy.VTG2 in wanted and len(v_grid):
        region = stability_region(Strategy.VTG2, v_grid)
        rows.append({"strategy": "VTG2", "k_in_range": True,
                     "margin": min(r["margin"] for r in region),
                     "stable": all(r["stable"] for r in region),
                     "caveat": f"margin is min over v in [{format_value(v_grid[0])}, "
                                f"{format_value(v_grid[-1])}]"})
    return {"rows": rows, "vtg2_region": region}


def emit_plot_data(rows: list[dict], outdir: str | Path) -> list[Path]:
    """Pivot a metrics table into per-figure CSV bundles.

    One family plots each metric against density, one column per
    (combo, p); the other plots it against penetration at the three
    reference densities, one column per combo. A value in a header or
    file name prints as in metrics.csv, so a sweep's rows and its
    metrics.csv read back give the same bytes.
    """
    if not rows:
        print("plot-data: metrics table is empty, nothing to emit", file=sys.stderr)
        return []
    outdir = Path(outdir)
    paths = []
    densities = sorted({r["density"] for r in rows})
    pens = sorted({r["p"] for r in rows})
    combos = sorted({r["combo"] for r in rows})
    cell = {(r["combo"], r["p"], r["density"]): r for r in rows}

    def value(metric_col, c, p, d):
        r = cell.get((c, p, d))
        return math.nan if r is None else r[metric_col]

    for short, col in PLOT_METRICS.items():
        header = ["density"] + [f"combo{c}_p{format_value(p)}" for c in combos for p in pens]
        table = [[d] + [value(col, c, p, d) for c in combos for p in pens]
                 for d in densities]
        paths.append(write_csv(outdir / f"{short}_vs_density.csv", header, table,
                               key_cols=(0,)))
        for d in PLOT_DENSITIES:
            if d not in densities:
                continue
            header = ["p"] + [f"combo{c}" for c in combos]
            table = [[p] + [value(col, c, p, d) for c in combos] for p in pens]
            paths.append(write_csv(outdir / f"{short}_vs_p_d{format_value(d)}.csv", header,
                                   table, key_cols=(0,)))
    return paths
