"""Sweep orchestration, verification harnesses, and plot-data pivoting."""

import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import init_state, reaps_every_child, reduce_log, run_state, split_log, stack
from hypothesis import example, given
from hypothesis import strategies as st

from platoonflow import experiments, ring
from platoonflow.csvio import METRICS_HEADER, write_metrics_csv
from platoonflow.energy import METRICS
from platoonflow.fleet import draw_flags
from platoonflow.experiments import (CHUNK_VEHICLES, PLOT_METRICS,
                                     SweepSpec, _chunk_cap, _chunks, _grid, _pool_map,
                                     cell_seed, cell_seeds, emit_plot_data,
                                     enumerate_cells,
                                     run_chunk, run_sweep,
                                     verify_probability_model,
                                     verify_stability)

DESK = dict(sim=ring.SimConfig(duration=60.0, warmup=30.0))

# Means sum block by block (each ring's vehicles per sample, then its
# samples per block, then the blocks in turn), where a reduction over a
# stored log sums all of a ring's samples in one pairwise pass. Their
# rounding differs by about (vehicles per ring + blocks) x 1.1e-16; the
# worst seen on default-grid chunks was 4.8e-15 relative.
SUM_RTOL = 1e-12


def small_spec(**kw):
    base = dict(densities=(15.0, 25.0), penetrations=(0.0, 1.0),
                combos=(1, 3), jobs=1, **DESK)
    base.update(kw)
    return SweepSpec(**base)


def alone(spec, cells):
    """``run_chunk``'s chunk of ``cells``, each a ring of its own."""
    failed, chunks = _chunks(dataclasses.replace(spec, jobs=1), cells)
    [(flags, rings)] = chunks
    assert not failed and [cells_ for _, cells_ in rings] == [[cell] for cell in cells]
    return flags, rings


def plan(chunks):
    """The cells of each ring of each chunk."""
    return [[cells_ for _, cells_ in rings] for _, rings in chunks]


def flag_row(spec, cell):
    """A cell's CAV flag row, drawn as the sweep draws it."""
    return draw_flags(ring.cell_fleet(spec.sim, *cell), [cell_seed(spec.base_seed, *cell)])[0]


def key_of(flags, combo):
    """A flag row's ``ring_key`` under ``combo``."""
    return ring.ring_key(flags.tobytes(), np.count_nonzero(flags), combo)


def check_chunks(spec, cells, chunks):
    """Assert that every cell sits in exactly one chunk, that all cells of a
    ring share one ``ring_key`` and no other ring has it, that each chunk
    holds its rings' vehicle counts and flag rows, and that no chunk steps
    more than its cap; return the number of rings and of vehicles stepped."""
    rings = [cells_ for cells_chunk in plan(chunks) for cells_ in cells_chunk]
    assert sorted(cell for cells_ in rings for cell in cells_) == sorted(cells)
    keys = [{key_of(flag_row(spec, cell), cell[2]) for cell in cells_} for cells_ in rings]
    assert all(len(key) == 1 for key in keys)
    assert len(set.union(*keys)) == len(rings)
    for flags, chunk_rings in chunks:
        rows = [flag_row(spec, cells_[0]) for _, cells_ in chunk_rings]
        assert [size for size, _ in chunk_rings] == [row.size for row in rows]
        assert flags.tobytes() == np.concatenate(rows).tobytes()
    sizes = [size for _, chunk_rings in chunks for size, _ in chunk_rings]
    cap = _chunk_cap(spec, sum(sizes))
    assert all(sum(size for size, _ in chunk_rings) <= cap for _, chunk_rings in chunks)
    return len(rings), sum(sizes)


@pytest.mark.parametrize("combos, bad", [((11,), 11), ((0,), 0), ((9, 10, 11), 11),
                                         ((-1, 1), -1)])
def test_sweep_spec_rejects_unknown_combos(combos, bad):
    with pytest.raises(ValueError, match=f"unknown strategy combo {bad}; valid combos are "
                                         "1, 2, 3, 4, 5, 6, 7, 8, 9, 10"):
        SweepSpec(combos=combos)


@pytest.mark.parametrize("axis, values, printed", [
    ("penetrations", (0.1, 0.1000000001), "0.1"),
    ("densities", (25.0, 15.000000001, 15.0), "15")])
def test_sweep_spec_rejects_values_metrics_csv_prints_alike(axis, values, printed):
    # metrics.csv writes 9 significant digits: two rows would share their labels
    with pytest.raises(ValueError, match=re.escape(
            f"sweep axis {axis} holds {values[-2]!r} and {values[-1]!r}, which "
            f"metrics.csv writes alike as {printed}")):
        SweepSpec(**{axis: values})


@given(base=st.integers(-2 ** 80, 2 ** 80), density=st.floats(0.0, 300.0),
       p=st.floats(0.0, 1.0), lasts=st.lists(st.integers(0, 10 ** 6), max_size=20))
@example(base=-3, density=15.0, p=0.0, lasts=range(1000))
@example(base=2 ** 70 + 1, density=95.0, p=1.0, lasts=range(1000))
def test_cell_seed_matches_digest(base, density, p, lasts):
    # independent transcription of the derivation
    def reference(base, density, p, combo):
        key = f"{base}:{density:.6g}:{p:.6g}:{combo}"
        return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8],
                              "big")

    # one hash of the shared prefix, extended by each key, gives the same ints
    expected = [reference(base, density, p, last) for last in lasts]
    assert cell_seeds(base, density, p, lasts) == expected
    assert [cell_seed(base, density, p, last) for last in lasts] == expected
    assert cell_seed(42, 15.0, 0.8, 1) == reference(42, 15.0, 0.8, 1)
    assert cell_seed(42, 15.0, 0.8, 1) == cell_seed(42, 15.0, 0.8, 1)
    seen = {cell_seed(42, d, p, c)
            for d in (15.0, 55.0, 95.0)
            for p in (0.0, 0.6, 0.8, 1.0)
            for c in range(1, 11)}
    assert len(seen) == 120
    assert all(0 <= s < 2 ** 64 for s in seen)


def test_enumerate_cells_order():
    assert len(enumerate_cells(SweepSpec())) == 20 * 6 * 10

    spec = small_spec()
    cells = enumerate_cells(spec)
    assert cells == [
        (15.0, 0.0, 1), (25.0, 0.0, 1), (15.0, 1.0, 1), (25.0, 1.0, 1),
        (15.0, 0.0, 3), (25.0, 0.0, 3), (15.0, 1.0, 3), (25.0, 1.0, 3)]


def test_run_cell_produces_metrics_row():
    spec = SweepSpec(**DESK)
    row = run_chunk(spec.sim, alone(spec, [(15.0, 0.8, 1)]))[0]
    assert set(row) == set(METRICS_HEADER)
    assert row["status"] == "ok"
    assert row["combo"] == 1
    assert row["violations"] >= 0
    for key in ("mean_speed_mps", "mean_nfr", "nff_g_per_km",
                "co2_g_per_km", "nox_g_per_km", "voc_g_per_km",
                "pm_g_per_km"):
        assert math.isfinite(row[key]), key
    assert row["mean_speed_mps"] > 0.0


def test_run_cell_error_row(capsys):
    spec = SweepSpec(**DESK)
    [row], chunks = _chunks(spec, [(250.0, 1.0, 1)])  # spacing below vehicle length
    assert chunks == []
    assert row["status"] == "error"
    assert math.isnan(row["nff_g_per_km"])
    assert math.isnan(row["mean_speed_mps"])
    assert row["violations"] == 0
    assert "density=250" in capsys.readouterr().err


def test_non_finite_spec_gives_error_row_not_abort(capsys):
    # an engine setting fails once, before any cell runs
    with pytest.raises(ValueError, match="ring_length"):
        ring.SimConfig(ring_length=math.inf, duration=60.0, warmup=30.0)
    # a finite density whose fleet size overflows
    rows = run_sweep(SweepSpec(densities=(1e308,), penetrations=(1.0,), combos=(1,),
                               **DESK))
    assert [r["status"] for r in rows] == ["error"]
    assert "no finite fleet" in capsys.readouterr().err


def test_run_cell_saves_trajectories(tmp_path):
    spec = SweepSpec(**DESK)
    run_chunk(spec.sim, alone(spec, [(15.0, 0.8, 1)]), tmp_path)
    lines = (tmp_path / "cell_c1_p0.8_d15_trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,vehicle_index,x,v,a"
    assert len(lines) == 1 + len(spec.sim.sample_steps) * 15  # 15 vehicles on 1 km
    assert (tmp_path / "cell_c1_p0.8_d15_violations.csv").exists()


def test_saved_cells_never_share_a_file(tmp_path):
    # both densities print as 15 under :g; the second is named by its repr
    spec = SweepSpec(densities=(15.0, 15.0000001), penetrations=(0.8,), combos=(1,),
                     **DESK)
    assert len(run_sweep(spec, tmp_path)) == 2
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"cell_c1_p0.8_d{d}_{kind}.csv" for d in ("15", "15.0000001")
        for kind in ("trajectory", "violations"))


def test_chunk_saves_each_ring_as_if_alone(monkeypatch, tmp_path, capsys):
    spec = small_spec(densities=(15.0, 25.0, 35.0), penetrations=(0.8,), combos=(5,))
    build_rings = ring.build_rings

    def disturbed(config, flags, sizes, *args):
        # densities on the 1 km ring are vehicle counts
        state = build_rings(config, flags, sizes, *args)
        for size, start in zip(sizes, state.starts):
            if size == 25:  # dropped
                state.v[start + 4] = math.nan
            if size == 35:  # logs violations, behind the dropped ring
                state.x[start + 2] = (state.x[start + 1] - 4.5) % config.ring_length
        return state

    monkeypatch.setattr(ring, "build_rings", disturbed)
    cells = enumerate_cells(spec)
    rows = run_chunk(spec.sim, alone(spec, cells), tmp_path / "chunk")
    assert [r["status"] for r in rows] == ["ok", "error", "ok"]
    for cell in cells:
        run_chunk(spec.sim, alone(spec, [cell]), tmp_path / "alone")
    names = sorted(path.name for path in (tmp_path / "chunk").iterdir())
    assert names == [f"cell_c5_p0.8_d{d}_{kind}.csv" for d in (15, 35)
                     for kind in ("trajectory", "violations")]
    assert names == sorted(path.name for path in (tmp_path / "alone").iterdir())
    for name in names:
        assert (tmp_path / "chunk" / name).read_bytes() == (
            tmp_path / "alone" / name).read_bytes()
    violations = (tmp_path / "chunk" / "cell_c5_p0.8_d35_violations.csv").read_text()
    assert len(violations.splitlines()) > 1
    capsys.readouterr()


V_FAIL = 10.0  # m/s


def test_ring_that_fails_mid_run_leaves_no_file(monkeypatch, tmp_path, capsys):
    # ctg_accel, but NaN for a vehicle faster than V_FAIL: the combo 1 ring
    # fails once its CTG vehicles pass it, after a first block was written
    law = ring.ctg_accel
    monkeypatch.setattr(ring, "ctg_accel", lambda ctx, *args, **kwargs: np.where(
        ctx.v > V_FAIL, np.nan, law(ctx, *args, **kwargs)))
    spec = SweepSpec(sim=ring.SimConfig(duration=20.0, warmup=0.0, record_every=1))
    cells = [(40.0, 0.6, 2), (40.0, 0.6, 1), (95.0, 0.6, 4)]
    failing = run_state(init_state(spec.sim, *cells[1]), spec.sim)
    assert failing.errors
    assert np.isnan(failing.v).all(axis=1).argmax() > ring.BLOCK_SAMPLES
    rows = run_chunk(spec.sim, alone(spec, cells), tmp_path / "chunk")
    assert [r["status"] for r in rows] == ["ok", "error", "ok"]
    for cell in cells:
        run_chunk(spec.sim, alone(spec, [cell]), tmp_path / "alone")
    names = sorted(path.name for path in (tmp_path / "chunk").iterdir())
    assert names == [f"cell_c{c}_p0.6_d{d}_{kind}.csv" for c, d in ((2, 40), (4, 95))
                     for kind in ("trajectory", "violations")]
    assert names == sorted(path.name for path in (tmp_path / "alone").iterdir())
    for name in names:
        assert (tmp_path / "chunk" / name).read_bytes() == (
            tmp_path / "alone" / name).read_bytes()
    assert "failed: non-finite desired acceleration" in capsys.readouterr().err


@pytest.mark.parametrize("save", [False, True])
def test_chunk_memory_is_flat_in_the_horizon(tmp_path, save):
    # the peak is a few blocks' buffers and rows, whatever the horizon
    cells = [(15.0, 0.6, 3), (25.0, 0.4, 5)]
    peaks = []
    for duration in (50.0, 200.0):
        spec = SweepSpec(sim=ring.SimConfig(duration=duration, warmup=0.0, record_every=1))
        tracemalloc.start()
        try:
            rows = run_chunk(spec.sim, alone(spec, cells),
                             tmp_path / f"{duration:g}" if save else None)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert [r["status"] for r in rows] == ["ok", "ok"]
    assert peaks[1] <= 1.1 * peaks[0], peaks
    # a stored x, v and a of the long run alone would take 40 * 2000 * 24 B
    assert peaks[1] < 40 * 2000 * 24 / 4, peaks


def test_block_length_changes_no_file(monkeypatch, tmp_path):
    spec = small_spec(densities=(15.0, 25.0, 95.0), penetrations=(0.4,), combos=(5, 7),
                      sim=ring.SimConfig(duration=20.0, warmup=8.0, record_every=3))
    cells = enumerate_cells(spec)
    runs = {}
    for block in (1, 7, ring.BLOCK_SAMPLES):
        monkeypatch.setattr(ring, "BLOCK_SAMPLES", block)
        runs[block] = run_chunk(spec.sim, alone(spec, cells), tmp_path / str(block))
    names = sorted(path.name for path in (tmp_path / "1").iterdir())
    assert len(names) == 2 * len(cells)
    for block, rows in runs.items():
        assert sorted(path.name for path in (tmp_path / str(block)).iterdir()) == names
        for name in names:
            assert (tmp_path / str(block) / name).read_bytes() == (
                tmp_path / "1" / name).read_bytes()
        for row, first in zip(rows, runs[1]):
            assert row["status"] == first["status"] == "ok"
            assert row["violations"] == first["violations"]
            for key in METRICS_HEADER[4:-1]:
                assert row[key] == pytest.approx(first[key], rel=SUM_RTOL, abs=0.0), key


def test_sweep_of_a_stalled_ring(tmp_path, capsys):
    # 200 veh/km leaves 5 m a vehicle: the ring never moves, so it covers
    # no km to divide by
    spec = SweepSpec(densities=(200.0,), penetrations=(0.0,), combos=(1,), jobs=1,
                     sim=ring.SimConfig(duration=20.0, warmup=10.0))
    row, = run_sweep(spec)
    assert row["status"] == "stalled"
    assert row["mean_speed_mps"] == 0.0 and row["mean_nfr"] == 0.0
    per_km = ("nff_g_per_km", "co2_g_per_km", "nox_g_per_km", "voc_g_per_km", "pm_g_per_km")
    assert all(math.isnan(row[key]) for key in per_km)
    lines = write_metrics_csv([row], tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[1] == "200,0,1,stalled,0,0,nan,nan,nan,nan,nan,0"
    capsys.readouterr()


def test_run_sweep_sorted_and_reproducible(tmp_path):
    spec = small_spec()
    rows = run_sweep(spec)
    assert len(rows) == 8
    keys = [(r["combo"], r["p"], r["density"]) for r in rows]
    assert keys == sorted(keys)
    assert rows == run_sweep(spec)

    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_metrics_csv(rows, a)
    write_metrics_csv(run_sweep(spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_run_sweep_rows_in_cell_order(capsys):
    # unsorted axes, an infeasible density and two workers, each with a chunk
    spec = SweepSpec(densities=(25.0, 250.0, 15.0), penetrations=(1.0, 0.0),
                     combos=(3, 1), jobs=2, **DESK)
    rows = run_sweep(spec)
    assert [(r["density"], r["p"], r["combo"]) for r in rows] == enumerate_cells(spec)
    assert [r["status"] for r in rows].count("error") == 4
    capsys.readouterr()


def test_run_sweep_parallel_matches_serial(capsys):
    serial = run_sweep(small_spec(jobs=1))
    parallel = run_sweep(small_spec(jobs=2))
    assert serial == parallel

    # dense cells fill several chunks, so two workers each step some
    spec = small_spec(densities=(95.0, 100.0), penetrations=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
                      combos=tuple(range(1, 11)),
                      sim=ring.SimConfig(duration=10.0, warmup=5.0))
    cells = enumerate_cells(spec)
    chunks = _chunks(spec, cells)[1]
    assert len(chunks) >= 3
    check_chunks(spec, cells, chunks)
    serial = run_sweep(spec)
    assert serial == run_sweep(dataclasses.replace(spec, jobs=2))
    # chunking changes no number: every row is its cell run alone
    assert serial == [run_chunk(spec.sim, alone(spec, [(r["density"], r["p"], r["combo"])]))[0]
                      for r in serial]
    err = capsys.readouterr().err
    assert f"sweep: {len(serial)}/{len(serial)} cells" in err
    assert "ETA" in err


def test_default_grid_steps_each_distinct_ring_once():
    spec = SweepSpec(jobs=1)
    cells = enumerate_cells(spec)
    chunks = _chunks(spec, cells)[1]
    assert check_chunks(spec, cells, chunks) == (1014, 53520)
    # a ring lists its cells in cell order, and the rings follow their first cells
    rings = [cells_ for cells_chunk in plan(chunks) for cells_ in cells_chunk]
    order = {cell: i for i, cell in enumerate(cells)}
    assert all(cells_ == sorted(cells_, key=order.get) for cells_ in rings)
    assert [cells_[0] for cells_ in rings] == sorted((cells_[0] for cells_ in rings),
                                                     key=order.get)
    # 20 all-human rings stand for the 200 cells at p 0, and the one-CAV
    # rings at 5 veh/km and p 0.2 differ in their leader law alone
    shared = {}
    for cells_ in rings:
        if len(cells_) > 1:
            density, p, _ = cells_[0]
            shared.setdefault((p, density), []).append([c for _, _, c in cells_])
    assert shared == {**{(0.0, d): [list(range(1, 11))] for d in spec.densities},
                      (0.2, 5.0): [[1, 5], [2, 6, 7], [3, 8, 9], [4, 10]]}
    # the trajectory benchmark's two dense p 1 cells are distinct rings
    spec = SweepSpec(densities=(95.0,), penetrations=(1.0,), combos=(1, 7), jobs=1)
    assert plan(_chunks(spec, enumerate_cells(spec))[1]) == [[[(95.0, 1.0, 1)],
                                                             [(95.0, 1.0, 7)]]]


def test_copies_match_their_cells_run_alone(monkeypatch, tmp_path, capsys):
    # p 0 rings are all human; at 5 veh/km and p 0.2 one CAV leads alone,
    # with BS as leader law in combos 4 and 10
    spec = small_spec(densities=(5.0, 15.0), penetrations=(0.0, 0.2), combos=(1, 4, 10))
    cells = enumerate_cells(spec)
    build_rings = ring.build_rings
    built = []
    monkeypatch.setattr(ring, "build_rings",
                        lambda config, flags, sizes, *args: built.extend(sizes)
                        or build_rings(config, flags, sizes, *args))
    rows = run_sweep(spec, tmp_path / "sweep")
    assert len(built) == 2 + 2 + 3  # rings at p 0; at 5, then 15 veh/km at p 0.2
    assert rows == [run_chunk(spec.sim, alone(spec, [cell]), tmp_path / "alone")[0]
                    for cell in cells]
    names = sorted(path.name for path in (tmp_path / "alone").iterdir())
    assert len(names) == 2 * len(cells)
    assert names == sorted(path.name for path in (tmp_path / "sweep").iterdir())
    for name in names:
        assert (tmp_path / "sweep" / name).read_bytes() == (
            tmp_path / "alone" / name).read_bytes()
    assert f"sweep: {len(cells)}/{len(cells)} cells" in capsys.readouterr().err


def test_copies_of_a_failed_ring_fail_alike(monkeypatch, tmp_path, capsys):
    spec = small_spec(densities=(15.0, 25.0), penetrations=(0.0,), combos=(1, 2, 3))
    build_rings = ring.build_rings

    def poisoned(config, flags, sizes, *args):
        state = build_rings(config, flags, sizes, *args)
        for size, start in zip(sizes, state.starts):
            if size == 25:  # density 25 on the 1 km ring
                state.v[start + 4] = math.nan
        return state

    monkeypatch.setattr(ring, "build_rings", poisoned)
    rows = run_sweep(spec, tmp_path)
    assert [(r["combo"], r["density"], r["status"]) for r in rows] == [
        (c, d, "ok" if d == 15.0 else "error") for c in (1, 2, 3) for d in (15.0, 25.0)]
    err = capsys.readouterr().err
    for combo in (1, 2, 3):
        assert err.count(f"cell combo={combo} p=0 density=25 failed: non-finite desired "
                         "acceleration for vehicle 4") == 1
    assert "sweep: 6/6 cells" in err
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"cell_c{c}_p0_d15_{kind}.csv" for c in (1, 2, 3) for kind in ("trajectory", "violations"))


@pytest.fixture
def fork_sizes(monkeypatch):
    """Worker counts ``_pool_map`` asks ``_fork_map`` for; each map runs in process."""
    sizes: list[int] = []
    monkeypatch.setattr(experiments, "_fork_map",
                        lambda workers, fn, tasks: sizes.append(workers) or map(fn, tasks))
    return sizes


@pytest.mark.parametrize("densities, workers", [((15.0,), []), ((15.0, 25.0, 35.0), [3])])
def test_pool_has_no_more_workers_than_chunks(monkeypatch, capsys, fork_sizes, densities,
                                              workers):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)  # the chunks bind
    spec = small_spec(densities=densities, penetrations=(1.0,), combos=(1,))
    serial = run_sweep(spec)
    assert fork_sizes == []
    assert run_sweep(dataclasses.replace(spec, jobs=500)) == serial
    assert fork_sizes == workers


@pytest.mark.parametrize("cpus, workers", [(2, [2]), (1, []), (None, [])])
def test_pool_has_no_more_workers_than_cpus(monkeypatch, capsys, fork_sizes, cpus, workers):
    # 3 chunks and 500 jobs: the CPU count binds; an unknown count means one
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    spec = small_spec(densities=(15.0, 25.0, 35.0), penetrations=(1.0,), combos=(1,))
    serial = run_sweep(spec)
    assert run_sweep(dataclasses.replace(spec, jobs=500)) == serial
    assert fork_sizes == workers


def test_fork_map_yields_in_task_order_from_its_workers(monkeypatch, tmp_path):
    # task 0 holds its worker until task 3 is done, so the other worker
    # takes tasks 1 to 3 one after another; the workers inherit the task
    # function, so a local one, which no pickle takes, maps too
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    done = tmp_path / "task3"

    def task(index):
        if index == 0:
            deadline = time.monotonic() + 30
            while not done.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
        elif index == 3:
            done.touch()
        return index, os.getpid()

    with reaps_every_child():
        results = list(_pool_map(2, task, list(range(5))))
    assert [index for index, _ in results] == list(range(5))
    pids = [pid for _, pid in results]
    assert pids[0] != pids[1] == pids[2] == pids[3] and os.getpid() not in pids


def test_a_task_error_is_raised_in_the_parent_with_the_workers_traceback(monkeypatch):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)

    def task(x):
        return 1 / x

    with reaps_every_child():
        with pytest.raises(ZeroDivisionError) as info:
            list(_pool_map(2, task, [1, 0, 2]))
    note = info.value.__notes__[-1]
    assert note.startswith("in worker process ") and "return 1 / x" in note


def test_fork_map_closed_after_its_first_result_leaves_no_child(monkeypatch):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    with reaps_every_child():
        results = _pool_map(2, lambda wait: time.sleep(wait) or wait, [0.0, 0.3, 0.3, 0.3])
        assert next(results) == 0.0
        results.close()  # the other worker is mid-task: it finishes, and is waited for


def test_a_worker_that_dies_mid_task_is_an_error_naming_it(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    real = experiments.run_chunk

    def dies_on_25(sim, chunk, save_dir=None):
        if any(density == 25.0 for _, cells in chunk[1] for density, _, _ in cells):
            (tmp_path / "pid").write_text(str(os.getpid()))
            os._exit(3)
        return real(sim, chunk, save_dir)

    monkeypatch.setattr(experiments, "run_chunk", dies_on_25)
    spec = small_spec(densities=(15.0, 25.0, 35.0), penetrations=(1.0,), combos=(1,), jobs=2)
    with reaps_every_child():
        with pytest.raises(ChildProcessError) as info:
            run_sweep(spec)
    pid = (tmp_path / "pid").read_text()
    assert re.fullmatch(rf"worker process {pid} exited with status 3 during task \d of \d",
                        str(info.value))


def test_text_buffered_before_the_map_is_written_once(tmp_path):
    # a pipe buffers stdout, and stderr keeps a line until it ends: the
    # parent writes both out before it forks, so no worker writes them again
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # it would write each text at once
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(experiments.__file__).parents[1]), env.get("PYTHONPATH"))))
    code = ("import os, sys\n"
            "from platoonflow import experiments\n"
            "os.cpu_count = lambda: 2\n"
            "print('out', end=' ')\n"
            "print('err', end=' ', file=sys.stderr)\n"
            "print(list(experiments._pool_map(2, abs, [-1, -2, -3])))\n"
            "print(file=sys.stderr)")
    with reaps_every_child():
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
    assert (proc.stdout, proc.stderr) == ("out [1, 2, 3]\n", "err \n")


def test_without_fork_the_pool_maps_in_process(monkeypatch, fork_sizes):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    monkeypatch.delattr(experiments.os, "fork")
    assert list(_pool_map(2, abs, [-1, -2, -3])) == [1, 2, 3]
    assert fork_sizes == []


def test_jobs_above_the_cpu_count_plan_as_the_cpu_count(monkeypatch, capsys):
    # 64 jobs on 2 CPUs run 2 workers, so they cut the work as 2 jobs do
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    spec = small_spec(densities=(10.0, 15.0, 20.0, 25.0), penetrations=(1.0,), combos=(1, 2))
    cells = enumerate_cells(spec)
    chunks = {jobs: _chunks(dataclasses.replace(spec, jobs=jobs), cells)[1] for jobs in (2, 64)}
    assert plan(chunks[64]) == plan(chunks[2]) == [[[cell] for cell in cells[:4]],
                                                   [[cell] for cell in cells[4:]]]
    assert [flags.tobytes() for flags, _ in chunks[64]] == [
        flags.tobytes() for flags, _ in chunks[2]]
    batches = []
    monkeypatch.setattr(experiments, "_pool_map",
                        lambda jobs, fn, tasks: batches.append(tasks) or map(fn, tasks))
    reports = [verify_probability_model(n_vehicles=20, runs=3, p_grid=np.arange(1, 9) / 10,
                                        jobs=jobs) for jobs in (2, 64)]
    assert reports[0] == reports[1]
    # 16 points in four batches per worker
    assert batches[0] == batches[1] and [len(batch) for batch in batches[0]] == [2] * 8


def test_each_cell_is_drawn_once(monkeypatch, capsys):
    # p 0 makes one all-human ring of the three combos at each density, and
    # 250 veh/km no ring at all: each (density, p)'s fleet is checked once,
    # and each feasible (density, p) drawn once, all before any chunk runs.
    # A sweep draws at full intensity, which reads no seed, so no cell is
    # seeded and the combos of a (density, p) share its draw
    spec = small_spec(densities=(15.0, 25.0, 250.0), penetrations=(0.0, 0.6),
                      combos=(1, 2, 3))
    cells = enumerate_cells(spec)
    pairs = sorted({(density, p) for density, p, _ in cells})
    feasible = [pair for pair in pairs if pair[0] != 250.0]
    calls = {"cell_fleet": [], "cell_seed": [], "draw_flags": [], "run_chunk": []}
    running = []  # non-empty while run_chunk runs

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append((args, bool(running)))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ring, "cell_fleet", counted("cell_fleet", ring.cell_fleet))
    monkeypatch.setattr(experiments, "cell_seed", counted("cell_seed", experiments.cell_seed))
    monkeypatch.setattr(experiments, "draw_flags", counted("draw_flags", experiments.draw_flags))
    run_chunk = experiments.run_chunk

    def stepped(*args, **kwargs):
        calls["run_chunk"].append(args)
        running.append(True)
        try:
            return run_chunk(*args, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(experiments, "run_chunk", stepped)
    rows = run_sweep(spec)
    assert [r["status"] == "error" for r in rows] == [c[0] == 250.0 for c in cells]
    assert len(calls["run_chunk"]) == 1
    assert sorted(args[1:3] for args, _ in calls["cell_fleet"]) == pairs
    assert len(pairs) == 6 and len(feasible) == 4
    assert calls["cell_seed"] == []
    assert [args[1] for args, _ in calls["draw_flags"]] == [[None]] * len(feasible)
    assert sorted((args[0].n_vehicles, args[0].p) for args, _ in calls["draw_flags"]) == [
        (round(density), p) for density, p in feasible]
    assert not any(inside for name in ("cell_fleet", "cell_seed", "draw_flags")
                   for _, inside in calls[name])


def reference_chunks(spec, cells):
    """``_chunks``, cell by cell: each cell's fleet checked, its row drawn
    and its ring keyed on its own; the failed cells, then each chunk's
    flag rows and rings."""
    failed, rings = [], {}
    for cell in cells:
        try:
            fleet = ring.cell_fleet(spec.sim, *cell)
        except ValueError:
            failed.append(cell)
            continue
        seed = None if fleet.intensity == 1.0 else cell_seed(spec.base_seed, *cell)
        flags = draw_flags(fleet, [seed])[0]
        rings.setdefault(key_of(flags, cell[2]), (flags, []))[1].append(cell)
    cap = _chunk_cap(spec, sum(flags.size for flags, _ in rings.values()))
    chunks, total = [], cap
    for flags, cells_ in rings.values():
        if total + flags.size > cap:
            chunks.append(([], []))
            total = 0
        chunks[-1][0].append(flags.tobytes())
        chunks[-1][1].append((flags.size, cells_))
        total += flags.size
    return failed, [(b"".join(rows), rings_) for rows, rings_ in chunks]


@pytest.mark.parametrize("intensity", [1.0, 0.5])
def test_chunks_match_a_cell_by_cell_pass(monkeypatch, capsys, intensity):
    # the default grid's shape, plus a density no ring holds; below full
    # intensity (which a sweep never draws) each cell is seeded and drawn
    # on its own, so the combos of a (density, p) build rings of their own
    spec = SweepSpec(densities=(*SweepSpec().densities, 250.0), jobs=2)
    if intensity != 1.0:
        cell_fleet = ring.cell_fleet
        monkeypatch.setattr(ring, "cell_fleet", lambda *args: cell_fleet(*args, intensity))
        spec = dataclasses.replace(spec, densities=(15.0, 55.0, 250.0), combos=(1, 4, 5))
    cells = enumerate_cells(spec)
    failed, chunks = _chunks(spec, cells)
    want_failed, want_chunks = reference_chunks(spec, cells)
    assert [(r["density"], r["p"], r["combo"]) for r in failed] == want_failed
    assert [(flags.tobytes(), rings_) for flags, rings_ in chunks] == want_chunks
    if intensity == 1.0:
        assert len(want_failed) == 60 and len(want_chunks) == 14
    else:  # some (density, p) draws two rows for two of its cells
        drawn = {}
        for flags, rings_ in chunks:
            for row, (_, cells_) in zip(np.split(flags, np.cumsum([n for n, _ in rings_])[:-1]),
                                        rings_):
                for density, p, _ in cells_:
                    drawn.setdefault((density, p), set()).add(row.tobytes())
        assert max(len(rows) for rows in drawn.values()) > 1


def test_infeasible_density_fails_each_of_its_cells(capsys):
    # 250 and 300 veh/km hold no ring: each of their cells, and no other,
    # gets its own error row and failed: line, in cell order
    spec = small_spec(densities=(15.0, 250.0, 300.0), penetrations=(0.0, 0.5),
                      combos=(1, 2, 3))
    bad = [cell for cell in enumerate_cells(spec) if cell[0] > 100.0]
    failed, _ = _chunks(spec, enumerate_cells(spec))
    assert [(r["density"], r["p"], r["combo"]) for r in failed] == bad
    assert all(r["status"] == "error" and math.isnan(r["nff_g_per_km"]) for r in failed)
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" failed: ")[0] for line in lines] == [
        f"cell combo={c} p={p:g} density={d:g}" for d, p, c in bad]
    assert all("spacing" in line for line in lines)


def test_infeasible_cells_fail_once_before_any_progress(capsys):
    # 250 and 5000 vehicles on a 50 km ring: each ring its own chunk under
    # the 4096 cap, and 250 veh/km, which no ring holds, follows them
    spec = SweepSpec(densities=(5.0, 100.0, 250.0), penetrations=(1.0,), combos=(1, 2),
                     sim=ring.SimConfig(ring_length=50_000.0, duration=2.0, warmup=1.0),
                     jobs=1)
    assert len(_chunks(spec, enumerate_cells(spec))[1]) == 4
    capsys.readouterr()
    rows = run_sweep(spec)
    assert [r["status"] for r in rows] == ["ok", "ok", "error"] * 2
    lines = capsys.readouterr().err.splitlines()
    first_progress = next(i for i, line in enumerate(lines) if line.startswith("sweep:"))
    for combo in (1, 2):
        failed = [i for i, line in enumerate(lines)
                  if line.startswith(f"cell combo={combo} p=1 density=250 failed: ")]
        assert len(failed) == 1 and failed[0] < first_progress
    assert lines[-1].startswith("sweep: 6/6 cells")


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_of_infeasible_cells_alone(monkeypatch, capsys, jobs):
    # no cell holds a ring, so no chunk runs and no pool starts
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    spec = SweepSpec(densities=(250.0,), penetrations=(0.4,), combos=(1, 2), jobs=jobs)
    rows = run_sweep(spec)
    assert [(r["combo"], r["status"]) for r in rows] == [(1, "error"), (2, "error")]
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" failed: ")[0] for line in lines[:2]] == [
        "cell combo=1 p=0.4 density=250", "cell combo=2 p=0.4 density=250"]
    assert len(lines) == 3 and lines[-1].startswith("sweep: 2/2 cells")


def test_default_grid_chunks_under_a_4096_cap():
    # 53,520 distinct vehicles: 14 chunks of at most 4096, with one worker or two
    for jobs in (1, 2):
        spec = SweepSpec(jobs=jobs)
        cells = enumerate_cells(spec)
        chunks = _chunks(spec, cells)[1]
        assert check_chunks(spec, cells, chunks) == (1014, 53520)
        assert _chunk_cap(spec, 53520) == CHUNK_VEHICLES == 4096
        assert len(chunks) == 14


CHUNK_SIMS = {
    "short": ring.SimConfig(duration=60.0, warmup=30.0),
    "default": ring.SimConfig(),
    "long": ring.SimConfig(duration=7200.0, warmup=0.0),
    "every step": ring.SimConfig(record_every=1),
}


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("horizon", list(CHUNK_SIMS))
@pytest.mark.parametrize("densities", [SweepSpec.densities, (15.0, 25.0)])
def test_chunks_keep_within_their_cap(monkeypatch, densities, horizon, jobs):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)  # the jobs bind
    spec = SweepSpec(densities=densities, sim=CHUNK_SIMS[horizon], jobs=jobs)
    cells = enumerate_cells(spec)
    _, vehicles = check_chunks(spec, cells, _chunks(spec, cells)[1])
    # the horizon does not matter: samples stream through in blocks
    assert _chunk_cap(spec, vehicles) == min(CHUNK_VEHICLES, math.ceil(vehicles / jobs))


def test_small_short_sweep_gives_each_worker_a_chunk(monkeypatch):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    spec = SweepSpec(densities=(100.0,), penetrations=(0.0, 0.25, 0.5, 0.75, 1.0),
                     combos=(1, 2, 3, 4), sim=ring.SimConfig(duration=10.0, warmup=5.0),
                     jobs=2)
    cells = enumerate_cells(spec)
    assert sum(d for d, _, _ in cells) == 2000.0  # fits one chunk at jobs=1
    assert len(_chunks(dataclasses.replace(spec, jobs=1), cells)[1]) == 1
    assert len(_chunks(spec, cells)[1]) >= 2


def test_cell_larger_than_the_cap_runs_alone():
    spec = SweepSpec(sim=ring.SimConfig(ring_length=50_000.0, duration=60.0, warmup=30.0),
                     jobs=1)
    cells = [(5.0, 1.0, 1), (100.0, 1.0, 1), (5.0, 1.0, 2)]  # 250, 5000, 250 vehicles
    assert _chunk_cap(spec, 5500.0) == CHUNK_VEHICLES
    assert plan(_chunks(spec, cells)[1]) == [[[cells[0]]], [[cells[1]]], [[cells[2]]]]
    cells = [(5.0, 1.0, 1), (5.0, 1.0, 2), (100.0, 1.0, 1)]
    assert plan(_chunks(spec, cells)[1]) == [[[cells[0]], [cells[1]]], [[cells[2]]]]
    # at p 0 both small cells are one all-human ring of 250 vehicles
    cells = [(5.0, 0.0, 1), (100.0, 0.0, 1), (5.0, 0.0, 2)]
    assert plan(_chunks(spec, cells)[1]) == [[[cells[0], cells[2]]], [[cells[1]]]]


def test_horizon_off_the_step_grid_gives_error_row():
    # an engine setting fails once, before any cell runs
    with pytest.raises(ValueError, match="whole number of time steps"):
        ring.SimConfig(dt=0.7, duration=1.0, warmup=0.0)


def test_diverging_cell_fails_alone(monkeypatch, capsys):
    spec = small_spec(densities=(15.0, 25.0, 35.0), penetrations=(1.0,), combos=(1,))
    clean = run_sweep(spec)
    build_rings = ring.build_rings

    def poisoned(config, flags, sizes, *args):
        state = build_rings(config, flags, sizes, *args)
        for size, start in zip(sizes, state.starts):
            if size == 25:  # density 25 on the 1 km ring
                state.v[start + 4] = math.nan
        return state

    monkeypatch.setattr(ring, "build_rings", poisoned)
    rows = run_sweep(spec)
    assert [r["status"] for r in rows] == ["ok", "error", "ok"]
    assert math.isnan(rows[1]["nff_g_per_km"])
    assert [rows[0], rows[2]] == [clean[0], clean[2]]
    assert "density=25 failed: non-finite desired acceleration for vehicle 4" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("block, calls", [(None, 1), (1, 5)])
def test_chunk_rows_match_per_ring_reduction(monkeypatch, capsys, block, calls):
    # five samples per vehicle: one block at the default length, five at 1
    if block is not None:
        monkeypatch.setattr(ring, "BLOCK_SAMPLES", block)
    sizes = []
    sample_rates = experiments.sample_rates
    monkeypatch.setattr(experiments, "sample_rates",
                        lambda v, a: sizes.append(v.size) or sample_rates(v, a))
    spec = SweepSpec(densities=(10.0, 15.0, 20.0, 95.0, 250.0), penetrations=(0.6,),
                     combos=tuple(range(1, 11)),
                     sim=ring.SimConfig(duration=20.0, warmup=10.0, record_every=20))
    build_rings = ring.build_rings

    def disturbed(config, flags, sizes, combos):
        # densities on the 1 km ring are vehicle counts
        state = build_rings(config, flags, sizes, combos)
        for size, combo, start in zip(sizes, combos, state.starts):
            if (size, combo) == (15, 4):  # dropped
                state.v[start + 2] = math.nan
            if size == 95 and combo in (5, 7):  # logs violations
                state.x[start + 2] = (state.x[start + 1] - 4.5) % config.ring_length
        return state

    monkeypatch.setattr(ring, "build_rings", disturbed)
    cells = enumerate_cells(spec)
    failed, _ = _chunks(spec, cells)
    feasible = [cell for cell in cells if cell[0] != 250.0]
    rows = run_chunk(spec.sim, alone(spec, feasible))
    # the same rings run and split, each reduced on its own
    kept = [(row, init_state(spec.sim, d, p, c, seed=cell_seed(spec.base_seed, d, p, c)))
            for row, (d, p, c) in zip(rows, feasible)]
    states = [state for _, state in kept]
    stacked = stack(states)
    parts = list(split_log(run_state(stacked, spec.sim), stacked))
    assert len(sizes) == calls  # one sample_rates pass per block
    assert sum(sizes) == 5 * stacked.n
    assert [(r["density"], r["status"]) for r in failed] == [(250.0, "error")] * 10
    assert sum(bool(part.errors) for part in parts) == 1
    assert sum(len(part.violations) for part in parts) > 0
    for (row, _), part in zip(kept, parts):
        if part.errors:
            assert row["status"] == "error"
            continue
        metrics = reduce_log(part)
        assert row["status"] == "ok"
        assert [row[key] for key in METRICS] == pytest.approx(
            [metrics[key] for key in METRICS], rel=SUM_RTOL, abs=0.0)
        assert row["violations"] == len(part.violations)
    capsys.readouterr()


def test_verify_probability_model_structure():
    out = verify_probability_model(n_vehicles=40, runs=30,
                                   p_grid=(0.2, 0.5, 0.8),
                                   intensities=(0.0, 1.0), seed=0)
    assert len(out.fits) == 6  # two intensities, three classes
    for fit in out.fits:
        assert fit["class"] in ("LV1", "LV2", "PV")
        assert fit["intensity"] in (0.0, 1.0)
        assert math.isfinite(fit["rmse"])
    assert len(out.curves) == 2 * 3 * 3
    for cur in out.curves:
        assert 0.0 <= cur["empirical"] <= 1.0
        assert 0.0 <= cur["theoretical"] <= 1.0
    # repeat call is deterministic
    again = verify_probability_model(n_vehicles=40, runs=30,
                                     p_grid=(0.2, 0.5, 0.8),
                                     intensities=(0.0, 1.0), seed=0)
    assert again.fits == out.fits


def test_verify_probability_model_single_point_grid():
    # one p value leaves no variance to explain; flagged, not fatal
    out = verify_probability_model(n_vehicles=30, runs=10, p_grid=(0.5,),
                                   intensities=(0.0,), seed=1)
    assert len(out.fits) == 3
    for fit in out.fits:
        assert math.isnan(fit["r2"])
        assert fit["note"]


def test_verify_probability_model_rejects_bad_counts():
    with pytest.raises(ValueError):
        verify_probability_model(n_vehicles=0, runs=10)
    with pytest.raises(ValueError):
        verify_probability_model(n_vehicles=10, runs=0)
    with pytest.raises(ValueError, match="p_grid is empty"):
        verify_probability_model(n_vehicles=10, runs=2, p_grid=[])
    with pytest.raises(ValueError, match=r"p_grid repeats a value: \[0.5, 0.5\]"):
        verify_probability_model(n_vehicles=10, runs=2, p_grid=[0.5, 0.5])
    with pytest.raises(ValueError, match="jobs must be at least 1, got 0"):
        verify_probability_model(n_vehicles=10, runs=2, jobs=0)


@pytest.mark.parametrize("args", [dict(p_grid=[math.nan]), dict(intensities=(math.nan,)),
                                  dict(p_grid=[0.5, math.nan])],
                         ids=["p_grid", "intensities", "p_grid-second"])
def test_verify_probability_model_rejects_nan(args):
    # one NaN is one bad value, not two values that print alike
    with pytest.raises(ValueError, match=r"^(p_grid|intensities) holds NaN: "):
        verify_probability_model(n_vehicles=10, runs=2, **args)


@pytest.mark.parametrize("args, message", [
    (dict(p_grid=(0.5, 0.5000002, 0.5000004)), "p_grid holds 0.5 and 0.5000002, which a "
                                               "seed key writes alike as 0.5"),
    (dict(intensities=(0.0, 0.1, 0.1000000001)),
     "intensities holds 0.1 and 0.1000000001, which a seed key writes alike as 0.1")],
    ids=["p_grid", "intensities"])
def test_verify_probability_model_rejects_values_seed_keys_print_alike(args, message):
    # such points would get the same seeds: one sample shown as several
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_probability_model(n_vehicles=10, runs=2, **args)


def test_verify_probability_model_is_the_same_at_any_jobs():
    # the points are drawn in batches across workers and put back in grid order
    args = dict(n_vehicles=37, runs=15, p_grid=_grid(0.05, 0.95, 0.1),
                intensities=(0.0, 0.35, 1.0), seed=5)
    serial = verify_probability_model(**args, jobs=1)
    for jobs in (2, 500):
        pooled = verify_probability_model(**args, jobs=jobs)
        assert repr(pooled.fits) == repr(serial.fits)
        assert repr(pooled.curves) == repr(serial.curves)


@pytest.mark.parametrize("cpus, points, workers", [
    (64, 10, [3]),  # jobs binds
    (64, 1, []),    # one point is one batch
    (1, 10, []),
    (None, 10, [])])  # an unknown CPU count means one
def test_verify_probability_model_pool_size(monkeypatch, fork_sizes, cpus, points, workers):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    args = dict(n_vehicles=20, runs=5, p_grid=_grid(0.1, 0.1 * points, 0.1),
                intensities=(0.0,))
    pooled = verify_probability_model(**args, jobs=3)
    assert fork_sizes == workers
    assert repr(pooled) == repr(verify_probability_model(**args, jobs=1))


def test_verify_stability_report():
    report = verify_stability()
    rows = {r["strategy"]: r for r in report["rows"]}
    assert set(rows) == {"CTG(h=1.1)", "CTG(h=0.6)", "VTG1", "CS", "VTG2"}

    assert rows["VTG1"]["margin"] == pytest.approx(0.0624, abs=1e-12)
    assert rows["VTG1"]["stable"]
    assert rows["CTG(h=0.6)"]["margin"] == pytest.approx(0.0612, abs=1e-12)
    assert not rows["CS"]["stable"]
    assert rows["CS"]["caveat"]

    region = report["vtg2_region"]
    assert len(region) == 334  # 0.0 to 33.3 in 0.1 steps
    assert rows["VTG2"]["margin"] == pytest.approx(
        min(m for _, m, _ in region), abs=1e-15)
    assert rows["VTG2"]["margin"] == pytest.approx(0.019260833486176618,
                                                   abs=1e-12)
    assert rows["VTG2"]["stable"]


def test_verify_stability_rejects_negative_speeds():
    # the engine keeps speeds in [0, V_FREE]; a margin over negative speeds means nothing
    with pytest.raises(ValueError, match="must not be negative, got -5.0"):
        verify_stability(v_grid=_grid(-5.0, 1.0, 1.0))
    # 0 and the default grid's last point, a rounding above 33.3, are kept
    region = verify_stability(v_grid=[0.0, 0.1 * 333])["vtg2_region"]
    assert [v for v, _, _ in region] == [0.0, 33.300000000000004]


def test_verify_stability_subset_and_empty():
    report = verify_stability(strategies=["vtg1"])
    assert [r["strategy"] for r in report["rows"]] == ["VTG1"]
    assert report["vtg2_region"] == []

    report = verify_stability(strategies=[])
    assert report == {"rows": [], "vtg2_region": []}


def fabricated_rows():
    rows = []
    for combo in (1, 2):
        for p in (0.0, 0.5):
            for density in (15.0, 55.0):
                base = 100.0 + combo + 10 * p + density
                rows.append({"combo": combo, "p": p, "density": density,
                             "nff_g_per_km": base, "co2_g_per_km": base + 1,
                             "nox_g_per_km": base + 2,
                             "voc_g_per_km": base + 3,
                             "pm_g_per_km": base + 4})
    return rows


def test_emit_plot_data_files(tmp_path):
    paths = emit_plot_data(fabricated_rows(), tmp_path)
    # five metrics, each with one density family and the two reference
    # densities present in the table
    assert len(paths) == 5 * 3
    names = {p.name for p in paths}
    assert "nff_vs_density.csv" in names
    assert "nff_vs_p_d15.csv" in names
    assert "nff_vs_p_d55.csv" in names
    assert "nff_vs_p_d95.csv" not in names

    lines = (tmp_path / "nff_vs_density.csv").read_text().splitlines()
    assert lines[0] == "density,combo1_p0,combo1_p0.5,combo2_p0,combo2_p0.5"
    assert lines[1].split(",")[0] == "15"
    # combo 1, p 0, density 15 fabricated as 116
    assert lines[1].split(",")[1] == "116"

    lines = (tmp_path / "co2_vs_p_d55.csv").read_text().splitlines()
    assert lines[0] == "p,combo1,combo2"
    assert lines[1].split(",")[0] == "0"  # baseline penetration row kept


def test_emit_plot_data_handles_missing_cells(tmp_path):
    rows = fabricated_rows()[1:]  # drop combo 1, p 0, density 55
    emit_plot_data(rows, tmp_path)
    text = (tmp_path / "nff_vs_density.csv").read_text()
    assert "nan" in text


def test_emit_plot_data_empty_table(tmp_path, capsys):
    assert emit_plot_data([], tmp_path) == []
    assert "empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
