"""Sweep orchestration, verification harnesses, and plot-data pivoting."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from platoonflow import ring
from platoonflow.csvio import METRICS_HEADER, write_metrics_csv
from platoonflow.experiments import (CHUNK_VEHICLES, PLOT_METRICS, SweepSpec, _chunks,
                                     cell_seed, emit_plot_data, enumerate_cells,
                                     run_cell, run_sweep,
                                     verify_probability_model,
                                     verify_stability)

DESK = dict(sim=ring.SimConfig(duration=60.0, warmup=30.0))


def small_spec(**kw):
    base = dict(densities=(15.0, 25.0), penetrations=(0.0, 1.0),
                combos=(1, 3), **DESK)
    base.update(kw)
    return SweepSpec(**base)


def test_cell_seed_matches_digest():
    # independent transcription of the derivation
    def reference(base, density, p, combo):
        key = f"{base}:{density:.6g}:{p:.6g}:{combo}"
        return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8],
                              "big")

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
    row = run_cell(spec, 15.0, 0.8, 1)
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
    row = run_cell(spec, 250.0, 1.0, 1)  # spacing below vehicle length
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
    run_cell(spec, 15.0, 0.8, 1, save_dir=tmp_path)
    assert (tmp_path / "cell_c1_p0.8_d15_trajectory.csv").exists()
    assert (tmp_path / "cell_c1_p0.8_d15_violations.csv").exists()


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


def test_run_sweep_parallel_matches_serial(capsys):
    serial = run_sweep(small_spec(jobs=1))
    parallel = run_sweep(small_spec(jobs=2))
    assert serial == parallel

    # dense cells fill several chunks, so two workers each step some
    spec = small_spec(densities=(95.0, 100.0), penetrations=(0.0, 0.6, 1.0),
                      combos=tuple(range(1, 11)),
                      sim=ring.SimConfig(duration=10.0, warmup=5.0))
    chunks = list(_chunks(spec, enumerate_cells(spec)))
    assert len(chunks) >= 3
    assert all(sum(d for d, _, _ in chunk) <= CHUNK_VEHICLES for chunk in chunks)
    serial = run_sweep(spec)
    assert serial == run_sweep(dataclasses.replace(spec, jobs=2))
    # chunking changes no number: every row is its cell run alone
    assert serial == [run_cell(spec, r["density"], r["p"], r["combo"]) for r in serial]
    err = capsys.readouterr().err
    assert f"sweep: {len(serial)}/{len(serial)} cells" in err
    assert "ETA" in err


def test_horizon_off_the_step_grid_gives_error_row():
    # an engine setting fails once, before any cell runs
    with pytest.raises(ValueError, match="whole number of time steps"):
        ring.SimConfig(dt=0.7, duration=1.0, warmup=0.0)


def test_diverging_cell_fails_alone(monkeypatch, capsys):
    spec = small_spec(densities=(15.0, 25.0, 35.0), penetrations=(1.0,), combos=(1,))
    clean = run_sweep(spec)
    init_state = ring.init_state

    def poisoned(config, density, *args, **kwargs):
        state = init_state(config, density, *args, **kwargs)
        if density == 25.0:
            state.v[4] = math.nan
        return state

    monkeypatch.setattr(ring, "init_state", poisoned)
    rows = run_sweep(spec)
    assert [r["status"] for r in rows] == ["ok", "error", "ok"]
    assert math.isnan(rows[1]["nff_g_per_km"])
    assert [rows[0], rows[2]] == [clean[0], clean[2]]
    assert "density=25 failed: non-finite desired acceleration for vehicle 4" in (
        capsys.readouterr().err)


def test_verify_probability_model_structure():
    out = verify_probability_model(n_vehicles=40, runs=30,
                                   p_grid=(0.2, 0.5, 0.8),
                                   intensities=(0.0, 1.0), seed=0)
    assert len(out.fits) == 6  # two intensities, three classes
    for fit in out.fits:
        assert fit["cls"] in ("LV1", "LV2", "PV")
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
