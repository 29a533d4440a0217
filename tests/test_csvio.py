"""CSV serialization: formatting, schema checks, per-artifact writers."""

import math

import numpy as np
import pytest

from platoonflow import csvio
from platoonflow.csvio import (METRICS_HEADER, format_value, write_csv,
                               write_curves_csv, write_metrics_csv,
                               write_region_csv, write_trajectory_csv,
                               write_violations_csv)
from platoonflow.ring import SimConfig, Violation, run


def test_format_value():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(1.5) == "1.5"
    assert format_value(0.1 + 0.2) == "0.3"  # nine significant digits
    assert format_value(123456789.123) == "123456789"
    assert format_value(math.nan) == "nan"
    assert format_value(7) == "7"
    assert format_value("ok") == "ok"


def test_write_csv_basic(tmp_path):
    path = write_csv(tmp_path / "sub" / "t.csv", ("a", "b"),
                     [(1, 2.5), (2, 3.5)])
    assert path.read_text() == "a,b\n1,2.5\n2,3.5\n"


def test_write_csv_rejects_malformed(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ("a", "a"), [])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ("a", ""), [])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ("a", "b"), [(1,)])


def test_write_csv_enforces_sort_keys(tmp_path):
    write_csv(tmp_path / "ok.csv", ("a", "b"), [(1, 9), (1, 9), (2, 0)],
              key_cols=(0,))
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a", "b"), [(2, 0), (1, 9)],
                  key_cols=(0,))
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad2.csv", ("a", "b"),
                  [(1, 2), (2, 1), (2, 0)], key_cols=(0, 1))


def test_write_metrics_csv_header(tmp_path):
    assert METRICS_HEADER == (
        "density", "p", "combo", "status", "mean_speed_mps", "mean_nfr",
        "nff_g_per_km", "co2_g_per_km", "nox_g_per_km", "voc_g_per_km",
        "pm_g_per_km", "violations")
    row = {k: 1.0 for k in METRICS_HEADER}
    row.update(combo=3, status="ok", violations=0)
    path = write_metrics_csv([row], tmp_path / "m.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(METRICS_HEADER)
    assert lines[1].split(",")[3] == "ok"


def test_trajectory_writer_header_and_rows(tmp_path):
    log = run(SimConfig(duration=2.0, warmup=0.0, record_every=10), 10.0, 0.8, 5)
    path = write_trajectory_csv(log, tmp_path / "traj.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "t,vehicle_index,x,v,a"
    assert len(lines) == 1 + log.times.size * 10


@pytest.mark.parametrize("block_rows", [1, 25, 1 << 15])
def test_trajectory_writer_matches_row_writer(tmp_path, monkeypatch, block_rows):
    log = run(SimConfig(duration=3.0, warmup=0.0, record_every=2), 10.0, 0.8, 5)
    log.x[1, 2], log.v[2, 3], log.a[3, 4] = math.nan, -0.0, 1e-300
    monkeypatch.setattr(csvio, "_TRAJECTORY_BLOCK_ROWS", block_rows)
    fast = write_trajectory_csv(log, tmp_path / "fast.csv")
    rows = [(float(t), veh, float(log.x[i, veh]), float(log.v[i, veh]),
             float(log.a[i, veh]))
            for i, t in enumerate(log.times) for veh in range(log.x.shape[1])]
    ref = write_csv(tmp_path / "ref.csv", ("t", "vehicle_index", "x", "v", "a"), rows)
    assert fast.read_bytes() == ref.read_bytes()

    log.times[3] = 0.0
    with pytest.raises(ValueError, match="non-decreasing"):
        write_trajectory_csv(log, tmp_path / "bad.csv")


def test_violations_writer(tmp_path):
    log = run(SimConfig(duration=1.0, warmup=0.0), 10.0, 0.0, 1)
    log.violations.extend([Violation(0.5, 3, -0.25), Violation(0.7, 1, -0.5)])
    path = write_violations_csv(log, tmp_path / "v.csv")
    lines = path.read_text().splitlines()
    assert lines == ["t,follower_index,gap", "0.5,3,-0.25", "0.7,1,-0.5"]


def test_region_writer(tmp_path):
    path = write_region_csv([(0.0, 0.019, True), (1.0, 0.02, True)], "VTG2",
                            tmp_path / "r.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "strategy,v_e,margin,stable"
    assert lines[1] == "VTG2,0,0.019,true"


def test_curves_writer(tmp_path):
    rows = [{"v_mps": 10.0, "nfr": 2.0951613181342945,
             "nff_g_per_km": 209.51613181342945, "co2_g_per_km": 1.0,
             "nox_g_per_km": 0.0, "voc_g_per_km": 0.1, "pm_g_per_km": 0.0}]
    path = write_curves_csv(rows, tmp_path / "c.csv")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("v_mps,nfr,")
    # nine significant digits throughout
    assert lines[1].split(",")[1] == "2.09516132"
