"""CSV serialization: formatting, schema checks, per-artifact writers."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import run

from platoonflow import csvio
from platoonflow.cli import main
from platoonflow.controllers import Strategy
from platoonflow.csvio import (METRICS_HEADER, TRAJECTORY_HEAD, append_trajectory,
                               format_value, read_metrics_csv, write_csv, write_metrics_csv,
                               write_rows, write_violations_csv)
from platoonflow.energy import METRICS, summarize
from platoonflow.ring import BLOCK_SAMPLES, SimConfig, TrajectoryLog, Violation


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


def test_write_csv_rows_read_as_format_value_writes_them(tmp_path):
    # rows of floats, ints and strs go through one template per type tuple,
    # the rest value by value; a column may change its type between rows
    rows = [
        (True, False, -7, 10 ** 9, 12345678901234567890, "ok"),
        (math.nan, math.inf, -math.inf, -0.0, 1e-5, 1e16),
        (np.float64(0.1 + 0.2), np.int64(-3), "stalled", Strategy.CTG, 2.5, 3),
        (1, 2.5, "a", 3, 4.0, "b"),
        (1.0, 2, "a", "3", 4, 5.0),
        (1, 2.5, "a", 3, 4.0, "b"),
        (1, 2.5, "a", True, 4.0, np.float64(1e-7)),
        (-1, -2.5e-300, "%d", -0, 0.0, "%s%%"),
    ]
    path = write_csv(tmp_path / "mixed.csv", tuple("abcdef"), rows)
    assert path.read_text().splitlines()[1:] == [",".join(format_value(v) for v in row)
                                                 for row in rows]
    assert path.read_text().splitlines()[1:4] == [
        "true,false,-7,1000000000,12345678901234567890,ok",
        "nan,inf,-inf,-0,1e-05,1e+16",
        "0.3,-3,stalled,CTG,2.5,3"]


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


def test_metric_columns_come_from_summarize():
    # summarize names every metric column, and metrics.csv holds them in its order
    for means in ((1.0, 10.0, 0.5, 0.1, 0.2, 0.3), (1.0, 0.0, 0.5, 0.1, 0.2, 0.3)):
        assert tuple(summarize(means)) == METRICS
    start = METRICS_HEADER.index(METRICS[0])
    assert METRICS_HEADER[start:start + len(METRICS)] == METRICS


def test_report_headers(tmp_path):
    # a report's columns are the keys of its rows: renaming a key renames a column
    for argv in (["verify-prob", "--vehicles", "10", "--runs", "2", "--p-start", "0.2",
                  "--p-stop", "0.5", "--p-step", "0.3", "--intensities", "0,1", "--jobs", "1"],
                 ["verify-stability", "--v-start", "5", "--v-stop", "15", "--v-step", "10"],
                 ["curves", "--v-start", "1", "--v-stop", "2"]):
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
    heads = {name: (tmp_path / name).read_text().split("\n", 1)[0] for name in (
        "probability_fit.csv", "probability_curves.csv", "stability_report.csv",
        "stability_region_vtg2.csv", "equilibrium_curves.csv")}
    assert heads == {
        "probability_fit.csv": "intensity,class,r2,rmse,note",
        "probability_curves.csv": "intensity,p,class,empirical,theoretical",
        "stability_report.csv": "strategy,k_in_range,margin,stable,caveat",
        "stability_region_vtg2.csv": "strategy,v_e,margin,stable",
        "equilibrium_curves.csv":
            "v_mps,nfr,nff_g_per_km,co2_g_per_km,nox_g_per_km,voc_g_per_km,pm_g_per_km"}


def test_write_rows_rejects_a_table_without_one_header(tmp_path):
    with pytest.raises(ValueError, match="no rows to take a header from"):
        write_rows([], tmp_path / "empty.csv")
    rows = [{"v_e": 1.0, "margin": 0.5}, {"margin": 0.5, "v_e": 2.0}]
    with pytest.raises(ValueError, match="row keyed"):
        write_rows(rows, tmp_path / "mixed.csv")
    rows[1] = {"v_e": 2.0}
    with pytest.raises(ValueError, match="row keyed"):
        write_rows(rows, tmp_path / "narrow.csv")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("density, p, message", [
    ("nan", "0", "density nan is not finite"),
    ("15", "inf", "p inf is not finite"),
    ("-inf", "0.5", "density -inf is not finite")])
def test_read_metrics_csv_rejects_labels_that_are_not_finite(tmp_path, density, p, message):
    # two NaN cells would never match in the repeated-cell check
    path = tmp_path / "metrics.csv"
    row = f"{density},{p},1,ok" + ",1" * 8
    path.write_text("\n".join([",".join(METRICS_HEADER), row, row, ""]))
    with pytest.raises(ValueError, match=f"^{path}:2: {message}$"):
        read_metrics_csv(path)


def test_trajectory_writer_header_and_rows(tmp_path):
    log = run(SimConfig(duration=2.0, warmup=0.0, record_every=10), 10.0, 0.8, 5)
    path = tmp_path / "traj.csv"
    with open(path, "w") as fh:
        fh.write(TRAJECTORY_HEAD)
        append_trajectory(fh, log.times, log.x, log.v, log.a)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,vehicle_index,x,v,a"
    assert len(lines) == 1 + log.times.size * 10


# printed in exponent notation, rounded across a power of ten at nine
# digits, or at the ends of the float range
_AWKWARD = (3.25e-5, -7.5e-7, 9.999999996e-5, -9.999999996e-5, 999999999.6, 1e16,
            math.inf, -math.inf, math.nan, -0.0, 1e-300, 5e-324, 1.7976931348623157e308)


def _awkward_log(m, n):
    """An m-sample, n-vehicle log of values of every magnitude, each awkward one included."""
    rng = np.random.default_rng(m * 1000 + n)
    x, v, a = (rng.choice([-1.0, 1.0], (m, n)) * 10.0 ** rng.uniform(-8, 10, (m, n))
               for _ in range(3))
    for k, value in enumerate(_AWKWARD):
        (x, v, a)[k % 3].flat[k % (m * n)] = value
    times = 10.0 ** rng.uniform(-6, 9, m)
    times[:2] = 9.999999996e-5, 999999999.6
    return TrajectoryLog(times=np.sort(times), x=x, v=v, a=a, violations=[])


@pytest.mark.parametrize("shape, block_rows", [
    *(pytest.param(None, rows, id=str(rows)) for rows in (1, 25, 1 << 15)),
    # one vehicle; 7 samples are not a whole number of 3-sample blocks
    pytest.param((7, 1), 3, id="awkward-7x1-3"),
    # more vehicles than a block has rows
    pytest.param((5, 40), 25, id="awkward-5x40-25"),
    pytest.param((30, 95), 1 << 14, id="awkward-30x95-16384"),
])
def test_trajectory_writer_matches_row_writer(tmp_path, monkeypatch, shape, block_rows):
    if shape is None:
        log = run(SimConfig(duration=3.0, warmup=0.0, record_every=2), 10.0, 0.8, 5)
        log.x[1, 2], log.v[2, 3], log.a[3, 4] = math.nan, -0.0, 1e-300
    else:
        log = _awkward_log(*shape)
    monkeypatch.setattr(csvio, "_TRAJECTORY_BLOCK_ROWS", block_rows)
    fast = tmp_path / "fast.csv"
    with open(fast, "w") as fh:  # as a sweep writes a ring's file
        fh.write(TRAJECTORY_HEAD)
        for lo in range(0, log.times.size, BLOCK_SAMPLES):
            hi = lo + BLOCK_SAMPLES
            append_trajectory(fh, log.times[lo:hi], log.x[lo:hi], log.v[lo:hi], log.a[lo:hi])
    rows = [(float(t), veh, float(log.x[i, veh]), float(log.v[i, veh]),
             float(log.a[i, veh]))
            for i, t in enumerate(log.times) for veh in range(log.x.shape[1])]
    ref = write_csv(tmp_path / "ref.csv", ("t", "vehicle_index", "x", "v", "a"), rows)
    assert fast.read_bytes() == ref.read_bytes()


def test_trajectory_writer_memory_is_flat_in_the_rows(tmp_path, monkeypatch):
    # the peak is one sub-block's rows, however many rows a block holds;
    # a sub-block is never less than one sample, so n stays within the bound
    monkeypatch.setattr(csvio, "_TRAJECTORY_BLOCK_ROWS", 1024)
    peaks = []
    for n in (100, 400):
        log = _awkward_log(BLOCK_SAMPLES, n)
        with open(tmp_path / f"traj_{n}.csv", "w") as fh:
            tracemalloc.start()
            try:
                append_trajectory(fh, log.times, log.x, log.v, log.a)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def test_violations_writer(tmp_path):
    log = run(SimConfig(duration=1.0, warmup=0.0), 10.0, 0.0, 1)
    log.violations.extend([Violation(0.5, 3, -0.25), Violation(0.7, 1, -0.5)])
    path = write_violations_csv(log.violations, tmp_path / "v.csv")
    lines = path.read_text().splitlines()
    assert lines == ["t,follower_index,gap", "0.5,3,-0.25", "0.7,1,-0.5"]


def test_region_writer(tmp_path):
    path = write_rows([{"strategy": "VTG2", "v_e": 0.0, "margin": 0.019, "stable": True},
                       {"strategy": "VTG2", "v_e": 1.0, "margin": 0.02, "stable": True}],
                      tmp_path / "r.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "strategy,v_e,margin,stable"
    assert lines[1] == "VTG2,0,0.019,true"


def test_curves_writer(tmp_path):
    rows = [{"v_mps": 10.0, "nfr": 2.0951613181342945,
             "nff_g_per_km": 209.51613181342945, "co2_g_per_km": 1.0,
             "nox_g_per_km": 0.0, "voc_g_per_km": 0.1, "pm_g_per_km": 0.0}]
    path = write_rows(rows, tmp_path / "c.csv", key_cols=(0,))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("v_mps,nfr,")
    # nine significant digits throughout
    assert lines[1].split(",")[1] == "2.09516132"
