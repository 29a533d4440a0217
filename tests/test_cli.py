"""Command-line entry points and the flat config-file loader."""

import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import reaps_every_child

import platoonflow
from platoonflow import experiments
from platoonflow.cli import _int_list, build_parser, main
from platoonflow.csvio import METRICS_HEADER, read_metrics_csv
from platoonflow.experiments import (SweepSpec, _grid, verify_probability_model,
                                     verify_stability)
from platoonflow.ring import SimConfig


def test_sweep_writes_metrics(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", "--densities", "15", "--penetrations", "0.8",
                 "--combos", "1", "--duration", "60", "--warmup", "30",
                 "--outdir", str(out)])
    assert code == 0
    assert "1 cells" in capsys.readouterr().out
    rows = read_metrics_csv(out / "metrics.csv")
    assert len(rows) == 1
    assert rows[0]["combo"] == 1
    assert rows[0]["density"] == 15.0
    assert rows[0]["p"] == 0.8
    assert rows[0]["status"] == "ok"
    assert rows[0]["nff_g_per_km"] > 0.0

    # a bad engine setting fails once, before any cell runs
    for bad, message in ((["--ring-length", "inf"], "ring_length must be finite"),
                         (["--duration", "5", "--warmup", "5"], "no sample"),
                         (["--dt", "0.7", "--duration", "1", "--warmup", "0"],
                          "whole number of time steps"),
                         (["--record-every", "0"], "record_every"),
                         # 1e301 steps: more samples than an index can count
                         (["--duration", "1e300", "--warmup", "10"],
                          "error: duration 1e+300 holds more samples than a run can count\n"),
                         (["--ring-length", "3"], "error: one step at v_max 33.3 m/s over "
                          "dt 0.1 s covers the whole ring of 3.0 m\n"),
                         (["--jobs", "0"], "jobs must be at least 1, got 0"),
                         (["--jobs", "-3"], "jobs must be at least 1, got -3")):
        code = main(["sweep", "--densities", "15", "--penetrations", "0.8", "--combos", "1",
                     "--duration", "60", "--warmup", "30", *bad,
                     "--outdir", str(tmp_path / "bad")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1  # one line, no traceback
        assert not (tmp_path / "bad").exists()


def test_sweep_unusable_outdir_fails_before_any_cell(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["sweep", "--densities", "15,55", "--penetrations", "0.4,1",
                 "--combos", "1-2", "--duration", "30", "--warmup", "0",
                 "--outdir", str(taken)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "sweep:" not in err


def test_sweep_unwritable_metrics_fails_before_any_cell(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "metrics.csv").mkdir(parents=True)
    code = main(["sweep", "--densities", "15,55", "--penetrations", "0.4,1",
                 "--combos", "1-2", "--duration", "30", "--warmup", "0",
                 "--outdir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "sweep:" not in err


def test_combo_ranges_expand(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", "--densities", "15", "--penetrations", "1",
                 "--combos", "1-3", "--duration", "30", "--warmup", "0",
                 "--outdir", str(out)])
    assert code == 0
    rows = read_metrics_csv(out / "metrics.csv")
    assert [r["combo"] for r in rows] == [1, 2, 3]

    # an empty, repeating, NaN or out-of-range axis is an error, not an empty,
    # doubled, NaN or all-error table
    for axes, message in ((["--combos", "10-1"], "range '10-1' runs backwards"),
                          (["--combos", "1,5-3"], "range '5-3' runs backwards"),
                          (["--combos", "1-x"], "--combos '1-x' is neither"),
                          (["--combos", "x"], "--combos 'x' is neither"),
                          (["--combos", "1-"], "--combos '1-' is neither"),
                          (["--combos", ","], "combos is empty"),
                          (["--combos", "1,1"], "combos repeats"),
                          (["--densities", "15,15.0", "--combos", "1"], "densities repeats"),
                          (["--densities", "nan,nan", "--combos", "1"], "densities holds NaN"),
                          (["--penetrations", "nan", "--combos", "1"],
                           "penetrations holds NaN"),
                          (["--penetrations", "1.5", "--combos", "1"], "sweep axis "
                           "penetrations holds 1.5; a penetration must lie in [0, 1]"),
                          (["--penetrations=-0.2", "--combos", "1"], "penetrations holds -0.2"),
                          (["--densities=-5,0,inf", "--combos", "1"], "sweep axis densities "
                           "holds -5.0; a density must be positive and finite"),
                          (["--densities", "0", "--combos", "1"], "densities holds 0.0"),
                          (["--densities", "15,inf", "--combos", "1"], "densities holds inf"),
                          # a combo id outside 1-10 fails before any cell runs
                          (["--combos", "11"], "unknown strategy combo 11; valid combos are "
                                               "1, 2, 3, 4, 5, 6, 7, 8, 9, 10"),
                          (["--combos", "0"], "unknown strategy combo 0"),
                          (["--combos", "9-11"], "unknown strategy combo 11"),
                          # an endpoint is checked before the range is expanded
                          (["--combos", "1-1000000000000000"], "--combos '1-1000000000000000': "
                           "unknown strategy combo 1000000000000000; valid combos are")):
        code = main(["sweep", "--densities", "15", "--penetrations", "1", *axes,
                     "--duration", "30", "--warmup", "0", "--outdir", str(tmp_path / "bad")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()


def test_sweep_rejects_values_metrics_csv_prints_alike(tmp_path, capsys):
    # both penetrations would be written as 0.1: two rows with one set of labels
    code = main(["sweep", "--densities", "15", "--penetrations", "0.1,0.1000000001",
                 "--combos", "1", "--duration", "20", "--warmup", "10",
                 "--outdir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("error: sweep axis penetrations holds 0.1 and 0.1000000001, which "
                   "metrics.csv writes alike as 0.1\n")
    assert not (tmp_path / "out").exists()


def test_plot_data_roundtrip(tmp_path):
    out = tmp_path / "out"
    main(["sweep", "--densities", "15,55", "--penetrations", "0,1",
          "--combos", "1", "--duration", "30", "--warmup", "0",
          "--outdir", str(out)])
    plots = tmp_path / "plots"
    code = main(["plot-data", "--metrics", str(out / "metrics.csv"),
                 "--outdir", str(plots)])
    assert code == 0
    assert (plots / "nff_vs_density.csv").exists()
    assert (plots / "co2_vs_p_d15.csv").exists()
    assert (plots / "co2_vs_p_d55.csv").exists()


def test_plot_data_keeps_close_penetrations_apart(tmp_path):
    # both penetrations print as 0.1 under :g; the second column is named by its repr
    out = tmp_path / "out"
    assert main(["sweep", "--densities", "15", "--penetrations", "0.1,0.1000001",
                 "--combos", "1", "--duration", "30", "--warmup", "0",
                 "--outdir", str(out)]) == 0
    plots = tmp_path / "plots"
    assert main(["plot-data", "--metrics", str(out / "metrics.csv"),
                 "--outdir", str(plots)]) == 0
    lines = (plots / "nff_vs_density.csv").read_text().splitlines()
    assert lines[0] == "density,combo1_p0.1,combo1_p0.1000001"
    assert len(lines) == 2


def test_plot_data_missing_file(tmp_path, capsys):
    code = main(["plot-data", "--metrics", str(tmp_path / "nope.csv"),
                 "--outdir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, code, message", [
    pytest.param("", 1, "metrics.csv:1: expected header density,p,combo,", id="empty-file"),
    pytest.param("density,p,status\n15,0.8,ok\n", 1, "got 'density,p,status'",
                 id="no-combo-column"),
    pytest.param(",".join(METRICS_HEADER) + "\n15,0.8,1\n", 1,
                 "metrics.csv:2: 3 fields, header has 12", id="short-row"),
    pytest.param(",".join(METRICS_HEADER) + "\n" + ",".join(["1"] * 13) + "\n", 1,
                 "metrics.csv:2: 13 fields, header has 12", id="long-row"),
    pytest.param(",".join(METRICS_HEADER) + "\n", 0, "metrics table is empty",
                 id="header-only"),
    pytest.param(",".join(METRICS_HEADER) + "\n" + ("nan,0,1,ok" + ",1" * 8 + "\n") * 2, 1,
                 "metrics.csv:2: density nan is not finite", id="nan-density"),
    pytest.param(",".join(METRICS_HEADER) + "\n" + "15,1,1,ok" + ",1" * 8 + "\n"
                 + "15,1,1,ok" + ",2" * 8 + "\n", 1,
                 "metrics.csv:3: repeats the density, p and combo of line 2",
                 id="repeated-cell"),
])
def test_plot_data_malformed_metrics(tmp_path, capsys, text, code, message):
    # a metrics file from outside the program is checked, not trusted
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(text)
    assert main(["plot-data", "--metrics", str(metrics), "--outdir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1  # one line, no traceback
    assert err.startswith("error: ") == (code == 1)


def test_verify_prob_cmd(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["verify-prob", "--vehicles", "30", "--runs", "20",
                 "--p-start", "0.2", "--p-stop", "0.8", "--p-step", "0.2",
                 "--intensities", "0", "--outdir", str(out)])
    assert code == 0
    assert (out / "probability_fit.csv").exists()
    assert (out / "probability_curves.csv").exists()
    stdout = capsys.readouterr().out
    assert "LV1" in stdout and "r2=" in stdout


def test_verify_prob_cmd_from_p_zero(tmp_path):
    # p = 0 at intensity 0 makes t_AA = 0, the closed form's isolated-CAV case
    out = tmp_path / "out"
    code = main(["verify-prob", "--vehicles", "20", "--runs", "5",
                 "--p-start", "0", "--p-stop", "0.5", "--p-step", "0.25",
                 "--outdir", str(out)])
    assert code == 0
    lines = (out / "probability_curves.csv").read_text().splitlines()
    assert lines[1:4] == ["0,0,LV1,0,0", "0,0,LV2,0,0", "0,0,PV,0,0"]


def test_verify_prob_rejects_empty_or_repeated_intensities(tmp_path, capsys):
    # an empty or repeating list is an error, not a header-only or doubled table
    for intensities, message in ((",", "intensities is empty"),
                                 ("0,0", "intensities repeats a value: (0.0, 0.0)"),
                                 ("1,0.5,1.0", "intensities repeats a value")):
        code = main(["verify-prob", "--vehicles", "20", "--runs", "2",
                     "--intensities", intensities, "--outdir", str(tmp_path / "bad")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "bad").exists()


def test_verify_prob_rejects_p_values_seed_keys_print_alike(tmp_path, capsys):
    # 0.5 and 0.5000002 would draw one sample, written as two curve rows
    code = main(["verify-prob", "--intensities", "0", "--runs", "50", "--p-start", "0.5",
                 "--p-stop", "0.5000004", "--p-step", "0.0000002",
                 "--outdir", str(tmp_path / "bad")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: p_grid holds 0.5 and 0.5000002, which a seed key writes "
                          "alike as 0.5")
    assert err.count("\n") == 1  # one line, no traceback
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("verb, step", [("curves", "--v-step"), ("verify-prob", "--p-step"),
                                        ("verify-stability", "--v-step")])
def test_grid_too_large_for_memory_is_one_error_line(monkeypatch, tmp_path, capsys, verb, step):
    # a step of 1e-13 asks numpy for 3.2e14 points; the grid raises here instead,
    # as allocating it for real could be granted and then touched
    def too_large(start, stop, step):
        raise MemoryError("Unable to allocate 2.27 PiB for an array with shape "
                          "(320000000000000,) and data type float64")
    monkeypatch.setattr("platoonflow.cli._grid", too_large)
    code = main([verb, step, "1e-13", "--outdir", str(tmp_path / "bad")])
    assert code == 1
    assert capsys.readouterr().err == ("error: Unable to allocate 2.27 PiB for an array with "
                                       "shape (320000000000000,) and data type float64\n")
    assert not (tmp_path / "bad").exists()


def test_verify_prob_rejects_nan_intensity(tmp_path, capsys):
    code = main(["verify-prob", "--vehicles", "20", "--runs", "2", "--intensities", "nan",
                 "--outdir", str(tmp_path / "bad")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: intensities holds NaN")
    assert err.count("\n") == 1  # one line, no traceback
    assert not (tmp_path / "bad").exists()


def test_verify_prob_rejects_jobs_below_one(tmp_path, capsys):
    for jobs in ("0", "-3"):
        code = main(["verify-prob", "--vehicles", "20", "--runs", "2", "--jobs", jobs,
                     "--outdir", str(tmp_path / "bad")])
        assert code == 1
        assert capsys.readouterr().err == f"error: jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / "bad").exists()


def test_verify_stability_cmd(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["verify-stability", "--outdir", str(out)])
    assert code == 0
    assert (out / "stability_report.csv").exists()
    assert (out / "stability_region_vtg2.csv").exists()
    stdout = capsys.readouterr().out
    assert "VTG1" in stdout
    assert "NOT string stable" in stdout  # the constant-spacing caveat row


def test_curves_cmd(tmp_path):
    out = tmp_path / "out"
    code = main(["curves", "--v-start", "5", "--v-stop", "10",
                 "--v-step", "1", "--outdir", str(out)])
    assert code == 0
    lines = (out / "equilibrium_curves.csv").read_text().splitlines()
    assert lines[0].startswith("v_mps,")
    assert len(lines) == 7  # header plus six speeds


def test_curves_rejects_bad_step(tmp_path, capsys):
    for bad in (["--v-step", "0"], ["--v-stop", "inf"], ["--v-start", "nan"]):
        code = main(["curves", *bad, "--outdir", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def test_reversed_range_is_rejected_on_every_verb(tmp_path, capsys):
    # a range that holds no point is an error that names it, on every verb
    for verb, bounds, grid in (
            ("verify-prob", ["--p-start", "0.5", "--p-stop", "0.1"], "0.5 to 0.1 by 0.01"),
            ("verify-stability", ["--v-start", "5", "--v-stop", "1"], "5.0 to 1.0 by 0.1"),
            ("curves", ["--v-start", "5", "--v-stop", "1"], "5.0 to 1.0 by 1.0")):
        code = main([verb, *bounds, "--outdir", str(tmp_path / "bad")])
        assert code == 1
        assert capsys.readouterr().err == f"error: grid from {grid} holds no point\n"
        assert not (tmp_path / "bad").exists()
    # a single point is still a grid
    assert _grid(0.5, 0.5, 0.1).tolist() == [0.5]


def test_grids_end_at_stop(tmp_path):
    # 0.01 + 0.02 * 50 = 1.01 would be past --p-stop 1.0, an invalid penetration
    out = tmp_path / "prob"
    code = main(["verify-prob", "--vehicles", "20", "--runs", "2", "--p-start", "0.01",
                 "--p-stop", "1.0", "--p-step", "0.02", "--intensities", "1",
                 "--outdir", str(out)])
    assert code == 0
    lines = (out / "probability_curves.csv").read_text().splitlines()
    assert len(lines) == 1 + 50 * 3
    assert lines[-1].startswith("1,0.99,")
    out = tmp_path / "curves"
    assert main(["curves", "--v-stop", "33.6", "--outdir", str(out)]) == 0
    lines = (out / "equilibrium_curves.csv").read_text().splitlines()
    assert len(lines) == 1 + 33 and lines[-1].startswith("33,")
    # a stop a whole number of steps away is kept despite float error
    assert len(_grid(0.01, 0.99, 0.01)) == 99
    assert len(_grid(0.0, 33.3, 0.1)) == 334
    assert len(_grid(1.0, 33.0, 1.0)) == 33


def test_cli_defaults_are_the_library_defaults():
    _, subs = build_parser()
    prob = subs["verify-prob"].parse_args([])
    stab = subs["verify-stability"].parse_args([])
    # the grids each library function visits when given none
    p_lib = [c["p"] for c in verify_probability_model(n_vehicles=1, runs=1,
                                                      intensities=(1.0,)).curves
             if c["class"] == "LV1"]
    v_lib = [v for v, _, _ in verify_stability()["vtg2_region"]]
    for cli, lib, spelled in (
            (_grid(prob.p_start, prob.p_stop, prob.p_step), p_lib,
             np.arange(0.01, 0.995, 0.01)),
            (_grid(stab.v_start, stab.v_stop, stab.v_step), v_lib,
             np.arange(0.0, 33.31, 0.1))):
        bits = cli.view(np.int64).tolist()
        assert bits == np.array(lib).view(np.int64).tolist()
        assert bits == spelled.view(np.int64).tolist()
    lib = inspect.signature(verify_probability_model).parameters
    for option, param in (("vehicles", "n_vehicles"), ("runs", "runs"),
                          ("intensities", "intensities"), ("seed", "seed")):
        assert getattr(prob, option) == lib[param].default, option
    # one worker default for both batch verbs: one per CPU
    assert prob.jobs == lib["jobs"].default == SweepSpec.jobs == (os.cpu_count() or 1)
    sweep = subs["sweep"].parse_args([])
    assert sweep.jobs == SweepSpec.jobs
    assert _int_list(sweep.combos) == SweepSpec.combos
    # the engine options are the SimConfig fields, with their defaults
    engine = {name: value for name, value in vars(sweep).items()
              if name not in ("config", "outdir", "densities", "penetrations", "combos",
                              "seed", "jobs", "save_trajectories")}
    assert engine == {f.name: f.default for f in fields(SimConfig)}
    assert [type(value) for value in engine.values()] == [type(f.default)
                                                          for f in fields(SimConfig)]


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# desk-size run\ndensities=55\nduration=60\nwarmup=30\n"
                   "save-trajectories=Yes\n")
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--penetrations", "1",
                 "--combos", "1", "--outdir", str(out)])
    assert code == 0
    rows = read_metrics_csv(out / "metrics.csv")
    assert [r["density"] for r in rows] == [55.0]
    assert (out / "trajectories" / "cell_c1_p1_d55_trajectory.csv").exists()

    # an explicit flag wins over the config value; = form also accepted
    out2 = tmp_path / "out2"
    code = main(["sweep", f"--config={cfg}", "--densities", "15",
                 "--penetrations", "1", "--combos", "1",
                 "--outdir", str(out2)])
    assert code == 0
    rows = read_metrics_csv(out2 / "metrics.csv")
    assert [r["density"] for r in rows] == [15.0]


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # a typo, and keys that belong to another verb's options
    for verb, text in (("sweep", "densitees=55\n"),
                       ("verify-stability", "vehicles=5\ncombos=1-3\n")):
        cfg.write_text(text)
        code = main([verb, "--config", str(cfg), "--outdir", str(tmp_path)])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err


def test_config_file_bad_value(tmp_path, capsys):
    # a value its option cannot convert names the file, the line and the key
    cfg = tmp_path / "cfg.txt"
    for text, message in (("jobs=abc\n", "1: jobs: invalid literal for int() with base 10: 'abc'"),
                          ("# desk\n\ndensities=1,x\n",
                           "3: densities: could not convert string to float: 'x'"),
                          # a misspelled flag value is not read as false
                          ("save-trajectories=ture\n",
                           "1: save-trajectories: expected true or false, got 'ture'"),
                          ("densities 55\n", "1: expected KEY=VALUE, got 'densities 55'")):
        cfg.write_text(text)
        code = main(["sweep", "--config", str(cfg), "--outdir", str(tmp_path / "bad")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}:{message}\n"
        assert not (tmp_path / "bad").exists()


def import_cli(preset):
    """OPENBLAS_NUM_THREADS and the thread count (-1 where there is no
    /proc/self/task) of a fresh interpreter after ``import platoonflow.cli``,
    started with OPENBLAS_NUM_THREADS unset or set to ``preset``."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(platoonflow.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import os, platoonflow.cli\n"
            "task = '/proc/self/task'\n"
            "threads = len(os.listdir(task)) if os.path.isdir(task) else -1\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), threads)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    value, threads = proc.stdout.split()
    return value, int(threads)


@pytest.mark.parametrize("preset, value", [(None, "1"), ("3", "3")])
def test_cli_sets_one_blas_thread_unless_told_otherwise(preset, value):
    # no command does linear algebra; a value the caller set still wins
    assert import_cli(preset)[0] == value


def test_cli_import_starts_no_blas_thread():
    threads = import_cli(None)[1]
    if threads == -1:
        pytest.skip("no /proc/self/task to count threads in")
    assert threads == 1


def _loaded_modules(tmp_path, argvs: list, names: list) -> list[list[bool]]:
    """Which of ``names`` a fresh interpreter holds after ``import numpy``, after
    ``from platoonflow import cli`` and after each ``cli.main`` call of ``argvs``.

    It reports two CPUs, so a ``--jobs 2`` call forks its workers on any machine.
    """
    src = str(Path(platoonflow.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import contextlib, json, os, sys\n"
            "os.cpu_count = lambda: 2\n"
            "names = json.loads(sys.argv[2])\n"
            "loaded = lambda: [name in sys.modules for name in names]\n"
            "import numpy\n"
            "report = [loaded()]\n"
            "from platoonflow import cli\n"
            "report.append(loaded())\n"
            "with contextlib.redirect_stdout(sys.stderr):\n"
            "    for argv in json.loads(sys.argv[1]):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "        report.append(loaded())\n"
            "print(json.dumps(report))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs), json.dumps(names)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


SWEEP = ["sweep", "--densities", "15,25", "--penetrations", "0.8", "--combos", "1",
         "--duration", "20", "--warmup", "10", "--save-trajectories", "--record-every", "1"]


def _each_verb(prob_jobs: int) -> list[list[str]]:
    """A call of each verb: sweep on one process and on two, verify-prob on ``prob_jobs``."""
    return [SWEEP + ["--jobs", "1", "--outdir", "sweep1"],
            SWEEP + ["--jobs", "2", "--outdir", "sweep2"],
            ["curves", "--outdir", "curves"],
            ["verify-stability", "--outdir", "stability"],
            ["plot-data", "--metrics", "sweep1/metrics.csv", "--outdir", "plots"],
            ["verify-prob", "--runs", "5", "--p-step", "0.1", "--jobs", f"{prob_jobs}",
             "--outdir", "prob"]]


def test_only_a_hashed_seed_loads_openssl(tmp_path):
    # _hashlib is OpenSSL, loaded by `import hashlib`: no verb that hashes
    # no seed loads it, and verify-prob, which hashes its draws' seeds,
    # does. numpy 1.x loads it itself (numpy.random -> secrets), so each
    # verb is checked against what `import numpy` alone leaves
    argvs = _each_verb(prob_jobs=1)
    (by_numpy,), _, *loaded = _loaded_modules(tmp_path, argvs, ["_hashlib"])
    assert [flag for flag, in loaded] == [by_numpy] * (len(argvs) - 1) + [True]


def test_no_verb_loads_a_process_pool(tmp_path):
    # the workers are forked over plain pipes, so neither the import nor
    # any verb, in one process or on two workers, loads multiprocessing
    argvs = _each_verb(prob_jobs=2)
    loaded = _loaded_modules(tmp_path, argvs, ["concurrent.futures", "multiprocessing"])
    assert loaded == [[False, False]] * (len(argvs) + 2)


def test_a_worker_error_is_the_one_error_line_of_one_process(monkeypatch, tmp_path, capfd):
    # each chunk fails to make its trajectories directory, a file here: on
    # two workers the first chunk's error reaches the parent and prints as
    # in one process
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    forks = []
    fork_map = experiments._fork_map
    monkeypatch.setattr(experiments, "_fork_map",
                        lambda workers, *rest: forks.append(workers) or fork_map(workers, *rest))
    errs = []
    for jobs in (1, 2):
        run = tmp_path / f"jobs{jobs}"
        (run / "out").mkdir(parents=True)
        (run / "out" / "trajectories").write_text("")
        monkeypatch.chdir(run)
        with reaps_every_child():
            assert main(SWEEP + ["--jobs", f"{jobs}", "--outdir", "out"]) == 1
        errs.append(capfd.readouterr().err)
    assert forks == [2]
    assert errs[0] == errs[1] == "error: [Errno 17] File exists: 'out/trajectories'\n"


def test_build_parser_lists_all_verbs():
    parser, subs = build_parser()
    assert set(subs) == {"sweep", "verify-prob", "verify-stability",
                         "curves", "plot-data"}
    assert parser.prog
