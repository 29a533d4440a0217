"""Command-line entry points and the flat config-file loader."""

import pytest

from platoonflow.cli import _grid, build_parser, main
from platoonflow.csvio import read_metrics_csv


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
                         (["--record-every", "0"], "record_every")):
        code = main(["sweep", "--densities", "15", "--penetrations", "0.8", "--combos", "1",
                     "--duration", "60", "--warmup", "30", *bad,
                     "--outdir", str(tmp_path / "bad")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "bad").exists()


def test_combo_ranges_expand(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", "--densities", "15", "--penetrations", "1",
                 "--combos", "1-3", "--duration", "30", "--warmup", "0",
                 "--outdir", str(out)])
    assert code == 0
    rows = read_metrics_csv(out / "metrics.csv")
    assert [r["combo"] for r in rows] == [1, 2, 3]

    # an empty or repeating axis is an error, not an empty or doubled table
    for axes, message in ((["--combos", "10-1"], "combos is empty"),
                          (["--combos", "1,1"], "combos repeats"),
                          (["--densities", "15,15.0", "--combos", "1"], "densities repeats")):
        code = main(["sweep", "--densities", "15", "--penetrations", "1", *axes,
                     "--duration", "30", "--warmup", "0", "--outdir", str(tmp_path / "bad")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()


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


def test_plot_data_missing_file(tmp_path, capsys):
    code = main(["plot-data", "--metrics", str(tmp_path / "nope.csv"),
                 "--outdir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# desk-size run\ndensities=55\nduration=60\nwarmup=30\n")
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--penetrations", "1",
                 "--combos", "1", "--outdir", str(out)])
    assert code == 0
    rows = read_metrics_csv(out / "metrics.csv")
    assert [r["density"] for r in rows] == [55.0]

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


def test_build_parser_lists_all_verbs():
    parser, subs = build_parser()
    assert set(subs) == {"sweep", "verify-prob", "verify-stability",
                         "curves", "plot-data"}
    assert parser.prog
