"""Acceptance criteria, one printed verdict line per criterion.

Verdicts are printed inline (visible under -s) and queued for the
terminal summary so they also appear in a default captured run.
"""

import random
import time

import numpy as np
import pytest
import conftest
from conftest import equilibrium_flow, run_state

from platoonflow.controllers import (H_FOLLOWER, H_LEADER, ControlContext,
                                     Strategy, ctg_accel, equilibrium_gap,
                                     vtg1_accel, vtg2_accel)
from platoonflow.csvio import write_metrics_csv
from platoonflow.energy import emission_rate, equilibrium_curves, nfr
from platoonflow.experiments import (SweepSpec, _chunks, emit_plot_data, run_chunk,
                                     run_sweep, verify_probability_model,
                                     verify_stability)
from platoonflow.fleet import LV1, LV2, PV, class_probabilities
from platoonflow.ring import SimConfig
from platoonflow.stability import (equilibrium_partials, string_stable,
                                   transfer_magnitude)

POLLUTANT_COLS = ("co2_g_per_km", "nox_g_per_km", "voc_g_per_km",
                  "pm_g_per_km")


def report(criterion, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line, flush=True)
    conftest.VERDICTS.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk():
    """The reduced experiment grid behind criterion 7, run once."""
    spec = SweepSpec(sim=SimConfig(duration=600.0, warmup=300.0))
    cells = ([(15.0, 0.8, c) for c in range(1, 11)]
             + [(55.0, p, 4) for p in (0.6, 0.8, 1.0)]
             + [(95.0, 1.0, c) for c in range(1, 11)])
    start = time.perf_counter()
    rows = {(r["combo"], r["p"], r["density"]): r
            for chunk in _chunks(spec, cells)[1] for r in run_chunk(spec.sim, chunk)}
    elapsed = time.perf_counter() - start
    return {"rows": rows, "elapsed": elapsed}


def test_criterion_1_vtg1_margin():
    rows = verify_stability(strategies=["VTG1"])["rows"]
    row = rows[0]
    ok = abs(row["margin"] - 0.0624) <= 1e-4 and row["stable"]
    report("1", ok, f"VTG1 margin {row['margin']:.6f}, stable {row['stable']}")


def test_criterion_2_probability_model_fit():
    start = time.perf_counter()
    out = verify_probability_model(n_vehicles=100, runs=200)
    elapsed = time.perf_counter() - start
    fits = {(f["intensity"], f["class"]): f for f in out["fits"]}

    random_ok = all(fits[(0.0, cls)]["r2"] >= 0.90
                    for cls in ("LV1", "LV2", "PV"))
    block_ok = (fits[(1.0, "LV1")]["rmse"] <= 0.02
                and fits[(1.0, "PV")]["r2"] >= 0.99)
    ok = random_ok and block_ok and elapsed < 60.0
    report("2", ok,
           f"O=0 r2 {min(fits[(0.0, c)]['r2'] for c in ('LV1', 'LV2', 'PV')):.4f}, "
           f"O=1 LV1 rmse {fits[(1.0, 'LV1')]['rmse']:.4f}, "
           f"O=1 PV r2 {fits[(1.0, 'PV')]['r2']:.4f}, {elapsed:.1f} s")


def test_criterion_3_share_closure_and_limit():
    rng = random.Random(404)
    worst_closure = 0.0
    for _ in range(1000):
        p = rng.random()
        intensity = rng.random()
        s_max = rng.randint(1, 8)
        probs = class_probabilities(p, intensity, s_max)
        worst_closure = max(worst_closure, abs(probs[LV1] + probs[LV2] + probs[PV] - p))

    worst_limit = 0.0
    for _ in range(500):
        p = rng.random()
        s_max = rng.randint(1, 8)
        near = class_probabilities(p, 1.0 - 1e-9, s_max)
        block = class_probabilities(p, 1.0, s_max)
        worst_limit = max(worst_limit,
                          abs(near[LV1] - block[LV1]),
                          abs(near[LV2] - block[LV2]),
                          abs(near[PV] - block[PV]))

    ok = worst_closure <= 1e-12 and worst_limit <= 1e-6
    report("3", ok, f"closure {worst_closure:.2e}, limit gap {worst_limit:.2e}")


def test_criterion_4_linearization_checks_out():
    cases = ((Strategy.CTG, H_FOLLOWER), (Strategy.CTG, H_LEADER),
             (Strategy.VTG1, H_FOLLOWER), (Strategy.VTG2, H_FOLLOWER))

    def law(strategy, v, gap, v_pred, a_pred, h):
        ctx = ControlContext(v=v, gap=gap, v_pred=v_pred, a_pred=a_pred)
        if strategy is Strategy.CTG:
            return float(ctg_accel(ctx, h=h))
        if strategy is Strategy.VTG1:
            return float(vtg1_accel(ctx))
        return float(vtg2_accel(ctx))

    def central_diff(strategy, v_e, h, eps=1e-5):
        gap_e = float(equilibrium_gap(strategy, v_e, h=h))

        def f(dv_own, dgap, ddv, dap):
            v = v_e + dv_own
            return law(strategy, v, gap_e + dgap, v + ddv, dap, h)

        return ((f(eps, 0, 0, 0) - f(-eps, 0, 0, 0)) / (2 * eps),
                (f(0, eps, 0, 0) - f(0, -eps, 0, 0)) / (2 * eps),
                (f(0, 0, eps, 0) - f(0, 0, -eps, 0)) / (2 * eps),
                (f(0, 0, 0, eps) - f(0, 0, 0, -eps)) / (2 * eps))

    rng = random.Random(77)
    worst_rel = 0.0
    for strategy, h in cases:
        for _ in range(10):
            v_e = rng.uniform(1.0, 33.0)
            got = equilibrium_partials(strategy, v_e, h=h)
            ref = central_diff(strategy, v_e, h)
            for a, b in zip((got.g_v, got.g_dx, got.g_dv, got.k), ref):
                worst_rel = max(worst_rel, abs(a - b) / abs(b))
    partials_ok = worst_rel <= 1e-6

    omega = np.logspace(-4, 2, 100000)
    sign_ok = True
    for strategy, h in cases:
        for _ in range(5):
            v_e = rng.uniform(0.0, 33.0)
            partials = equilibrium_partials(strategy, v_e, h=h)
            res = string_stable(partials)
            peak = float(np.max(transfer_magnitude(partials, omega)))
            if res["stable"] != (peak <= 1.0 + 1e-9):
                sign_ok = False

    report("4", partials_ok and sign_ok,
           f"worst partial rel err {worst_rel:.2e}, "
           f"margin sign matches grid peak: {sign_ok}")


def test_criterion_5_equilibrium_hold():
    strategies = ((Strategy.CTG, "CTG"), (Strategy.VTG1, "VTG1"),
                  (Strategy.VTG2, "VTG2"), (Strategy.BS, "BDBM"),
                  (Strategy.HV, "HV"))
    worst_drift = 0.0
    worst_accel = 0.0
    for strategy, _name in strategies:
        state, ring = equilibrium_flow(strategy, 15.0, n=10)
        x0 = state.x.copy()
        cfg = SimConfig(ring_length=ring, duration=100.0, warmup=0.0, record_every=1)
        log = run_state(state, cfg)
        expected = (x0[None, :] + 15.0 * log.times[:, None]) % ring
        wrapped = (log.x - expected + ring / 2.0) % ring - ring / 2.0
        worst_drift = max(worst_drift, float(np.max(np.abs(wrapped))))
        worst_accel = max(worst_accel, float(np.max(np.abs(log.a))))
    ok = worst_drift < 1e-3 and worst_accel < 1e-6
    report("5", ok,
           f"max drift {worst_drift:.2e} m, max |a| {worst_accel:.2e}")


def test_criterion_6_footprint_fixed_points():
    nfr_ok = float(nfr(-5.0)) == 1.0
    nox_brake_ok = all(
        float(emission_rate(v, -1.0, "nox")) == pytest.approx(2.17e-4,
                                                              abs=1e-15)
        for v in (0.0, 10.0, 25.0, 33.3))
    rows = equilibrium_curves(np.arange(1.0, 33.31, 1.0))
    pm_ok = all(r["pm_g_per_km"] == 0.0 for r in rows if r["v_mps"] > 20.0)
    nox_ok = all(r["nox_g_per_km"] == 0.0 for r in rows if r["v_mps"] > 25.0)
    ok = nfr_ok and nox_brake_ok and pm_ok and nox_ok
    report("6", ok,
           f"nfr(-5)={float(nfr(-5.0)):g}, braking NOx pinned {nox_brake_ok}, "
           f"PM zero >20 {pm_ok}, NOx zero >25 {nox_ok}")


def test_criterion_7a_sparse_ring_insensitive_to_combo(desk):
    rows = [desk["rows"][(c, 0.8, 15.0)] for c in range(1, 11)]
    all_ok = all(r["status"] == "ok" for r in rows)
    nff = [r["nff_g_per_km"] for r in rows]
    spread = max(nff) - min(nff)
    mean = sum(nff) / len(nff)
    ok = all_ok and spread <= 0.10 * mean
    report("7a", ok, f"NFF spread {spread:.3f} vs mean {mean:.3f}")


def test_criterion_7b_bidirectional_fuel_monotone_in_p(desk):
    rows = [desk["rows"][(4, p, 55.0)] for p in (0.6, 0.8, 1.0)]
    all_ok = all(r["status"] == "ok" for r in rows)
    nff = [r["nff_g_per_km"] for r in rows]
    ok = all_ok and nff[0] <= nff[1] + 1e-9 and nff[1] <= nff[2] + 1e-9
    report("7b", ok, "NFF at p 0.6/0.8/1.0 = "
           + "/".join(f"{v:.3f}" for v in nff))


def test_criterion_7c_jammed_ring_ranking(desk):
    rows = {c: desk["rows"][(c, 1.0, 95.0)] for c in range(1, 11)}
    all_ok = all(r["status"] == "ok" for r in rows.values())
    ranking = sorted(rows, key=lambda c: rows[c]["nff_g_per_km"])
    ok = all_ok and set(ranking[:2]) == {7, 9} and ranking[2] == 5
    report("7c", ok, f"NFF ranking {ranking}")


def test_criterion_7d_rigid_followers_beat_uniform_ctg(desk):
    rows = {c: desk["rows"][(c, 1.0, 95.0)] for c in (1, 5, 7, 9)}
    ok = True
    for pol in POLLUTANT_COLS:
        base = rows[1][pol]
        for c in (5, 7, 9):
            if not rows[c][pol] < base:
                ok = False
    report("7d", ok, "combos 5/7/9 under combo 1 on "
           + ", ".join(p.split("_")[0] for p in POLLUTANT_COLS))


def test_criterion_7_runtime_budget(desk):
    ok = desk["elapsed"] <= 900.0
    report("7-runtime", ok, f"{desk['elapsed']:.1f} s for 23 cells")


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    spec = SweepSpec(densities=(15.0, 55.0, 95.0), penetrations=(0.0, 1.0),
                     combos=(4, 7), sim=SimConfig(duration=120.0, warmup=60.0))
    outputs = []
    for tag in ("first", "second"):
        outdir = tmp_path / tag
        rows = run_sweep(spec)
        write_metrics_csv(rows, outdir / "metrics.csv")
        emit_plot_data(rows, outdir / "plots")
        files = sorted(f.relative_to(outdir)
                       for f in outdir.rglob("*.csv"))
        outputs.append((outdir, files))

    (dir_a, files_a), (dir_b, files_b) = outputs
    ok = files_a == files_b and len(files_a) > 1
    if ok:
        for rel in files_a:
            if (dir_a / rel).read_bytes() != (dir_b / rel).read_bytes():
                ok = False
                break
    report("8", ok, f"{len(files_a)} files compared")
