"""Experiment drivers: the sweep grid and the verification reports.

A sweep cell is one (density, penetration, combo) simulation; cells are
independent, seeded from a stable hash, and a failed cell becomes a
status row instead of killing the sweep. Row order is fixed to
(combo, p, density) so repeated runs serialize identically.
"""

from __future__ import annotations

import hashlib
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .controllers import H_FOLLOWER, H_LEADER, Strategy
from .csvio import write_csv, write_trajectory_csv, write_violations_csv
from .energy import POLLUTANTS, fleet_emissions, fleet_fuel
from .fleet import (FleetSpec, GoodnessOfFit, class_probabilities,
                    empirical_distribution, generate_sequence, goodness_of_fit)
from .ring import SimConfig, SimulationError, run
from .stability import (equilibrium_partials, stability_region, string_stable)

PLOT_METRICS = {"nff": "nff_g_per_km", "co2": "co2_g_per_km",
                "nox": "nox_g_per_km", "voc": "voc_g_per_km",
                "pm": "pm_g_per_km"}
PLOT_DENSITIES = (15.0, 55.0, 95.0)


@dataclass(frozen=True)
class SweepSpec:
    densities: tuple[float, ...] = tuple(float(d) for d in range(5, 101, 5))
    penetrations: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    combos: tuple[int, ...] = tuple(range(1, 11))
    ring_length: float = 1000.0
    dt: float = 0.1
    duration: float = 3600.0
    warmup: float = 1800.0
    record_every: int = 10
    base_seed: int = 42
    jobs: int = 1


def cell_seed(base_seed: int, density: float, p: float, combo: int) -> int:
    """Stable per-cell seed; process hashes are salted, so use a digest."""
    key = f"{base_seed}:{density:.6g}:{p:.6g}:{combo}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def enumerate_cells(spec: SweepSpec) -> list[tuple[float, float, int]]:
    """(density, p, combo) triples in serialization order."""
    return [(d, p, c)
            for c in sorted(spec.combos)
            for p in sorted(spec.penetrations)
            for d in sorted(spec.densities)]


def _nan_metrics() -> dict:
    out = {"mean_speed_mps": math.nan, "mean_nfr": math.nan,
           "nff_g_per_km": math.nan, "violations": 0}
    for pol in POLLUTANTS:
        out[f"{pol}_g_per_km"] = math.nan
    return out


def run_cell(spec: SweepSpec, density: float, p: float, combo: int,
             save_dir: str | Path | None = None) -> dict:
    """Simulate one cell and reduce it to a metrics row."""
    row = {"combo": combo, "p": p, "density": density}
    try:
        log = run(SimConfig(density=density, p=p, combo_id=combo,
                            ring_length=spec.ring_length, dt=spec.dt,
                            duration=spec.duration, warmup=spec.warmup,
                            record_every=spec.record_every,
                            seed=cell_seed(spec.base_seed, density, p, combo)))
    except (ValueError, SimulationError) as exc:
        print(f"cell combo={combo} p={p:g} density={density:g} failed: {exc}",
              file=sys.stderr)
        row.update(_nan_metrics())
        row["status"] = "error"
        return row
    fuel = fleet_fuel(log)
    emissions = fleet_emissions(log)
    row.update(mean_speed_mps=fuel.mean_speed, mean_nfr=fuel.mean_nfr,
               nff_g_per_km=fuel.nff, violations=len(log.violations))
    for pol, value in emissions.items():
        row[f"{pol}_g_per_km"] = value
    row["status"] = "stalled" if fuel.stalled else "ok"
    if save_dir is not None:
        stem = f"cell_c{combo}_p{p:g}_d{density:g}"
        write_trajectory_csv(log, Path(save_dir) / f"{stem}_trajectory.csv")
        write_violations_csv(log, Path(save_dir) / f"{stem}_violations.csv")
    return row


def _run_cell_args(packed):
    spec, density, p, combo, save_dir = packed
    return run_cell(spec, density, p, combo, save_dir)


def run_sweep(spec: SweepSpec, save_dir: str | Path | None = None) -> list[dict]:
    """All cells of the grid, rows sorted by (combo, p, density)."""
    cells = enumerate_cells(spec)
    if spec.jobs > 1:
        packed = [(spec, d, p, c, save_dir) for d, p, c in cells]
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            rows = list(pool.map(_run_cell_args, packed))
    else:
        rows = [run_cell(spec, d, p, c, save_dir) for d, p, c in cells]
    rows.sort(key=lambda r: (r["combo"], r["p"], r["density"]))
    return rows


@dataclass(frozen=True)
class ProbabilityVerification:
    fits: list[dict]    # intensity, class, r2, rmse, note
    curves: list[dict]  # intensity, p, class, empirical, theoretical


def verify_probability_model(n_vehicles: int = 100, runs: int = 200,
                             p_grid=None, intensities=(0.0, 1.0),
                             s_max: int = 4, seed: int = 0) -> ProbabilityVerification:
    """Empirical class frequencies of sampled rings against the closed form."""
    if p_grid is None:
        p_grid = np.arange(0.01, 0.995, 0.01)
    p_grid = [float(p) for p in p_grid]
    if runs < 1 or n_vehicles < 1:
        raise ValueError("need at least one run of at least one vehicle")
    fits: list[dict] = []
    curves: list[dict] = []
    class_names = ("LV1", "LV2", "PV")
    for intensity in intensities:
        emp = {name: [] for name in class_names}
        theo = {name: [] for name in class_names}
        for p in p_grid:
            seqs = []
            for r in range(runs):
                run_seed = cell_seed(seed, intensity, p, r)
                seqs.append(generate_sequence(
                    FleetSpec(n_vehicles, p, intensity, s_max), run_seed))
            dist = empirical_distribution(seqs)
            model = class_probabilities(p, intensity, s_max)
            for name, e, t in (("LV1", dist.p_lv1, model.p_lv1),
                               ("LV2", dist.p_lv2, model.p_lv2),
                               ("PV", dist.p_pv, model.p_pv)):
                emp[name].append(e)
                theo[name].append(t)
                curves.append({"intensity": intensity, "p": p, "cls": name,
                               "empirical": e, "theoretical": t})
        for name in class_names:
            fit = goodness_of_fit(emp[name], theo[name])
            fits.append({"intensity": intensity, "cls": name, "r2": fit.r2,
                         "rmse": fit.rmse, "note": fit.note or ""})
    return ProbabilityVerification(fits, curves)


def verify_stability(strategies=None, v_grid=None) -> dict:
    """Margin report for the requested laws plus the speed-dependent region."""
    if v_grid is None:
        v_grid = np.arange(0.0, 33.31, 0.1)
    if strategies is None:
        strategies = (Strategy.CTG, Strategy.VTG1, Strategy.VTG2, Strategy.CS)
    wanted = {s if isinstance(s, Strategy) else Strategy(str(s).upper())
              for s in strategies}
    rows = []
    for label, strategy, kwargs in (
            (f"CTG(h={H_LEADER:g})", Strategy.CTG, {"h": H_LEADER}),
            (f"CTG(h={H_FOLLOWER:g})", Strategy.CTG, {"h": H_FOLLOWER}),
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
        margins = [m for _, m, _ in region]
        rows.append({"strategy": "VTG2", "k_in_range": True,
                     "margin": min(margins),
                     "stable": all(s for _, _, s in region),
                     "caveat": f"margin is min over v in [{v_grid[0]:g}, {v_grid[-1]:g}]"})
    return {"rows": rows, "vtg2_region": region}


def emit_plot_data(rows: list[dict], outdir: str | Path) -> list[Path]:
    """Pivot a metrics table into per-figure CSV bundles.

    One family plots each metric against density, one column per
    (combo, p); the other plots it against penetration at the three
    reference densities, one column per combo.
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
        header = ["density"] + [f"combo{c}_p{p:g}" for c in combos for p in pens]
        table = [[d] + [value(col, c, p, d) for c in combos for p in pens]
                 for d in densities]
        paths.append(write_csv(outdir / f"{short}_vs_density.csv", header, table,
                               key_cols=(0,)))
        for d in PLOT_DENSITIES:
            if d not in densities:
                continue
            header = ["p"] + [f"combo{c}" for c in combos]
            table = [[p] + [value(col, c, p, d) for c in combos] for p in pens]
            paths.append(write_csv(outdir / f"{short}_vs_p_d{d:g}.csv", header,
                                   table, key_cols=(0,)))
    return paths
