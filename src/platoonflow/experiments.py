"""Experiment drivers: the sweep grid and the verification reports.

A sweep cell is one (density, penetration, combo) simulation; every
cell runs under the sweep's one engine config (``SweepSpec.sim``), which
is checked before any cell runs. Cells are independent, seeded from a
stable hash, and a cell that fails on its own values becomes a status
row instead of killing the sweep. Row order is fixed to
(combo, p, density) so repeated runs serialize identically.

The sweep cuts the cells, in order, into chunks of about CHUNK_VEHICLES
vehicles and steps each chunk's rings together in one engine run
(``ring.stack``); a ring's numbers do not depend on what it is stacked
with, so chunking changes no output byte. ``--jobs`` spreads chunks
over worker processes, and a progress line per chunk goes to stderr.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .controllers import H_FOLLOWER, H_LEADER, Strategy
from .csvio import write_csv, write_trajectory_csv, write_violations_csv
from .energy import POLLUTANTS, fleet_emissions, fleet_fuel
from .fleet import (FleetSpec, class_probabilities, draw_flags,
                    empirical_distribution, goodness_of_fit, role_codes)
from . import ring  # engine calls go through the module, so wrappers set on it apply
from .stability import (equilibrium_partials, stability_region, string_stable)

PLOT_METRICS = {"nff": "nff_g_per_km", "co2": "co2_g_per_km",
                "nox": "nox_g_per_km", "voc": "voc_g_per_km",
                "pm": "pm_g_per_km"}
PLOT_DENSITIES = (15.0, 55.0, 95.0)

# Vehicles stepped together in one engine run. Larger chunks spread the
# per-step numpy dispatch over more vehicles, with diminishing returns
# past ~1000, while the stored samples grow as chunk x samples x 24 B
# per worker (~44 MB at the default 3600 s horizon).
CHUNK_VEHICLES = 1024


@dataclass(frozen=True)
class SweepSpec:
    densities: tuple[float, ...] = tuple(float(d) for d in range(5, 101, 5))
    penetrations: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    combos: tuple[int, ...] = tuple(range(1, 11))
    sim: ring.SimConfig = ring.SimConfig()
    base_seed: int = 42
    jobs: int = 1

    def __post_init__(self) -> None:
        for name in ("densities", "penetrations", "combos"):
            axis = getattr(self, name)
            if not axis:
                raise ValueError(f"sweep axis {name} is empty")
            if len(set(axis)) < len(axis):
                raise ValueError(f"sweep axis {name} repeats a value: {axis}")


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


def _fail(row: dict, reason) -> None:
    print(f"cell combo={row['combo']} p={row['p']:g} density={row['density']:g} "
          f"failed: {reason}", file=sys.stderr)
    row.update(_nan_metrics())
    row["status"] = "error"


def _reduce(row: dict, log: ring.TrajectoryLog, save_dir: str | Path | None) -> None:
    fuel = fleet_fuel(log)
    emissions = fleet_emissions(log)
    row.update(mean_speed_mps=fuel.mean_speed, mean_nfr=fuel.mean_nfr,
               nff_g_per_km=fuel.nff, violations=len(log.violations))
    for pol, value in emissions.items():
        row[f"{pol}_g_per_km"] = value
    row["status"] = "stalled" if fuel.stalled else "ok"
    if save_dir is not None:
        stem = f"cell_c{row['combo']}_p{row['p']:g}_d{row['density']:g}"
        write_trajectory_csv(log, Path(save_dir) / f"{stem}_trajectory.csv")
        write_violations_csv(log, Path(save_dir) / f"{stem}_violations.csv")


def run_chunk(spec: SweepSpec, cells: list[tuple[float, float, int]],
              save_dir: str | Path | None = None) -> list[dict]:
    """Simulate cells together in one engine run; one metrics row per cell."""
    rows: list[dict] = []
    running: list[dict] = []
    states: list[ring.RingState] = []
    for density, p, combo in cells:
        row = {"combo": combo, "p": p, "density": density}
        rows.append(row)
        try:
            states.append(ring.init_state(spec.sim, density, p, combo,
                                          seed=cell_seed(spec.base_seed, density, p, combo)))
        except ValueError as exc:
            _fail(row, exc)
            continue
        running.append(row)
    if states:
        log = ring.run_state(ring.stack(states), spec.sim)
        for row, part in zip(running, ring.split_log(log, states)):
            if part.errors:
                _fail(row, part.errors[0])
            else:
                _reduce(row, part, save_dir)
    return rows


def run_cell(spec: SweepSpec, density: float, p: float, combo: int,
             save_dir: str | Path | None = None) -> dict:
    """Simulate one cell and reduce it to a metrics row."""
    return run_chunk(spec, [(density, p, combo)], save_dir)[0]


def _chunks(spec: SweepSpec, cells: list[tuple[float, float, int]]):
    """Consecutive runs of cells holding at most about CHUNK_VEHICLES vehicles.

    A cell larger than the cap runs alone; a cell whose size is not a
    positive finite number counts as empty, since it becomes an error row.
    """
    chunk: list[tuple[float, float, int]] = []
    size = 0.0
    for cell in cells:
        n = cell[0] * spec.sim.ring_length / 1000.0
        n = n if 0.0 < n < math.inf else 0.0
        if chunk and size + n > CHUNK_VEHICLES:
            yield chunk
            chunk, size = [], 0.0
        chunk.append(cell)
        size += n
    if chunk:
        yield chunk


def _gather(results, total: int) -> list[dict]:
    """Rows of finished chunks, with a progress line per chunk on stderr."""
    rows: list[dict] = []
    start = time.perf_counter()
    for chunk_rows in results:
        rows.extend(chunk_rows)
        elapsed = time.perf_counter() - start
        eta = elapsed * (total - len(rows)) / len(rows)
        print(f"sweep: {len(rows)}/{total} cells, {elapsed:.1f} s elapsed, "
              f"ETA {eta:.1f} s", file=sys.stderr)
    return rows


def run_sweep(spec: SweepSpec, save_dir: str | Path | None = None) -> list[dict]:
    """All cells of the grid, rows sorted by (combo, p, density)."""
    cells = enumerate_cells(spec)
    chunks = list(_chunks(spec, cells))
    calls = (run_chunk, [spec] * len(chunks), chunks, [save_dir] * len(chunks))
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            rows = _gather(pool.map(*calls), len(cells))
    else:
        rows = _gather(map(*calls), len(cells))
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
            # draw_flags reads no seed at full intensity
            seeds = ([None] * runs if intensity == 1.0
                     else [cell_seed(seed, intensity, p, r) for r in range(runs)])
            flags = draw_flags(FleetSpec(n_vehicles, p, intensity, s_max), seeds)
            dist = empirical_distribution(role_codes(flags, s_max))
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
