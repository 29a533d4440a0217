"""Command-line front end.

Verbs:
  sweep             run the density/penetration/combo grid, write metrics.csv
  verify-prob       compare sampled class frequencies with the closed form
  verify-stability  margin report for the linear spacing laws
  curves            steady-speed fuel and emission table
  plot-data         pivot a metrics.csv into per-figure CSV bundles

Every verb accepts --config FILE with flat KEY=VALUE lines (same names
as the long options); explicit command-line flags win over the file.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .csvio import (read_metrics_csv, write_csv, write_curves_csv, write_metrics_csv,
                    write_region_csv)
from .energy import equilibrium_curves
from .experiments import (SweepSpec, emit_plot_data, run_sweep,
                          verify_probability_model, verify_stability)
from .ring import SimConfig


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _int_list(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "-" in tok[1:]:
            lo, hi = tok.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(tok))
    return tuple(out)


def _load_config(path: str, parser: argparse.ArgumentParser) -> dict:
    """KEY=VALUE defaults for one verb, converted by that verb's own options."""
    actions = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if action.nargs == 0:  # store_true flag
            values[action.dest] = raw.lower() in ("1", "true", "yes")
        else:
            values[action.dest] = (action.type or str)(raw)
    return values


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="platoonflow", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    sp: dict[str, argparse.ArgumentParser] = {}

    def add(name, help_text):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="flat KEY=VALUE file with option defaults")
        sub.add_argument("--outdir", default="out", help="output directory")
        sp[name] = sub
        return sub

    sweep = add("sweep", "run the simulation grid")
    sweep.add_argument("--densities", type=_float_list,
                       default=SweepSpec.densities, help="veh/km, comma separated")
    sweep.add_argument("--penetrations", type=_float_list,
                       default=SweepSpec.penetrations)
    sweep.add_argument("--combos", type=_int_list, default=SweepSpec.combos,
                       help="strategy combo ids, e.g. 1,4,7 or 1-10")
    sweep.add_argument("--ring-length", type=float, default=SimConfig.ring_length)
    sweep.add_argument("--dt", type=float, default=SimConfig.dt)
    sweep.add_argument("--duration", type=float, default=SimConfig.duration)
    sweep.add_argument("--warmup", type=float, default=SimConfig.warmup)
    sweep.add_argument("--record-every", type=int, default=SimConfig.record_every)
    sweep.add_argument("--seed", type=int, default=SweepSpec.base_seed)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--save-trajectories", action="store_true")

    prob = add("verify-prob", "class frequencies vs the closed-form model")
    prob.add_argument("--vehicles", type=int, default=100)
    prob.add_argument("--runs", type=int, default=200)
    prob.add_argument("--p-start", type=float, default=0.01)
    prob.add_argument("--p-stop", type=float, default=0.99)
    prob.add_argument("--p-step", type=float, default=0.01)
    prob.add_argument("--intensities", type=_float_list, default=(0.0, 1.0))
    prob.add_argument("--seed", type=int, default=0)

    stab = add("verify-stability", "string-stability margin report")
    stab.add_argument("--v-start", type=float, default=0.0)
    stab.add_argument("--v-stop", type=float, default=33.3)
    stab.add_argument("--v-step", type=float, default=0.1)

    curves = add("curves", "steady-speed fuel and emission table")
    curves.add_argument("--v-start", type=float, default=1.0)
    curves.add_argument("--v-stop", type=float, default=33.0)
    curves.add_argument("--v-step", type=float, default=1.0)

    plot = add("plot-data", "pivot metrics.csv into per-figure bundles")
    plot.add_argument("--metrics", required=True, help="path to a sweep metrics.csv")

    return parser, sp


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if not math.isfinite((stop - start) / step):
        raise ValueError(f"grid from {start} to {stop} by {step} is not finite")
    # no point past stop, except by float error when stop is a whole
    # number of steps from start
    count = math.floor((stop - start) / step + 1e-9) + 1
    return start + step * np.arange(max(count, 0))


def _cmd_sweep(args) -> int:
    sim = SimConfig(ring_length=args.ring_length, dt=args.dt, duration=args.duration,
                    warmup=args.warmup, record_every=args.record_every)
    spec = SweepSpec(densities=tuple(args.densities),
                     penetrations=tuple(args.penetrations),
                     combos=tuple(args.combos), sim=sim, base_seed=args.seed,
                     jobs=args.jobs)
    outdir = Path(args.outdir)
    save_dir = outdir / "trajectories" if args.save_trajectories else None
    rows = run_sweep(spec, save_dir=save_dir)
    path = write_metrics_csv(rows, outdir / "metrics.csv")
    bad = sum(1 for r in rows if r["status"] != "ok")
    print(f"wrote {path} ({len(rows)} cells, {bad} not ok)")
    return 0


def _cmd_verify_prob(args) -> int:
    p_grid = _grid(args.p_start, args.p_stop, args.p_step)
    report = verify_probability_model(n_vehicles=args.vehicles, runs=args.runs,
                                      p_grid=p_grid,
                                      intensities=tuple(args.intensities),
                                      seed=args.seed)
    outdir = Path(args.outdir)
    write_csv(outdir / "probability_fit.csv",
              ("intensity", "class", "r2", "rmse", "note"),
              [(f["intensity"], f["cls"], f["r2"], f["rmse"], f["note"])
               for f in report.fits])
    write_csv(outdir / "probability_curves.csv",
              ("intensity", "p", "class", "empirical", "theoretical"),
              [(c["intensity"], c["p"], c["cls"], c["empirical"], c["theoretical"])
               for c in report.curves])
    for fit in report.fits:
        note = f"  ({fit['note']})" if fit["note"] else ""
        print(f"O={fit['intensity']:g} {fit['cls']:>4}: "
              f"r2={fit['r2']:.4f} rmse={fit['rmse']:.4f}{note}")
    print(f"wrote {outdir / 'probability_fit.csv'}")
    return 0


def _cmd_verify_stability(args) -> int:
    report = verify_stability(v_grid=_grid(args.v_start, args.v_stop, args.v_step))
    outdir = Path(args.outdir)
    write_csv(outdir / "stability_report.csv",
              ("strategy", "k_in_range", "margin", "stable", "caveat"),
              [(r["strategy"], r["k_in_range"], r["margin"], r["stable"],
                r["caveat"]) for r in report["rows"]])
    write_region_csv(report["vtg2_region"], "VTG2",
                     outdir / "stability_region_vtg2.csv")
    for r in report["rows"]:
        caveat = f"  ({r['caveat']})" if r["caveat"] else ""
        verdict = "stable" if r["stable"] else "NOT string stable"
        print(f"{r['strategy']:>12}: margin={r['margin']:+.4f} {verdict}{caveat}")
    print(f"wrote {outdir / 'stability_report.csv'}")
    return 0


def _cmd_curves(args) -> int:
    rows = equilibrium_curves(_grid(args.v_start, args.v_stop, args.v_step))
    path = write_curves_csv(rows, Path(args.outdir) / "equilibrium_curves.csv")
    print(f"wrote {path} ({len(rows)} speeds)")
    return 0


def _cmd_plot_data(args) -> int:
    rows = read_metrics_csv(args.metrics)
    paths = emit_plot_data(rows, args.outdir)
    print(f"wrote {len(paths)} plot files to {args.outdir}")
    return 0


_COMMANDS = {"sweep": _cmd_sweep, "verify-prob": _cmd_verify_prob,
             "verify-stability": _cmd_verify_stability, "curves": _cmd_curves,
             "plot-data": _cmd_plot_data}


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        # file values become defaults, so a second parse lets explicit flags win
        sub = subparsers[args.command]
        try:
            sub.set_defaults(**_load_config(args.config, sub))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
