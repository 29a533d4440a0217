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
import inspect
import os
import sys
from dataclasses import fields
from pathlib import Path

# Before the first import that loads numpy: its OpenBLAS starts a thread
# per further CPU, each spinning on a core for about 0.1 s, and no
# command does linear algebra. A value the user set still wins, and
# importing only the other modules leaves a library caller's environment
# as it was.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .csvio import format_value, read_metrics_csv, write_metrics_csv, write_rows
from .energy import equilibrium_curves
from . import experiments
from .experiments import (P_GRID, V_GRID, SweepSpec, _grid, emit_plot_data, run_sweep,
                          verify_probability_model, verify_stability)
from .platoons import check_combos
from .ring import SimConfig

JOBS_HELP = "worker processes (default: one per CPU); no output depends on it"


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _int_list(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            ends = tok.split("-", 1) if "-" in tok[1:] else (tok, tok)
            lo, hi = (int(end) for end in ends)
        except ValueError:
            raise ValueError(f"--combos {tok!r} is neither a combo id nor a range") from None
        check_combos((lo, hi), f"--combos {tok!r}: ")  # before expanding
        if hi < lo:
            raise ValueError(f"range {tok!r} runs backwards")
        out.extend(range(lo, hi + 1))
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
        try:
            if action.nargs != 0:
                values[action.dest] = (action.type or str)(raw)
            elif raw.lower() in ("1", "true", "yes", "0", "false", "no"):  # store_true flag
                values[action.dest] = raw.lower() in ("1", "true", "yes")
            else:
                raise ValueError(f"expected true or false, got {raw!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
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
    # parsed with the other sweep values, so a bad range is an error like theirs
    sweep.add_argument("--combos", default=",".join(map(str, SweepSpec.combos)),
                       help="strategy combo ids, e.g. 1,4,7 or 1-10")
    for f in fields(SimConfig):  # the engine settings, one option each
        sweep.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                           default=f.default)
    sweep.add_argument("--seed", type=int, default=SweepSpec.base_seed,
                       help="base of the layout seeds, one per (density, p), shared by "
                            "its combos; a sweep draws at full platoon intensity, which "
                            "reads none, so no sweep output depends on it")
    sweep.add_argument("--jobs", type=int, default=SweepSpec.jobs, help=JOBS_HELP)
    sweep.add_argument("--save-trajectories", action="store_true")

    prob = add("verify-prob", "class frequencies vs the closed-form model")
    # read through the experiments module, so a wrapper set on this
    # module's name for the function does not hide its signature
    lib = {name: param.default for name, param
           in inspect.signature(experiments.verify_probability_model).parameters.items()}
    prob.add_argument("--vehicles", type=int, default=lib["n_vehicles"])
    prob.add_argument("--runs", type=int, default=lib["runs"])
    for bound, default in zip(("start", "stop", "step"), P_GRID):
        prob.add_argument(f"--p-{bound}", type=float, default=default)
    prob.add_argument("--intensities", type=_float_list, default=lib["intensities"])
    prob.add_argument("--seed", type=int, default=lib["seed"])
    prob.add_argument("--jobs", type=int, default=lib["jobs"], help=JOBS_HELP)

    stab = add("verify-stability", "string-stability margin report")
    for bound, default in zip(("start", "stop", "step"), V_GRID):
        stab.add_argument(f"--v-{bound}", type=float, default=default)

    curves = add("curves", "steady-speed fuel and emission table")
    curves.add_argument("--v-start", type=float, default=1.0)
    curves.add_argument("--v-stop", type=float, default=33.0)
    curves.add_argument("--v-step", type=float, default=1.0)

    plot = add("plot-data", "pivot metrics.csv into per-figure bundles")
    plot.add_argument("--metrics", required=True, help="path to a sweep metrics.csv")

    return parser, sp


def _cmd_sweep(args) -> int:
    sim = SimConfig(**{f.name: getattr(args, f.name) for f in fields(SimConfig)})
    spec = SweepSpec(densities=tuple(args.densities),
                     penetrations=tuple(args.penetrations),
                     combos=_int_list(args.combos), sim=sim, base_seed=args.seed,
                     jobs=args.jobs)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)  # an unusable outdir fails before any cell runs
    open(outdir / "metrics.csv", "a").close()  # so does its metrics file; "a" keeps its rows
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
                                      seed=args.seed, jobs=args.jobs)
    outdir = Path(args.outdir)
    write_rows(report.fits, outdir / "probability_fit.csv")
    write_rows(report.curves, outdir / "probability_curves.csv")
    for fit in report.fits:
        note = f"  ({fit['note']})" if fit["note"] else ""
        print(f"O={format_value(fit['intensity'])} {fit['class']:>4}: "
              f"r2={fit['r2']:.4f} rmse={fit['rmse']:.4f}{note}")
    print(f"wrote {outdir / 'probability_fit.csv'}")
    return 0


def _cmd_verify_stability(args) -> int:
    report = verify_stability(v_grid=_grid(args.v_start, args.v_stop, args.v_step))
    outdir = Path(args.outdir)
    write_rows(report["rows"], outdir / "stability_report.csv")
    write_rows(report["vtg2_region"], outdir / "stability_region_vtg2.csv")
    for r in report["rows"]:
        caveat = f"  ({r['caveat']})" if r["caveat"] else ""
        verdict = "stable" if r["stable"] else "NOT string stable"
        print(f"{r['strategy']:>12}: margin={r['margin']:+.4f} {verdict}{caveat}")
    print(f"wrote {outdir / 'stability_report.csv'}")
    return 0


def _cmd_curves(args) -> int:
    rows = equilibrium_curves(_grid(args.v_start, args.v_stop, args.v_step))
    path = write_rows(rows, Path(args.outdir) / "equilibrium_curves.csv", key_cols=(0,))
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
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a grid step too fine
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
