"""Workload definitions and output checks for the platoonflow benchmark.

A workload is a list of ``platoonflow`` CLI invocations made from the
workload seed, plus the exact amount of work they ask for, computed here
from the inputs and not read back from the program. Output checks compare
what the CLI wrote with ``reference.json`` (digests recorded at the seed
commit by ``record_reference.py``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

DT = 0.1             # s, the CLI default time step
RING_LENGTH = 1000.0  # m, the CLI default ring
GRID_DENSITIES = tuple(float(d) for d in range(5, 101, 5))
GRID_PENETRATIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
ALL_COMBOS = tuple(range(1, 11))
PROB_P_COUNT = 99    # --p-start 0.01 --p-stop 0.99 --p-step 0.01
PROB_RUNS = 200
PROB_VEHICLES = 100
PROB_INTENSITIES = (0.0, 1.0)


def _fmt(values) -> str:
    return ",".join(f"{v:g}" for v in values)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    kind: str                 # "sweep" or "prob"
    densities: tuple[float, ...] = ()
    penetrations: tuple[float, ...] = ()
    combos: tuple[int, ...] = ()
    duration: float = 0.0
    warmup: float = 0.0
    jobs: int = 1
    extra: tuple[str, ...] = ()

    def argv(self, seed: int, outdir: Path, jobs: int | None = None) -> list[str]:
        """CLI arguments of one iteration; ``jobs`` overrides the sweep fan-out."""
        if self.kind == "prob":
            return ["verify-prob", "--vehicles", str(PROB_VEHICLES),
                    "--runs", str(PROB_RUNS), "--p-start", "0.01",
                    "--p-stop", "0.99", "--p-step", "0.01",
                    "--intensities", _fmt(PROB_INTENSITIES),
                    "--seed", str(seed), "--outdir", str(outdir)]
        return ["sweep", "--densities", _fmt(self.densities),
                "--penetrations", _fmt(self.penetrations),
                "--combos", ",".join(str(c) for c in self.combos),
                "--duration", f"{self.duration:g}", "--warmup", f"{self.warmup:g}",
                "--seed", str(seed), "--jobs", str(jobs or self.jobs),
                "--outdir", str(outdir), *self.extra]

    @property
    def steps(self) -> int:
        return round(self.duration / DT)

    @property
    def work(self) -> int:
        """Vehicle-steps of a sweep, or vehicles drawn by verify-prob."""
        if self.kind == "prob":
            return PROB_P_COUNT * PROB_RUNS * PROB_VEHICLES * len(PROB_INTENSITIES)
        # round-half-up of density x ring length, as the engine places them
        vehicles = sum(math.floor(d * RING_LENGTH / 1000.0 + 0.5) for d in self.densities)
        return vehicles * len(self.penetrations) * len(self.combos) * self.steps

    @property
    def work_metric(self) -> str:
        return "sampled_vehicles_per_s" if self.kind == "prob" else "vehicle_steps_per_s"


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("grid_short", "sweep", GRID_DENSITIES, GRID_PENETRATIONS, ALL_COMBOS,
             duration=5.0, warmup=2.5, jobs=2),
    Workload("traj_dump", "sweep", (95.0,), (1.0,), (1, 7), duration=300.0, warmup=150.0,
             extra=("--save-trajectories", "--record-every", "1")),
    Workload("verify_prob", "prob"),
)}


# ---------------------------------------------------------------- digests

def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _prob_projection(path: Path) -> str:
    """Digest of a probability CSV with its seed-dependent cells masked.

    Only intensity-0 rows draw random sequences (intensity 1 is a fixed
    block layout), so their empirical, r2 and rmse cells are masked and
    everything else must match for any seed.
    """
    lines = path.read_text().splitlines()
    header = lines[0].split(",") if lines else []
    masked = {"empirical", "r2", "rmse"}
    out = lines[:1]
    for line in lines[1:]:
        cells = line.split(",")
        try:
            seed_dependent = float(cells[0]) == 0.0
        except ValueError:
            return "unparsable"
        if seed_dependent:
            cells = ["*" if h in masked else c for h, c in zip(header, cells)]
        out.append(",".join(cells))
    return row_digest("\n".join(out))


def output_files(outdir: Path) -> list[str]:
    """Output files of one iteration, relative to ``outdir``, sorted."""
    return sorted(str(p.relative_to(outdir)) for p in outdir.rglob("*") if p.is_file())


def snapshot(workload: Workload, outdir: Path) -> dict:
    """Reference record of one iteration's outputs."""
    record: dict = {}
    for rel in output_files(outdir):
        path = outdir / rel
        if rel.endswith("metrics.csv"):
            lines = path.read_text().splitlines()
            record[rel] = {"header": lines[0], "rows": [row_digest(x) for x in lines[1:]]}
        elif workload.kind == "prob":
            record[rel] = {"sha256": file_digest(path), "projection": _prob_projection(path)}
        else:
            record[rel] = {"sha256": file_digest(path)}
    return record


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def unit(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def check_outputs(workload: Workload, seed: int, outdir: Path, reference: dict) -> Check:
    """Count output rows and files that differ from the reference.

    Sweep outputs do not depend on the seed at the seed commit (every cell
    uses the deterministic full-intensity layout), so one record serves all
    seeds. ``verify_prob`` has exact digests for the recorded seeds and,
    for any other seed, the masked projection plus the criterion-2 fit
    thresholds.
    """
    ref = reference[workload.name]
    check = Check()
    got = set(output_files(outdir))
    if workload.kind == "prob":
        exact = ref["by_seed"].get(str(seed))
        for rel, want in ref["files"].items():
            path = outdir / rel
            if rel not in got:
                check.unit(False, f"{rel}: missing")
                continue
            if exact is not None:
                check.unit(file_digest(path) == exact[rel], f"{rel}: digest differs")
            else:
                check.unit(_prob_projection(path) == want["projection"],
                           f"{rel}: seed-free projection differs")
        if exact is None and "probability_fit.csv" in got:
            check.unit(_criterion_2(outdir / "probability_fit.csv"),
                       "probability_fit.csv: criterion 2 thresholds not met")
    else:
        for rel, want in ref["files"].items():
            path = outdir / rel
            if "rows" in want:
                _check_rows(check, rel, path if rel in got else None, want)
            else:
                check.unit(rel in got and file_digest(path) == want["sha256"],
                           f"{rel}: missing or digest differs")
    for rel in sorted(got - set(ref["files"])):
        check.unit(False, f"{rel}: not in the reference")
    return check


def _check_rows(check: Check, rel: str, path: Path | None, want: dict) -> None:
    lines = path.read_text().splitlines() if path is not None else []
    header_ok = bool(lines) and lines[0] == want["header"]
    rows = lines[1:]
    status_col = want["header"].split(",").index("status")
    for i, digest in enumerate(want["rows"]):
        ok = (header_ok and i < len(rows) and row_digest(rows[i]) == digest
              and rows[i].split(",")[status_col:status_col + 1] != ["error"])
        check.unit(ok, f"{rel} row {i + 1}: differs from the reference")
    for i in range(len(want["rows"]), len(rows)):
        check.unit(False, f"{rel} row {i + 1}: extra row")


def _criterion_2(path: Path) -> bool:
    try:
        with open(path, newline="") as fh:
            fits = {(float(r["intensity"]), r["class"]): r for r in csv.DictReader(fh)}
        return (all(float(fits[(0.0, c)]["r2"]) >= 0.90 for c in ("LV1", "LV2", "PV"))
                and float(fits[(1.0, "LV1")]["rmse"]) <= 0.02
                and float(fits[(1.0, "PV")]["r2"]) >= 0.99)
    except (KeyError, TypeError, ValueError):  # a malformed table fails the check
        return False
