"""Deterministic CSV writers.

Floats are serialized with 9 significant digits and rows carry no
timestamps or environment state, so re-running a deterministic
experiment reproduces files byte for byte. Every writer funnels through
one routine that checks its own schema before touching the disk and
formats a row of floats, ints and strs in one ``%`` against a template
of its value types, with the text ``format_value`` gives each. The
trajectory rows are the exception: their schema is fixed, and a sweep
appends each block of a run to a ring's file as it comes, through
``append_trajectory`` with the same digits from a row template built
once per ring size; no writer takes a whole stored log. ``energy``
names the metric columns. A report's columns are the keys of its rows,
named once where the rows are built, and ``write_rows`` prints them.
"""

from __future__ import annotations

import csv
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .energy import METRICS
from .ring import Violation

TRAJECTORY_HEAD = "t,vehicle_index,x,v,a\n"
_TRAJECTORY_BLOCK_ROWS = 1 << 14  # rows formatted per write; sets the writer's peak memory
METRICS_HEADER = ("density", "p", "combo", "status", *METRICS, "violations")


def format_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


# the % field of each value type whose text it gives exactly as format_value
# does; bool, numpy scalars and enums are none of these exact types
_FIELDS = {float: "%.9g", int: "%d", str: "%s"}


@lru_cache(maxsize=64)  # a table's rows share one or a few type tuples
def _template(types: tuple) -> str | None:
    """The line template of a row of value ``types``, or None if one has no field."""
    fields = [_FIELDS.get(t) for t in types]
    return None if None in fields else ",".join(fields)


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence],
              key_cols: Sequence[int] = ()) -> Path:
    """Write rows after validating the schema.

    key_cols names columns that together must be lexicographically
    non-decreasing down the file, catching unsorted emitters early. A
    row of floats, ints and strs is formatted in one ``%`` against the
    template of its value types; any other row value by value.
    """
    header = tuple(header)
    if bad := [h for h in header if not h or header.count(h) > 1]:
        raise ValueError(f"{path}: header column {bad[0]!r} is empty or repeated")
    prev_key = None
    key_of = itemgetter(*key_cols) if key_cols else None  # one column: its value, no tuple
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)}: {row}")
        if key_of:
            key = key_of(row)
            if prev_key is not None and key < prev_key:
                raise ValueError(f"rows not sorted on key columns: {key} after {prev_key}")
            prev_key = key
        row = tuple(row)
        # from a list, not a map: a tuple grown from an iterator is resized,
        # and each one freed would be kept on CPython's tuple free list
        template = _template(tuple([type(v) for v in row]))
        lines.append(",".join(map(format_value, row)) if template is None else template % row)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_rows(rows: Sequence[dict], path: str | Path, key_cols: Sequence[int] = ()) -> Path:
    """Write a report whose columns are the keys of its rows, in order.

    The first row's keys are the header, so an empty table, which has
    none, or a row keyed otherwise than the first is a ValueError.
    """
    if not rows:
        raise ValueError(f"{path}: no rows to take a header from")
    header = tuple(rows[0])
    table = []
    for row in rows:
        if tuple(row) != header:
            raise ValueError(f"{path}: row keyed {tuple(row)}, header is {header}")
        # a list, which write_csv turns into a tuple it frees at once: a table
        # of tuples freed together would stay on CPython's tuple free list
        table.append(list(row.values()))
    return write_csv(path, header, table, key_cols)


def write_metrics_csv(rows: Sequence[dict], path: str | Path) -> Path:
    table = [[r[k] for k in METRICS_HEADER] for r in rows]
    # rows arrive sorted by (combo, p, density)
    return write_csv(path, METRICS_HEADER, table, key_cols=(2, 1, 0))


def read_metrics_csv(path: str | Path) -> list[dict]:
    """Rows of a metrics table; a bad header or row, a label that is not finite
    or a repeated cell is a ValueError naming its line."""
    rows, seen = [], {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if (header := tuple(next(reader, ()))) != METRICS_HEADER:
            raise ValueError(f"{path}:1: expected header {','.join(METRICS_HEADER)}, "
                             f"got {','.join(header)!r}")
        for rec in reader:
            try:
                if len(rec) != len(header):
                    raise ValueError(f"{len(rec)} fields, header has {len(header)}")
                row = dict(zip(header, rec))
                row.update((key, int(row[key]) if key == "combo" else float(row[key]))
                           for key in header if key != "status")
                # a sweep never writes such a label, and NaN defeats the repeat check
                for key in ("density", "p"):
                    if not np.isfinite(row[key]):
                        raise ValueError(f"{key} {row[key]} is not finite")
                first = seen.setdefault((row["combo"], row["p"], row["density"]),
                                        reader.line_num)
                if first != reader.line_num:
                    raise ValueError(f"repeats the density, p and combo of line {first}")
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            rows.append(row)
    return rows


def append_trajectory(fh, times, x, v, a) -> None:
    """Write one ring's rows of the samples ``times`` with (m, n) x, v and a.

    The rows of a sample share a template, ``"<t>,<j>,%.9g,%.9g,%.9g\\n"``
    for j = 0..n-1: its time, formatted once, is joined into the ``<t>``
    slots and its interleaved x, v and a fill the rest in one ``%``, as
    format_value would. Blocks of samples are converted at a time.
    """
    m, n = x.shape
    per_block = max(1, _TRAJECTORY_BLOCK_ROWS // max(n, 1))
    after_t = _row_tail(n)
    for lo in range(0, m, per_block):
        hi = min(lo + per_block, m)
        xva = np.stack((x[lo:hi], v[lo:hi], a[lo:hi]), axis=2)
        fh.write("".join(("%.9g" % t).join(after_t) % tuple(values) for t, values
                         in zip(times[lo:hi].tolist(), xva.reshape(hi - lo, 3 * n).tolist())))


@lru_cache(maxsize=256)  # more than the ring sizes of the default grid
def _row_tail(n: int) -> tuple[str, ...]:
    """The pieces a sample's formatted time joins into its n rows' template.

    "%.9g" never yields "%", so a formatted time joined in stays literal.
    """
    return ("", *(f",{j},%.9g,%.9g,%.9g\n" for j in range(n)))


def write_violations_csv(violations: Sequence[Violation], path: str | Path) -> Path:
    rows = [(v.t, v.vehicle, v.gap) for v in violations]
    return write_csv(path, ("t", "follower_index", "gap"), rows, key_cols=(0,))
