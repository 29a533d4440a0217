"""One benchmark iteration in a fresh interpreter.

Usage: python3 child.py REQUEST_JSON

REQUEST_JSON holds ``src`` (the directory that contains the platoonflow
package), ``argvs`` (CLI calls to make; empty for a set-up probe) and
``trace``. The child times the import of ``platoonflow.cli`` plus
building its parser (set-up), then the ``cli.main`` calls (wall), and
reads CPU time and peak RSS of itself and its children from
``resource.getrusage``. It prints one JSON object on stdout; the CLI's
own output goes to stderr.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    request = json.loads(sys.argv[1])
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    from platoonflow import cli
    cli.build_parser()
    result = {"setup_s": time.perf_counter() - start,
              "numpy": sys.modules["numpy"].__version__}
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported {cli.__file__}, not the package under {src}",
              file=sys.stderr)
        return 2
    if not request["argvs"]:
        print(json.dumps(result))
        return 0

    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        codes = [cli.main(argv) for argv in request["argvs"]]
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)

    result.update(
        wall_s=wall,
        cpu_s=_cpu(after) - _cpu(before) + _cpu(children),
        peak_rss_mb=max(after.ru_maxrss, children.ru_maxrss) / 1024.0,
        exit_codes=codes)
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
