"""Benchmark entry point.

    python3 bench/run.py --workload preset-batch --seed 1 --seconds 30 \
        --trace 0

Run from the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics untraced, per-layer metrics with ``--trace 1``).  See METRICS.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SOLVER_CMD_ENV = "PRBSLICE_SOLVER_CMD"


class MissingSources(RuntimeError):
    pass


def prepare_environment() -> None:
    """Make ``src`` importable here and in every child process, and leave
    the solver command unset so that ``solve`` launches its default."""
    if not (SRC / "prbslice" / "__init__.py").is_file():
        raise MissingSources(f"no prbslice package under {SRC}")
    os.environ.pop(SOLVER_CMD_ENV, None)
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if str(SRC) not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in paths if p])
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main() -> int:
    try:
        prepare_environment()
    except MissingSources as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
