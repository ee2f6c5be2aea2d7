"""Run one workload as a closed loop and report its metrics.

One caller runs cells one after another; the only other process is the
solver child of the cell in flight.  Rounds of cells start until the next
round is expected to end past ``--seconds``; at least one round runs.

Untraced runs give the end-to-end metrics.  A traced run repeats every cell
with a span around each layer call, times the bundled solver in-process on
the same script, and times one solver launch on an empty script; it gives
the per-layer metrics.  Every cell's outputs are checked: its verdict, its
state-for-state equality, its invariants and the digest of its scenario and
oracle trace against ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import cells
from prbslice.encoder import TAGS
from prbslice.solver import resolve_solver_command, solve
from spans import NullTracer, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"

SETUP_RUNS = 3
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10

LAYERS = (
    "scenario.generate", "oracle.simulate", "oracle.diff",
    "encoder.encode", "encoder.emit",
    "solver.spawn", "solver.solve", "solver.decode",
    "smtlib_solver.tokenize", "smtlib_solver.parse", "smtlib_solver.run",
    "properties.check_all", "properties.metrics", "properties.baseline",
)

# The paper's three layers, as sums of the encoder's provenance tags.
TAG_LAYERS = {
    "slice": ("user-count", "window-entries", "usage-residual",
              "top-signal", "ramp-signal", "signal-conflict"),
    "partition": ("partition-adjust", "frame"),
    "system": ("entry-single", "entry-argmin", "residual-adjust"),
}

# A fresh interpreter imports the package and builds the workload's configs
# and scenario specs, then says it is ready for the first cell.
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import cells\n"
    "cells.prepare(cells.WORKLOADS[sys.argv[2]])\n"
    "print('ready', flush=True)\n"
)


def tail_percentile(sorted_times: list[float]) -> tuple[float, float, int]:
    """The highest listed percentile (nearest rank) with at least
    TAIL_MIN_BEYOND samples beyond it, else the median's rank; returns
    (percentile, value, samples beyond)."""
    n = len(sorted_times)
    for pct in TAIL_PERCENTILES:
        rank = max(1, -(-round(pct * 10) * n // 1000))
        if n - rank >= TAIL_MIN_BEYOND or pct == 50:
            return pct, sorted_times[rank - 1], n - rank
    raise AssertionError("unreachable: 50 is always listed")


def measure_setup(workload: str) -> float:
    argv = [sys.executable, "-c", SETUP_CODE, str(BENCH_DIR), workload]
    started = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.close()
        returncode = proc.wait(timeout=60)
    if line.strip() != "ready" or returncode != 0:
        raise RuntimeError(f"set-up probe exited {returncode} unready")
    return elapsed


def _attempt(runner, cell, inputs, tracer, expected: str):
    """Run one cell, inside a "cell" span when traced; then check its
    digest.  Returns (outputs or None, seconds, failure or None)."""
    started = time.perf_counter()
    try:
        if tracer.enabled:
            with tracer.span("cell", cell=cell.key):
                out = runner(cell, inputs, tracer)
        else:
            out = runner(cell, inputs, tracer)
    except Exception as exc:  # a failing cell must not end the run
        return None, time.perf_counter() - started, \
            f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    if out.digest() != expected:
        return out, elapsed, "scenario/oracle output digest differs"
    return out, elapsed, None


def _count_encoding(tracer: Tracer, out: cells.Outputs) -> None:
    tracer.count("encoder.cells")
    tracer.count("encoder.script_bytes", len(out.script.encode()))
    tracer.count("encoder.assertions", len(out.constraints.assertions))
    for tag, _ in out.constraints.assertions:
        tracer.count(f"encoder.assertions.{tag}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = cells.WORKLOADS[name]
    runner = cells.cell_runner(workload)
    inputs = cells.prepare(workload)
    expected = cells.load_digests(workload)
    null, tracer = NullTracer(), (Tracer() if trace else None)

    attempted = 0
    failures: list[tuple[str, str]] = []
    verified: list[float] = []          # untraced wall time per good cell
    untraced_total = traced_total = 0.0
    round_times: list[float] = []
    started = time.perf_counter()
    for round_cells in workload.rounds(seed):
        round_start = time.perf_counter()
        if round_times and (round_start - started
                            + statistics.fmean(round_times) > seconds):
            break
        for cell in round_cells:
            attempted += 1
            out, elapsed, failure = _attempt(runner, cell, inputs, null,
                                             expected[cell.key])
            if tracer is not None:
                out, traced, traced_failure = _attempt(
                    runner, cell, inputs, tracer, expected[cell.key])
                untraced_total += elapsed
                traced_total += traced
                if traced_failure is None and workload.differential:
                    _count_encoding(tracer, out)
                    with tracer.span("probe"):
                        status = cells.solve_in_process(out.script, tracer)
                    if status != "sat":
                        traced_failure = f"in-process solver answered {status}"
                failure = failure or traced_failure
            if failure is None:
                verified.append(elapsed)
            else:
                failures.append((cell.key, failure))
        round_times.append(time.perf_counter() - round_start)
    wall = time.perf_counter() - started

    # Read before any probe starts a child.  Only a differential cell starts
    # a solver; any earlier child (such as a launcher shim that exec'd this
    # interpreter) is not one.
    solver_rss_mb = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                     / 1024 if workload.differential else 0.0)
    result = {
        "workload": name, "seed": seed, "trace": trace,
        "attempted": attempted, "failures": failures, "wall_s": wall,
        "context": {
            "solver_command": resolve_solver_command(None),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is None:
        result.update(_end_to_end(name, verified, attempted, len(failures),
                                  wall, solver_rss_mb))
    else:
        with tracer.span("probe", cell="spawn"):
            verdict = tracer.call("solver.spawn", solve, "(check-sat)\n",
                                  timeout=cells.SOLVER_TIMEOUT_S, command=None)
        result["attempted"] += 1
        if verdict.status != "sat":
            failures.append(("spawn", f"empty script answered "
                                      f"{verdict.status}"))
        result["tracer"] = tracer
        result["metrics"] = _per_layer(tracer, solver_rss_mb,
                                       traced_total, untraced_total)
    return result


def _end_to_end(name, verified, attempted, failed, wall, solver_rss_mb):
    times = sorted(verified)
    setup = [measure_setup(name) for _ in range(SETUP_RUNS)]
    pct, tail, beyond = tail_percentile(times) if times else (50, math.nan, 0)
    return {
        "setup_samples_s": setup,
        "tail": {"percentile": pct, "cells": len(times), "beyond": beyond},
        "metrics": {
            "setup_s": statistics.median(setup),
            "cell_p50_s": statistics.median(times) if times else math.nan,
            "cell_tail_s": tail,
            "cells_per_s": len(times) / wall,
            "failed_frac": failed / attempted,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "solver_peak_rss_mb": solver_rss_mb,
        },
    }


def _per_layer(tracer: Tracer, solver_rss_mb: float,
               traced_total: float, untraced_total: float) -> dict:
    st = tracer.self_times()
    m: dict[str, float] = {}
    for layer in LAYERS:
        calls, busy = st.get(layer, (0, 0.0))
        m[f"{layer}_s"] = busy
        m[f"{layer}.calls"] = calls
    m["smtlib_solver.check_s"] = (m["smtlib_solver.run_s"]
                                  - m["smtlib_solver.tokenize_s"]
                                  - m["smtlib_solver.parse_s"])
    m["solver.overhead_s"] = m["solver.solve_s"] - m["smtlib_solver.run_s"]
    m["solver.non_sat"] = tracer.counts["solver.non_sat"]
    m["solver.peak_rss_mb"] = solver_rss_mb

    encoded = tracer.counts["encoder.cells"] or 1
    m["encoder.script_bytes"] = tracer.counts["encoder.script_bytes"] / encoded
    m["encoder.assertions"] = tracer.counts["encoder.assertions"] / encoded
    for tag in TAGS:
        m[f"encoder.assertions.{tag}"] = (
            tracer.counts[f"encoder.assertions.{tag}"] / encoded)
    for layer, tags in TAG_LAYERS.items():
        m[f"encoder.assertions.{layer}"] = sum(
            m[f"encoder.assertions.{tag}"] for tag in tags)

    cell_calls, cell_self = st.get("cell", (0, 0.0))
    m["trace.cells"] = cell_calls
    m["trace.unaccounted_frac"] = (cell_self / traced_total
                                   if traced_total else 0.0)
    m["trace_overhead_frac"] = (traced_total / untraced_total - 1
                                if untraced_total else 0.0)
    return m


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def report(result: dict, spec: dict) -> dict:
    """Print the human-readable report, then the result line; return it."""
    section = "per_layer" if result["trace"] else "end_to_end"
    metrics = result["metrics"]
    failures = result["failures"]
    attempted = result["attempted"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {int(result['trace'])}  {attempted} attempted, "
          f"{len(failures)} failed, {result['wall_s']:.2f} s")
    print("context " + json.dumps(result["context"]))
    for key, why in failures[:10]:
        print(f"FAILED {key}: {why}")
    if result["trace"]:
        tracer = result["tracer"]
        cell_total = sum(s.end - s.start for s in tracer.spans
                         if s.name == "cell") or 1.0
        print(f"{'span':<24}{'calls':>8}{'self s':>12}{'of cell time':>14}")
        for name, (calls, busy) in sorted(tracer.self_times().items(),
                                          key=lambda kv: -kv[1][1]):
            print(f"{name:<24}{calls:>8}{busy:>12.4f}"
                  f"{busy / cell_total:>14.1%}")
    else:
        tail = result["tail"]
        print(f"cell_tail_s is p{tail['percentile']:g} of {tail['cells']} "
              f"verified cells, {tail['beyond']} beyond; setup samples "
              + " ".join(f"{s:.4f}" for s in result["setup_samples_s"]))
        # Both can be 0, where a relative bound means nothing, so they are
        # reported here and not in the result line.
        print(f"failed_frac {metrics['failed_frac']:.6g} fraction")
        print(f"solver_peak_rss_mb {metrics['solver_peak_rss_mb']:.6g} MB")
    out_metrics = {}
    for entry in spec[section]:
        value = metrics[entry["name"]]
        out_metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} {value:.6g} {entry['unit']}")
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": out_metrics,
    }
    print(json.dumps(line))
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(cells.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; 0 runs a single round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    if args.trace:
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        result["tracer"].write(path)
        print(f"spans written to {path.relative_to(BENCH_DIR.parent)}")
    report(result, load_spec())
    return 0
