"""The benchmark's workloads and the verified cell each of them runs.

A cell is one (preset layout, PRB budget, horizon, scenario seed) taken
through the public functions of ``prbslice``.  A differential cell runs
generate -> simulate -> encode -> emit -> solve -> decode -> diff ->
check_all -> metrics; an oracle cell runs generate -> simulate -> check_all
-> metrics -> baseline -> metrics.  Every call goes through a tracer, so the
same code serves the untraced runs (a plain call) and the traced run (one
span per call).

A cell fails by raising; the runner catches the exception and counts it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from prbslice.encoder import ConstraintSet, emit_smtlib, encode
from prbslice.oracle import AllocationTrace, diff_traces, simulate
from prbslice.presets import PRESET_NAMES, preset_config, preset_scenario_spec
from prbslice.properties import (
    baseline_overprovision,
    check_all,
    compute_metrics,
)
from prbslice.scenario import ScenarioTrace
from prbslice.smtlib_solver import Interpreter, parse, tokenize
from prbslice.solver import extract_trace, solve

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# Scenario seeds every workload draws from: the acceptance batch's 1..30.
# The workload seed only orders them, so each cell's expected output digest
# can be recorded in advance.
SCENARIO_SEEDS = tuple(range(1, 31))

# Several times the slowest cell (about 10 s), short enough that one stuck
# solve cannot hold a run for minutes.
SOLVER_TIMEOUT_S = 60.0


class DigestFileError(RuntimeError):
    """digests.json does not match the workload it claims to describe."""


class CellFailure(Exception):
    """A cell ran to the end but one of its outputs is wrong."""


@dataclass(frozen=True)
class Cell:
    preset: str
    total_prbs: int
    horizon: int
    seed: int

    @property
    def layout(self) -> tuple[str, int, int]:
        return (self.preset, self.total_prbs, self.horizon)

    @property
    def key(self) -> str:
        return f"{self.preset}/{self.total_prbs}/{self.horizon}/{self.seed}"


@dataclass(frozen=True)
class Workload:
    name: str
    differential: bool                       # False: oracle mode + baseline
    layouts: tuple[tuple[str, int, int], ...]

    def universe(self) -> list[Cell]:
        """Every cell the workload can run, in digest order."""
        return [Cell(*layout, seed) for seed in SCENARIO_SEEDS
                for layout in self.layouts]

    def rounds(self, seed: int) -> Iterator[list[Cell]]:
        """Endless rounds, one scenario seed each, in a seeded order.

        A round holds every layout once, so whole rounds keep the mix of
        layouts, and with it the cell-time distribution, the same in every
        run however many rounds fit.
        """
        rng = random.Random(seed)
        while True:
            order = list(SCENARIO_SEEDS)
            rng.shuffle(order)
            for scenario_seed in order:
                yield [Cell(*layout, scenario_seed) for layout in self.layouts]


WORKLOADS = {
    w.name: w for w in (
        Workload("preset-batch", True,
                 tuple((name, 200, 30) for name in PRESET_NAMES)),
        Workload("deep-horizon", True, (("5-4-13", 200, 70),)),
        # 5-4-13 at 100 PRBs is infeasible and skipped, as `prbslice sweep`
        # skips it.
        Workload("oracle-sweep", False,
                 tuple((name, prbs, 30) for name in PRESET_NAMES
                       for prbs in (100, 200, 300)
                       if (name, prbs) != ("5-4-13", 100))),
    )
}


def prepare(workload: Workload) -> dict:
    """Build and validate each layout's config and scenario spec."""
    inputs = {}
    for preset, prbs, horizon in workload.layouts:
        config = preset_config(preset, total_prbs=prbs, horizon=horizon)
        config.validate()
        inputs[(preset, prbs, horizon)] = (config, preset_scenario_spec(preset))
    return inputs


@dataclass(frozen=True)
class Outputs:
    """What a cell produced that the runner checks or counts."""

    scenario: ScenarioTrace
    traces: tuple[AllocationTrace, ...]      # oracle trace, then baseline
    constraints: ConstraintSet | None = None  # differential cells only
    script: str = ""

    def digest(self) -> str:
        """SHA-256 over the scenario JSON and every trace's CSV."""
        h = hashlib.sha256(self.scenario.to_json().encode())
        for trace in self.traces:
            h.update(trace.to_csv().encode())
        return h.hexdigest()


def run_differential(cell: Cell, inputs: dict, tracer) -> Outputs:
    config, spec = inputs[cell.layout]
    call = tracer.call
    scenario = call("scenario.generate", spec.generate, config, cell.seed)
    oracle = call("oracle.simulate", simulate, config, scenario)
    constraints = call("encoder.encode", encode, config, scenario)
    script = call("encoder.emit", emit_smtlib, constraints)
    verdict = call("solver.solve", solve, script,
                   timeout=SOLVER_TIMEOUT_S, command=None)
    if verdict.status != "sat":
        tracer.count("solver.non_sat")
        raise CellFailure(f"solver answered {verdict.status}")
    decoded = call("solver.decode", extract_trace, verdict, config, scenario)
    diffs = call("oracle.diff", diff_traces, oracle, decoded)
    if diffs:
        raise CellFailure(f"{len(diffs)} state difference(s), first: "
                          f"{diffs[0]}")
    report = call("properties.check_all", check_all, oracle, config)
    if not report.all_passed:
        raise CellFailure(f"invariants failed: {report.failing()}")
    call("properties.metrics", compute_metrics, oracle, config)
    return Outputs(scenario, (oracle,), constraints, script)


def run_oracle(cell: Cell, inputs: dict, tracer) -> Outputs:
    """Oracle run plus the `prbslice compare` baseline at the run's peak
    premium share; the baseline must dominate at every timestep."""
    config, spec = inputs[cell.layout]
    call = tracer.call
    scenario = call("scenario.generate", spec.generate, config, cell.seed)
    trace = call("oracle.simulate", simulate, config, scenario)
    report = call("properties.check_all", check_all, trace, config)
    if not report.all_passed:
        raise CellFailure(f"invariants failed: {report.failing()}")
    ours = call("properties.metrics", compute_metrics, trace, config)
    fraction = max(ours.premium_share_pct) / 100.0
    base = call("properties.baseline", baseline_overprovision,
                config, scenario, fraction)
    theirs = call("properties.metrics", compute_metrics, base, config)
    if any(b < o for o, b in zip(ours.premium_share_pct,
                                 theirs.premium_share_pct)):
        raise CellFailure("baseline premium share below the adaptive run's")
    return Outputs(scenario, (trace, base))


def cell_runner(workload: Workload) -> Callable[[Cell, dict, object], Outputs]:
    return run_differential if workload.differential else run_oracle


def solve_in_process(script: str, tracer) -> str:
    """Run the bundled solver in this process on the script, timing its
    tokenize and parse on their own; return its first output line."""
    tokens = tracer.call("smtlib_solver.tokenize", tokenize, script)
    tracer.call("smtlib_solver.parse", parse, tokens)
    out = io.StringIO()
    tracer.call("smtlib_solver.run", Interpreter(out).run, script)
    return out.getvalue().split("\n", 1)[0]


def workload_digest(workload: Workload, cell_digests: dict) -> str:
    """SHA-256 over every cell's digest, in universe order."""
    h = hashlib.sha256()
    for cell in workload.universe():
        h.update(f"{cell.key} {cell_digests[cell.key]}\n".encode())
    return h.hexdigest()


def load_digests(workload: Workload) -> dict[str, str]:
    """The recorded per-cell digests, after checking that they cover the
    workload's universe and hash to its recorded workload digest."""
    doc = json.loads(DIGESTS_PATH.read_text())[workload.name]
    cell_digests = doc["cells"]
    if set(cell_digests) != {c.key for c in workload.universe()}:
        raise DigestFileError(f"{workload.name}: recorded cells differ from "
                              f"the workload's")
    if workload_digest(workload, cell_digests) != doc["digest"]:
        raise DigestFileError(f"{workload.name}: cell digests do not hash "
                              f"to the recorded workload digest")
    return cell_digests
