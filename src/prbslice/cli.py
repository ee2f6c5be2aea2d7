"""Command-line harness: reproducible runs, sweeps, and baseline comparisons.

Subcommands
    run              one scenario through the simulator, the SMT path, or both
    sweep            a (config x total_prbs x seed) matrix, one CSV row per cell
    compare          premium share: adaptive allocation vs static baseline
    gen-scenario     write a pinned scenario JSON for later runs
    validate-config  check a config document and exit

``run``, ``compare``, ``sweep`` and the acceptance batch share
``run_pipeline``, and ``STATUS_MAP`` turns its status into the exit code of
``run`` and ``compare`` (which runs it in oracle mode): 0 success, 2
validation failure, 3 property failure, 4 solver failure (not run,
unsat/unknown/timeout, or an unreadable output or model), 5 trace mismatch
in differential mode; and into the ``sweep`` status column (``ok``,
``property:*``, ``solver:*``, ``error:*``).  A validation failure is an
input file that is missing or unreadable, a config, scenario or scenario
spec document that does not load, or a scenario the simulator rejects,
pinned or generated; an input that does not load writes no output.
``sweep`` reads each config file and its sibling spec once, before any
cell runs, and exits 2 with no CSV if one does not load or the spec lacks
one of the config's services; (config, budget) pairs over budget are
skipped with a note.  A ``--seeds`` or ``--timeout`` that is not a finite
number above 0 is a usage error.  Otherwise it writes its CSV in
full, then exits 4 if any cell is ``solver:*`` or ``error:*``, else 3 if
any cell is ``property:*``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from .encoder import encode, emit_smtlib
from .model import BudgetError, ConfigError, NetworkConfig
from .oracle import AllocationTrace, SimulationError, diff_traces, simulate
from .presets import config_scenario_spec
from .properties import (
    MetricsBundle, PropertyReport, baseline_overprovision, check_all,
    compute_metrics,
)
from .scenario import ScenarioSpec, ScenarioTrace, check_coverage
from .solver import (
    DecodeError, SolverOutputError, SolverProcessError, SolverVerdict,
    extract_trace, solve,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PROPERTY = 3
EXIT_SOLVER = 4
EXIT_DIFF = 5


def _config(parsed: NetworkConfig, total_prbs: Optional[int],
            horizon: Optional[int]) -> NetworkConfig:
    """``parsed`` with the budget and horizon overrides that are set,
    validated."""
    overrides = {"total_prbs": total_prbs, "horizon": horizon}
    config = replace(parsed, **{k: v for k, v in overrides.items()
                                if v is not None})
    config.validate()
    return config


def _inputs(args: argparse.Namespace):
    """The validated config and the scenario that ``args`` name, or None
    after printing why not.  The scenario is the pinned ``--scenario`` if
    given (no spec is read then), else one generated from ``--seed`` and
    ``--scenario-spec`` or the config's sibling spec.  A file that cannot
    be read, a document that does not load and a generated scenario the
    simulator rejects are all validation failures."""
    try:
        config = _config(
            NetworkConfig.from_json(Path(args.config).read_text()),
            args.total_prbs, args.horizon)
        if args.scenario:
            scenario = ScenarioTrace.from_json(Path(args.scenario).read_text())
            scenario.check_dimensions(config)
            return config, scenario
        if args.seed is None:
            raise ConfigError("either --scenario or --seed is required")
        if args.scenario_spec:
            spec = ScenarioSpec.from_json(Path(args.scenario_spec).read_text())
        else:
            spec = config_scenario_spec(args.config, config)
        return config, spec.generate(config, args.seed)
    except (ValueError, OSError, SimulationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return None


@dataclass
class RunOutcome:
    """What ``run_pipeline`` produced: each stage's output (None when the
    stage did not run), and ``ok`` or the status of the stage that ended
    the run, with ``detail`` saying why."""

    status: str = "ok"
    detail: str = ""
    oracle_trace: Optional[AllocationTrace] = None
    script: Optional[str] = None
    verdict: Optional[SolverVerdict] = None
    smt_trace: Optional[AllocationTrace] = None
    diffs: Optional[list[str]] = None
    report: Optional[PropertyReport] = None
    metrics: Optional[MetricsBundle] = None

    def stop(self, status: str, detail) -> "RunOutcome":
        self.status, self.detail = status, str(detail)
        return self


def run_pipeline(config: NetworkConfig, scenario: ScenarioTrace, mode: str,
                 solver_cmd: Optional[str], timeout: float) -> RunOutcome:
    """Simulate, encode, emit, solve, decode, diff, check and measure, each
    stage at most once: ``oracle`` mode runs the simulator, ``smt`` the
    solver path, ``differential`` both and the diff; properties and metrics
    are of the simulator's trace when it ran.  The first stage that fails
    ends the run with its status: ``invalid`` (the simulator rejected the
    scenario), ``solver`` (the solver did not run, or its output or model
    was unreadable), ``verdict`` (not sat), ``diff`` or ``property``."""
    out = RunOutcome()
    try:
        if mode in ("oracle", "differential"):
            out.oracle_trace = simulate(config, scenario)
        if mode in ("smt", "differential"):
            out.script = emit_smtlib(encode(config, scenario))
            out.verdict = solve(out.script, timeout=timeout,
                                command=solver_cmd)
            if out.verdict.status != "sat":
                return out.stop("verdict", out.verdict.status)
            out.smt_trace = extract_trace(out.verdict, config, scenario)
    except SimulationError as exc:
        return out.stop("invalid", exc)
    except (SolverProcessError, SolverOutputError, DecodeError) as exc:
        return out.stop("solver", exc)
    if mode == "differential":
        out.diffs = diff_traces(out.oracle_trace, out.smt_trace)
        if out.diffs:
            return out.stop("diff", f"{len(out.diffs)} difference(s), "
                                    f"first {out.diffs[0]}")
    trace = out.oracle_trace or out.smt_trace
    out.report = check_all(trace, config)
    out.metrics = compute_metrics(trace, config)
    if not out.report.all_passed:
        return out.stop("property", ",".join(out.report.failing()))
    return out


# pipeline status -> exit code and stderr line of `run`, and the status
# column of `sweep` (which has no diff stage)
STATUS_MAP = {
    "ok": (EXIT_OK, "", "ok"),
    "invalid": (EXIT_VALIDATION, "validation error: {}", "error: {}"),
    "solver": (EXIT_SOLVER, "solver failure: {}", "error: {}"),
    "verdict": (EXIT_SOLVER, "solver failure: verdict {}", "solver:{}"),
    "diff": (EXIT_DIFF, "trace mismatch: {}", None),
    "property": (EXIT_PROPERTY, "property failure: {}", "property:{}"),
}

# `run` artifacts: file name, the stage output it renders, and how; a file
# is written exactly when its stage ran
ARTIFACTS = (
    ("trace.csv", "oracle_trace", AllocationTrace.to_csv),
    ("trace.json", "oracle_trace", AllocationTrace.to_json),
    ("model.smt2", "script", str),
    ("verdict.json", "verdict", lambda v: json.dumps(
        {"status": v.status, "wall_time": v.wall_time}, indent=2)),
    ("smt_trace.csv", "smt_trace", AllocationTrace.to_csv),
    ("diff.txt", "diffs", "\n".join),
    ("properties.json", "report", PropertyReport.to_json),
    ("properties.csv", "report", PropertyReport.to_csv),
    ("metrics.json", "metrics", MetricsBundle.to_json),
    ("metrics.csv", "metrics", MetricsBundle.to_csv),
)


def _exit_code(outcome: RunOutcome) -> int:
    """The exit code of ``outcome``, after printing why when it failed."""
    code, message, _ = STATUS_MAP[outcome.status]
    if code != EXIT_OK:
        print(message.format(outcome.detail), file=sys.stderr)
    return code


def cmd_run(args: argparse.Namespace) -> int:
    inputs = _inputs(args)
    if inputs is None:
        return EXIT_VALIDATION
    config, scenario = inputs
    outcome = run_pipeline(config, scenario, args.mode, args.solver_cmd,
                           args.timeout)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(config.to_json())
    for name, stage, render in ARTIFACTS:
        output = getattr(outcome, stage)
        if output is not None:
            (out_dir / name).write_text(render(output))
    code = _exit_code(outcome)
    if code == EXIT_OK:
        print(f"ok: artifacts in {out_dir}")
    return code


SWEEP_COLUMNS = (
    "config", "total_prbs", "seed", "status", "final_rp_shr",
    "final_rp_fraction", "topup_actions", "rampdown_actions",
    "blocked_entries", "premium_share_pct_max", "solver_wall_time",
)


def _sweep_cell(args: argparse.Namespace, cell: tuple) -> dict:
    """The CSV row of one (config, budget, seed) cell: the config and spec
    arrive loaded, so a cell reads no file."""
    name, config, spec, seed = cell
    row = {c: "" for c in SWEEP_COLUMNS}
    row.update({"config": name, "total_prbs": config.total_prbs,
                "seed": seed})
    try:
        outcome = run_pipeline(config, spec.generate(config, seed),
                               args.mode, args.solver_cmd, args.timeout)
    except Exception as exc:  # partial failures stay in the table
        row["status"] = f"error: {exc}"
        return row
    row["status"] = STATUS_MAP[outcome.status][2].format(outcome.detail)
    metrics = outcome.metrics
    if metrics is not None:
        row.update({
            "final_rp_shr": metrics.residual_share[-1],
            "final_rp_fraction": f"{metrics.residual_fraction[-1]:.4f}",
            "topup_actions": metrics.topup_total,
            "rampdown_actions": metrics.rampdown_total,
            "blocked_entries": metrics.blocked_entries,
            "premium_share_pct_max": f"{max(metrics.premium_share_pct):.4f}",
        })
    if outcome.smt_trace is not None:
        row["solver_wall_time"] = f"{outcome.verdict.wall_time:.3f}"
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    # each config file and its spec are read once, before any cell runs:
    # one that cannot be read, parsed or validated fails the sweep; a
    # (config, total_prbs) pair over budget is a note
    cells = []
    skipped_notes = []
    try:
        for path in args.configs:
            name = Path(path).stem
            parsed = NetworkConfig.from_json(Path(path).read_text())
            spec = config_scenario_spec(path, parsed)
            check_coverage(parsed, spec.per_service)
            for prbs in args.prbs:
                try:
                    config = _config(parsed, prbs, args.horizon)
                except BudgetError as exc:
                    skipped_notes.append(
                        f"skipping {name} at {prbs} PRBs: {exc}")
                    continue
                cells.extend((name, config, spec, seed)
                             for seed in range(1, args.seeds + 1))
    except (ValueError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    run_cell = partial(_sweep_cell, args)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(run_cell, cells))
    else:
        rows = [run_cell(cell) for cell in cells]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    for note in skipped_notes:
        print(note, file=sys.stderr)
    print(f"wrote {len(rows)} rows to {out}")
    statuses = [row["status"] for row in rows]
    if any(st.startswith(("solver:", "error:")) for st in statuses):
        return EXIT_SOLVER
    if any(st.startswith("property:") for st in statuses):
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    inputs = _inputs(args)
    if inputs is None:
        return EXIT_VALIDATION
    config, scenario = inputs
    # oracle mode runs no solver, so the solver options are unused
    outcome = run_pipeline(config, scenario, "oracle", None, 0.0)
    if outcome.status != "ok":
        return _exit_code(outcome)
    metrics = outcome.metrics
    baseline_fraction = args.baseline_fraction
    if baseline_fraction is None:
        baseline_fraction = max(metrics.premium_share_pct) / 100.0
    try:
        base = baseline_overprovision(config, scenario, baseline_fraction)
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    base_metrics = compute_metrics(base, config)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "premium_share_pct", "baseline_share_pct", "gap"])
        for j, (ours, theirs) in enumerate(zip(metrics.premium_share_pct,
                                               base_metrics.premium_share_pct)):
            writer.writerow([j, f"{ours:.4f}", f"{theirs:.4f}",
                             f"{theirs - ours:.4f}"])
    print(f"wrote comparison to {out} (baseline fraction "
          f"{float(baseline_fraction):.4f})")
    return EXIT_OK


def cmd_gen_scenario(args: argparse.Namespace) -> int:
    inputs = _inputs(args)
    if inputs is None:
        return EXIT_VALIDATION
    _, scenario = inputs
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(scenario.to_json())
    print(f"wrote {out}")
    return EXIT_OK


def cmd_validate_config(args: argparse.Namespace) -> int:
    try:
        NetworkConfig.from_json(Path(args.config).read_text()).validate()
    except (ValueError, OSError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def _positive(convert):
    """An argparse type: the text through ``convert``, which must give a
    finite number above 0."""
    def positive(text: str):
        value = convert(text)
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(
                f"must be a finite number above 0, got {text!r}")
        return value
    positive.__name__ = convert.__name__
    return positive


def _add_common(p: argparse.ArgumentParser, pinned: bool,
                solver: bool) -> None:
    """Add ``--scenario`` only when ``pinned`` (``--seed`` is required
    otherwise), solver options only when ``solver``: a subcommand takes
    only the options it reads."""
    p.add_argument("--config", required=True, help="config JSON path")
    if pinned:
        p.add_argument("--scenario", help="pinned scenario JSON path")
    else:
        p.set_defaults(scenario=None)
    p.add_argument("--seed", type=int, required=not pinned,
                   help="scenario generation seed")
    p.add_argument("--scenario-spec",
                   help="distribution spec JSON (default: sibling "
                        "<config>.scenario.json, else built-in rates)")
    if solver:
        p.add_argument("--solver-cmd",
                       help="solver command template; '{script}' expands to "
                            "a temp file path, otherwise the script arrives "
                            "on stdin (env PRBSLICE_SOLVER_CMD, then the "
                            "bundled solver, when omitted)")
        p.add_argument("--timeout", type=_positive(float), default=120.0,
                       help="solver timeout in seconds")
    p.add_argument("--total-prbs", type=int, help="override the PRB budget")
    p.add_argument("--horizon", type=int, help="override the horizon")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="prbslice",
        description="PRB allocation for sliced RANs: simulate, solve, verify")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single reproducible run")
    _add_common(p_run, pinned=True, solver=True)
    p_run.add_argument("--mode", choices=("oracle", "smt", "differential"),
                       default="oracle")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="config x budget x seed matrix")
    p_sweep.add_argument("--config", action="append", required=True,
                         dest="configs", help="config JSON (repeatable)")
    p_sweep.add_argument("--total-prbs", action="append", type=int,
                         required=True, dest="prbs",
                         help="PRB budget (repeatable)")
    p_sweep.add_argument("--seeds", type=_positive(int), default=30,
                         help="number of seeds, 1..N")
    p_sweep.add_argument("--mode", choices=("oracle", "smt"),
                         default="oracle")
    p_sweep.add_argument("--solver-cmd")
    p_sweep.add_argument("--horizon", type=int,
                         help="override the horizon for every cell")
    p_sweep.add_argument("--timeout", type=_positive(float), default=120.0)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_cmp = sub.add_parser("compare",
                           help="premium share vs static baseline")
    _add_common(p_cmp, pinned=True, solver=False)
    p_cmp.add_argument("--baseline-fraction", type=float,
                       help="premium fraction of total PRBs the baseline "
                            "pins at j=0 (default: the adaptive run's peak)")
    p_cmp.add_argument("--out", required=True, help="output CSV path")
    p_cmp.set_defaults(handler=cmd_compare)

    # no abbreviations, so a --scenario is not taken for --scenario-spec
    p_gen = sub.add_parser("gen-scenario", help="pin a generated scenario",
                           allow_abbrev=False)
    _add_common(p_gen, pinned=False, solver=False)
    p_gen.add_argument("--out", required=True, help="output JSON path")
    p_gen.set_defaults(handler=cmd_gen_scenario)

    p_val = sub.add_parser("validate-config", help="validate and exit")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(handler=cmd_validate_config)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
