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
validation failure (an input file that is missing or invalid, or a pinned
scenario the simulator rejects), 3 property failure, 4 solver failure (not
run, unsat/unknown/timeout, or an unreadable output or model), 5 trace
mismatch in differential mode; and into the ``sweep`` status column
(``ok``, ``property:*``, ``solver:*``, ``error:*``).  ``sweep`` writes its
CSV in full either way, then exits 4 if any cell is ``solver:*`` or
``error:*``, else 3 if any cell is ``property:*``; skipped (config,
budget) pairs over budget do not count, and a config file that is missing
or breaks a structural rule exits 2 before any cell runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
from .scenario import ScenarioSpec, ScenarioTrace
from .solver import (
    DecodeError, SolverOutputError, SolverProcessError, SolverVerdict,
    extract_trace, solve,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PROPERTY = 3
EXIT_SOLVER = 4
EXIT_DIFF = 5


@dataclass(frozen=True)
class RunManifest:
    """Everything one run needs; differential mode always has a solver
    command because the bundled solver is the default."""

    config_path: str
    mode: str = "oracle"            # oracle | smt | differential
    out_dir: str = ""
    seed: Optional[int] = None
    scenario_path: Optional[str] = None
    scenario_spec_path: Optional[str] = None
    solver_cmd: Optional[str] = None
    timeout: float = 120.0
    total_prbs: Optional[int] = None
    horizon: Optional[int] = None


def _load_config(manifest: RunManifest,
                 cfg: Optional[NetworkConfig] = None) -> NetworkConfig:
    """The config of ``manifest`` (``cfg`` if the caller has parsed it)
    with the manifest's budget and horizon, validated."""
    if cfg is None:
        cfg = NetworkConfig.from_json(Path(manifest.config_path).read_text())
    changes = {}
    if manifest.total_prbs is not None:
        changes["total_prbs"] = manifest.total_prbs
    if manifest.horizon is not None:
        changes["horizon"] = manifest.horizon
    if changes:
        cfg = replace(cfg, **changes)
    cfg.validate()
    return cfg


def _load_scenario(manifest: RunManifest, config: NetworkConfig) -> ScenarioTrace:
    if manifest.scenario_path:
        scenario = ScenarioTrace.from_json(
            Path(manifest.scenario_path).read_text())
        scenario.check_dimensions(config)
        return scenario
    if manifest.seed is None:
        raise ConfigError("either --scenario or --seed is required")
    if manifest.scenario_spec_path:
        spec = ScenarioSpec.from_json(
            Path(manifest.scenario_spec_path).read_text())
    else:
        spec = config_scenario_spec(manifest.config_path, config)
    return spec.generate(config, manifest.seed)


def _load_inputs(manifest: RunManifest):
    """The validated config and the scenario of ``manifest``, or None after
    printing why not: a file that cannot be read is a validation failure,
    the same as an invalid document."""
    try:
        config = _load_config(manifest)
        return config, _load_scenario(manifest, config)
    except (ConfigError, ValueError, OSError) as exc:
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


def cmd_run(manifest: RunManifest) -> int:
    out_dir = Path(manifest.out_dir)
    inputs = _load_inputs(manifest)
    if inputs is None:
        return EXIT_VALIDATION
    config, scenario = inputs
    outcome = run_pipeline(config, scenario, manifest.mode,
                           manifest.solver_cmd, manifest.timeout)
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


def _sweep_cell(manifest: RunManifest) -> dict:
    row = {c: "" for c in SWEEP_COLUMNS}
    row.update({"config": Path(manifest.config_path).stem,
                "total_prbs": manifest.total_prbs, "seed": manifest.seed})
    try:
        config = _load_config(manifest)
        outcome = run_pipeline(config, _load_scenario(manifest, config),
                               manifest.mode, manifest.solver_cmd,
                               manifest.timeout)
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


def cmd_sweep(config_paths: Sequence[str], prb_values: Sequence[int],
              seeds: Sequence[int], mode: str, out_path: str,
              solver_cmd: Optional[str], timeout: float, jobs: int,
              horizon: Optional[int] = None) -> int:
    cells = []
    skipped_notes = []
    for path in config_paths:
        # a config that cannot be read, parsed or validated fails the sweep
        # before any cell runs; a (config, total_prbs) pair over budget is
        # a note
        try:
            parsed = NetworkConfig.from_json(Path(path).read_text())
        except (ConfigError, ValueError, OSError) as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        for prbs in prb_values:
            manifest = RunManifest(config_path=path, mode=mode,
                                   solver_cmd=solver_cmd, timeout=timeout,
                                   total_prbs=prbs, horizon=horizon)
            try:
                _load_config(manifest, parsed)
            except BudgetError as exc:
                skipped_notes.append(
                    f"skipping {Path(path).stem} at {prbs} PRBs: {exc}")
                continue
            except (ConfigError, ValueError) as exc:
                print(f"validation error: {exc}", file=sys.stderr)
                return EXIT_VALIDATION
            cells.extend(replace(manifest, seed=seed) for seed in seeds)

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]

    out = Path(out_path)
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


def cmd_compare(manifest: RunManifest,
                baseline_fraction: Optional[float], out_path: str) -> int:
    inputs = _load_inputs(manifest)
    if inputs is None:
        return EXIT_VALIDATION
    config, scenario = inputs
    outcome = run_pipeline(config, scenario, "oracle", None, manifest.timeout)
    if outcome.status != "ok":
        return _exit_code(outcome)
    metrics = outcome.metrics
    if baseline_fraction is None:
        baseline_fraction = max(metrics.premium_share_pct) / 100.0
    try:
        base = baseline_overprovision(config, scenario, baseline_fraction)
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    base_metrics = compute_metrics(base, config)

    out = Path(out_path)
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


def _add_common(p: argparse.ArgumentParser, pinned: bool,
                solver: bool) -> None:
    """Add ``--scenario`` only when ``pinned``, solver options only when
    ``solver``: a subcommand takes only the options it reads."""
    p.add_argument("--config", required=True, help="config JSON path")
    if pinned:
        p.add_argument("--scenario", help="pinned scenario JSON path")
    p.add_argument("--seed", type=int, help="scenario generation seed")
    p.add_argument("--scenario-spec",
                   help="distribution spec JSON (default: sibling "
                        "<config>.scenario.json, else built-in rates)")
    if solver:
        p.add_argument("--solver-cmd",
                       help="solver command template; '{script}' expands to "
                            "a temp file path, otherwise the script arrives "
                            "on stdin (env PRBSLICE_SOLVER_CMD, then the "
                            "bundled solver, when omitted)")
        p.add_argument("--timeout", type=float, default=120.0,
                       help="solver timeout in seconds")
    p.add_argument("--total-prbs", type=int, help="override the PRB budget")
    p.add_argument("--horizon", type=int, help="override the horizon")


def _manifest(args: argparse.Namespace, **fields) -> RunManifest:
    """The options ``_add_common`` always adds, plus ``fields``."""
    return RunManifest(config_path=args.config, seed=args.seed,
                       scenario_spec_path=args.scenario_spec,
                       total_prbs=args.total_prbs, horizon=args.horizon,
                       **fields)


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

    p_sweep = sub.add_parser("sweep", help="config x budget x seed matrix")
    p_sweep.add_argument("--config", action="append", required=True,
                         dest="configs", help="config JSON (repeatable)")
    p_sweep.add_argument("--total-prbs", action="append", type=int,
                         required=True, dest="prbs",
                         help="PRB budget (repeatable)")
    p_sweep.add_argument("--seeds", type=int, default=30,
                         help="number of seeds, 1..N")
    p_sweep.add_argument("--mode", choices=("oracle", "smt"),
                         default="oracle")
    p_sweep.add_argument("--solver-cmd")
    p_sweep.add_argument("--horizon", type=int,
                         help="override the horizon for every cell")
    p_sweep.add_argument("--timeout", type=float, default=120.0)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_cmp = sub.add_parser("compare",
                           help="premium share vs static baseline")
    _add_common(p_cmp, pinned=True, solver=False)
    p_cmp.add_argument("--baseline-fraction", type=float,
                       help="premium fraction of total PRBs the baseline "
                            "pins at j=0 (default: the adaptive run's peak)")
    p_cmp.add_argument("--out", required=True, help="output CSV path")

    # no abbreviations, so a --scenario is not taken for --scenario-spec
    p_gen = sub.add_parser("gen-scenario", help="pin a generated scenario",
                           allow_abbrev=False)
    _add_common(p_gen, pinned=False, solver=False)
    p_gen.add_argument("--out", required=True, help="output JSON path")

    p_val = sub.add_parser("validate-config", help="validate and exit")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    if args.command == "validate-config":
        try:
            NetworkConfig.from_json(Path(args.config).read_text()).validate()
        except (ConfigError, OSError) as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print("ok")
        return EXIT_OK

    if args.command == "sweep":
        return cmd_sweep(
            config_paths=args.configs,
            prb_values=args.prbs,
            seeds=range(1, args.seeds + 1),
            mode=args.mode,
            out_path=args.out,
            solver_cmd=args.solver_cmd,
            timeout=args.timeout,
            jobs=args.jobs,
            horizon=args.horizon,
        )

    if args.command == "run":
        return cmd_run(_manifest(
            args, mode=args.mode, out_dir=args.out,
            scenario_path=args.scenario, solver_cmd=args.solver_cmd,
            timeout=args.timeout))
    if args.command == "compare":
        return cmd_compare(_manifest(args, scenario_path=args.scenario),
                           args.baseline_fraction, args.out)
    if args.command == "gen-scenario":
        if args.seed is None:
            print("validation error: --seed is required", file=sys.stderr)
            return EXIT_VALIDATION
        inputs = _load_inputs(_manifest(args))
        if inputs is None:
            return EXIT_VALIDATION
        _, scenario = inputs
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(scenario.to_json())
        print(f"wrote {out}")
        return EXIT_OK
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
