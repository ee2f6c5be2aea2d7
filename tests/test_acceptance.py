"""Acceptance suite: one test per criterion, one PASS line printed each.

The differential batch (four layouts x 30 seeds at 200 PRBs, horizon 30) is
the shipped ``prbslice sweep --mode differential`` command, run once in a
session fixture; the criteria that need it read its CSV rows.
"""

import csv
from fractions import Fraction
from pathlib import Path

import pytest

from prbslice.cli import main, run_pipeline
from prbslice.encoder import BOUND_MULTIPLIER, encode
from prbslice.model import (
    ConfigError,
    constraint_count_bound,
    max_window_usage,
    nominal_throughput,
)
from prbslice.oracle import (
    diff_traces,
    partition_adjust,
    residual_adjust,
    simulate,
)
from prbslice.presets import PRESET_NAMES, preset_config, preset_scenario_spec
from prbslice.properties import baseline_overprovision, check_all, compute_metrics

SEEDS = tuple(range(1, 31))
CONFIGS = Path(__file__).parent.parent / "src" / "prbslice" / "configs"


@pytest.fixture(scope="session")
def batch(tmp_path_factory):
    """The sweep's rows keyed by (preset, seed)."""
    out = tmp_path_factory.mktemp("batch") / "batch.csv"
    configs = [str(CONFIGS / f"config_{name.replace('-', '_')}.json")
               for name in PRESET_NAMES]
    main(["sweep", *(w for c in configs for w in ("--config", c)),
          "--total-prbs", "200", "--horizon", "30",
          "--seeds", str(len(SEEDS)), "--mode", "differential",
          "--jobs", "4", "--timeout", "600", "--out", str(out)])
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {(r["config"].removeprefix("config_").replace("_", "-"),
             int(r["seed"])): r for r in rows}


def test_criterion_1_differential_equivalence(batch):
    # a cell is `ok` or `property:*` only when its diff ran and was empty
    assert set(batch) == {(n, s) for n in PRESET_NAMES for s in SEEDS}
    mismatched = [key for key, r in batch.items()
                  if not (r["status"] == "ok"
                          or r["status"].startswith("property:"))]
    assert not mismatched, f"SMT trace differs from simulator: {mismatched}"
    print("\nCRITERION 1: PASS - solver-extracted trace equals the forward "
          "simulation exactly for 4 layouts x 30 seeds")


def test_criterion_2_sat_and_infeasible_rejection(batch):
    not_sat = [key for key, r in batch.items()
               if r["status"].startswith(("solver:", "error:"))]
    assert not not_sat, f"non-sat cells: {not_sat}"
    with pytest.raises(ConfigError):
        preset_config("5-4-13", total_prbs=100).validate()
    print("CRITERION 2: PASS - every encoding is sat; 5-4-13 at 100 PRBs is "
          "rejected at validation")


def test_criterion_3_throughput_constant():
    coefficient = nominal_throughput(1)
    assert abs(coefficient - 4163.798) <= 0.001
    print(f"CRITERION 3: PASS - per-PRB coefficient {coefficient:.4f} Mbps "
          "within 0.001 of 4163.798")


def test_criterion_4_window_usage_examples():
    assert max_window_usage(28, 2) == 14
    assert max_window_usage(40, 3) == 14
    print("CRITERION 4: PASS - window usage caps for (28,2) and (40,3) both "
          "equal 14")


def test_criterion_5_worked_adjustments():
    # intra-partition: one slice needs 10 while another frees 15
    caps = [10, 15]
    _, pt = partition_adjust(caps, [1, 2], top=[True, False],
                             ramp=[False, True], shr_prev=[20, 40],
                             resi_mid=[5, 35], pt_prev=100)
    assert pt == 95
    # inter-partition: raising 8 against freeing 5 borrows 3 from residual
    assert residual_adjust([30, 40], [38, 35], rp_prev=50) == 47
    print("CRITERION 5: PASS - worked adjustment cases net -5 on the "
          "partition and -3 on the residual share")


def test_criterion_6_residual_floor(batch):
    # a cell that stopped before its metrics has no fraction, so it fails
    fractions = {key: float(r["final_rp_fraction"] or -1)
                 for key, r in batch.items()}
    below = {key: f for key, f in fractions.items() if f < 0.5}
    assert not below, f"final residual fraction under 0.5: {below}"
    print(f"CRITERION 6: PASS - final residual fraction >= 0.5 on all 120 "
          f"runs (worst {min(fractions.values()):.3f})")


def test_criterion_7_property_suite(batch):
    # `ok` means check_all passed on the simulator's trace; the solver's
    # trace equals it (criterion 1: the diff is empty), so check_all gives
    # it the same report
    failing = [key for key, r in batch.items() if r["status"] != "ok"]
    assert not failing, f"property suite failed on: {failing}"
    # the ten injected-fault tests live in test_properties.TestInjectedFaults
    print("CRITERION 7: PASS - invariant suite passes on all simulator and "
          "solver traces (fault injection covered in test_properties)")


def test_criterion_8_constraint_count_bound():
    for name in PRESET_NAMES:
        for horizon in (30, 50, 70):
            config = preset_config(name, horizon=horizon)
            scenario = preset_scenario_spec(name).generate(config, 1)
            cs = encode(config, scenario)
            limit = BOUND_MULTIPLIER * constraint_count_bound(config)
            assert len(cs.assertions) <= limit, (name, horizon)
    print(f"CRITERION 8: PASS - assertion counts stay within "
          f"{BOUND_MULTIPLIER}x the analytic bound for all layouts at "
          "horizons 30/50/70")


def test_criterion_9_solver_runtime(batch):
    worst = {name: max(float(r["solver_wall_time"] or 0)
                       for (n, _), r in batch.items() if n == name)
             for name in PRESET_NAMES}
    slowest = worst.pop("3-2-4")
    assert slowest < 120, f"3-2-4 solve exceeded 120 s: {slowest:.1f}"
    report = ", ".join(f"{k}: {v:.1f}s" for k, v in sorted(worst.items()))
    print(f"CRITERION 9: PASS - 3-2-4 solves in {slowest:.1f}s worst case "
          f"(<120s); larger layouts reported, not asserted ({report})")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_differential_at_the_overuse_floor(seed):
    # at 100 PRBs the residual share of 5-3-10 falls to the overuse floor,
    # which the 200-PRB batch never reaches, so the rp_ovr rule is tested
    config = preset_config("5-3-10", total_prbs=100, horizon=30)
    scenario = preset_scenario_spec("5-3-10").generate(config, seed)
    run = run_pipeline(config, scenario, "differential", None, 600)
    assert any(st.rp_shr == config.overuse_floor
               for st in run.oracle_trace.states[:-1])
    assert run.verdict.status == "sat"
    assert diff_traces(run.oracle_trace, run.smt_trace) == []
    assert check_all(run.smt_trace, config).all_passed


def test_criterion_10_baseline_dominance():
    gaps = []
    for seed in SEEDS:
        config = preset_config("3-2-4", total_prbs=200, horizon=30)
        scenario = preset_scenario_spec("3-2-4").generate(config, seed)
        trace = simulate(config, scenario)
        ours = compute_metrics(trace, config).premium_share_pct
        fraction = Fraction(max(ours) / 100.0).limit_denominator(10 ** 6)
        base = baseline_overprovision(config, scenario, fraction)
        theirs = compute_metrics(base, config).premium_share_pct
        assert all(b >= o for o, b in zip(ours, theirs)), seed
        gaps.append(sum(b - o for o, b in zip(ours, theirs)) / len(ours))
    print(f"CRITERION 10: PASS - static baseline premium share dominates at "
          f"every timestep for 30 seeds (mean gap "
          f"{sum(gaps) / len(gaps):.2f} percentage points)")
