import csv
import json
from pathlib import Path

from prbslice.cli import (
    EXIT_DIFF,
    EXIT_OK,
    EXIT_PROPERTY,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    main,
)
from prbslice.scenario import ScenarioTrace

CONFIGS = Path(__file__).parent.parent / "configs"
C324 = str(CONFIGS / "config_3_2_4.json")
C5413 = str(CONFIGS / "config_5_4_13.json")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestValidateConfig:
    def test_ok(self, capsys):
        assert main(["validate-config", "--config", C324]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["validate-config", "--config", str(bad)]) == \
            EXIT_VALIDATION


class TestRun:
    def test_oracle_mode(self, tmp_path):
        out = tmp_path / "run"
        code = main(["run", "--config", C324, "--seed", "1",
                     "--mode", "oracle", "--out", str(out)])
        assert code == EXIT_OK
        for name in ("trace.csv", "trace.json", "metrics.json",
                     "metrics.csv", "properties.json", "properties.csv"):
            assert (out / name).exists(), name
        report = json.loads((out / "properties.json").read_text())
        assert all(entry["passed"] for entry in report.values())

    def test_differential_mode_empty_diff(self, tmp_path):
        out = tmp_path / "diff"
        code = main(["run", "--config", C324, "--seed", "2",
                     "--mode", "differential", "--horizon", "8",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "diff.txt").read_text() == ""
        assert (out / "model.smt2").exists()
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["status"] == "sat"

    def test_infeasible_config_rejected_before_solving(self, tmp_path):
        code = main(["run", "--config", C5413, "--seed", "1",
                     "--mode", "smt", "--total-prbs", "100",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "x" / "model.smt2").exists()

    def test_solver_failure_exit_code(self, tmp_path):
        code = main(["run", "--config", C324, "--seed", "1",
                     "--mode", "smt", "--horizon", "4",
                     "--solver-cmd", "definitely-not-a-solver-xyz",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_SOLVER

    def test_seed_or_scenario_required(self, tmp_path):
        code = main(["run", "--config", C324, "--mode", "oracle",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION

    def test_artifacts_re_readable(self, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["run", "--config", C324, "--seed", "3",
                     "--horizon", "10", "--out", str(out)]) == EXIT_OK
        from prbslice.model import NetworkConfig
        from prbslice.oracle import AllocationTrace

        config = NetworkConfig.from_json(Path(C324).read_text())
        AllocationTrace.from_csv((out / "trace.csv").read_text(), config)
        json.loads((out / "metrics.json").read_text())
        assert read_rows(out / "metrics.csv")
        assert read_rows(out / "properties.csv")

    def test_property_failure_exit_code(self, tmp_path, monkeypatch):
        from prbslice.properties import InvariantResult, PropertyReport

        def failing_check(trace, config):
            return PropertyReport(results={"conservation": InvariantResult(
                passed=False, first_violation_timestep=1, details="forced")})

        monkeypatch.setattr("prbslice.cli.check_all", failing_check)
        code = main(["run", "--config", C324, "--seed", "1", "--horizon",
                     "5", "--out", str(tmp_path / "x")])
        assert code == EXIT_PROPERTY

    def test_diff_mismatch_exit_code(self, tmp_path, monkeypatch):
        from helpers import mutate_slice
        import prbslice.cli as cli_mod

        real_simulate = cli_mod.simulate

        def skewed_simulate(config, scenario):
            trace = real_simulate(config, scenario)
            return mutate_slice(trace, j=1, slice_id=1,
                                usr=trace.states[1].slices[0].usr + 1)

        monkeypatch.setattr("prbslice.cli.simulate", skewed_simulate)
        code = main(["run", "--config", C324, "--seed", "1", "--horizon",
                     "5", "--mode", "differential",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_DIFF
        assert (tmp_path / "x" / "diff.txt").read_text() != ""

    def test_pinned_scenario_round_trip(self, tmp_path):
        scenario_path = tmp_path / "pinned.json"
        assert main(["gen-scenario", "--config", C324, "--seed", "9",
                     "--out", str(scenario_path)]) == EXIT_OK
        ScenarioTrace.from_json(scenario_path.read_text())
        out = tmp_path / "run"
        assert main(["run", "--config", C324,
                     "--scenario", str(scenario_path),
                     "--out", str(out)]) == EXIT_OK


class TestSweep:
    def test_matrix_row_count_skips_infeasible(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", C324, "--config", C5413,
                     "--total-prbs", "100", "--total-prbs", "200",
                     "--seeds", "2", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out)
        # 2 configs x 2 budgets x 2 seeds, minus the skipped 5-4-13 @ 100
        assert len(rows) == 6
        assert all(r["status"] == "ok" for r in rows)
        combos = {(r["config"], r["total_prbs"]) for r in rows}
        assert ("config_5_4_13", "100") not in combos

    def test_single_cell(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["sweep", "--config", C324, "--total-prbs", "200",
                     "--seeds", "1", "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["final_rp_fraction"]) >= 0.5

    def test_smt_mode_records_wall_time(self, tmp_path):
        out = tmp_path / "smt.csv"
        assert main(["sweep", "--config", C324, "--total-prbs", "200",
                     "--seeds", "1", "--mode", "smt",
                     "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert float(rows[0]["solver_wall_time"]) > 0

    def test_horizon_override_for_runtime_scaling(self, tmp_path):
        # the horizon-scaling experiment reports wall time per cell; the
        # trend is reported, not asserted
        out = tmp_path / "scale.csv"
        assert main(["sweep", "--config", C324, "--total-prbs", "200",
                     "--seeds", "1", "--mode", "smt", "--horizon", "10",
                     "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["solver_wall_time"]) > 0

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["sweep", "--config", C324, "--total-prbs", "200",
                "--seeds", "3"]
        assert main(args + ["--out", str(serial)]) == EXIT_OK
        assert main(args + ["--jobs", "3", "--out", str(parallel)]) == EXIT_OK
        assert read_rows(serial) == read_rows(parallel)

    def test_solver_failure_exits_nonzero_with_full_csv(self, tmp_path):
        out = tmp_path / "fail.csv"
        code = main(["sweep", "--config", C324, "--total-prbs", "200",
                     "--seeds", "2", "--mode", "smt",
                     "--solver-cmd", "definitely-not-a-solver-xyz",
                     "--out", str(out)])
        assert code == EXIT_SOLVER
        rows = read_rows(out)
        assert len(rows) == 2
        assert all(r["status"].startswith("error:") for r in rows)


class TestCompare:
    def test_gap_nonnegative(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", C324, "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 31          # j = 0..30
        assert all(float(r["gap"]) >= 0 for r in rows)

    def test_exact_fraction_zero_gap_below_first_boundary(self, tmp_path):
        # a horizon shorter than every window leaves the adaptive trace
        # constant, so pinning the baseline at the initial share ties it
        out = tmp_path / "cmp0.csv"
        config = json.loads(Path(C324).read_text())
        caps_premium = 6     # two premium slices with cap 3 each
        fraction = caps_premium / config["total_prbs"]
        assert main(["compare", "--config", C324, "--seed", "1",
                     "--horizon", "5", "--baseline-fraction", str(fraction),
                     "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 6
        assert all(float(r["gap"]) == 0 for r in rows)
