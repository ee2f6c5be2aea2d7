import csv
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from prbslice.cli import (
    EXIT_DIFF,
    EXIT_OK,
    EXIT_PROPERTY,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    RunOutcome,
    main,
)
from prbslice.properties import InvariantResult, PropertyReport
from prbslice.scenario import ScenarioTrace
from prbslice.solver import solve

CONFIGS = Path(__file__).parent.parent / "src" / "prbslice" / "configs"
C324 = str(CONFIGS / "config_3_2_4.json")
C5310 = str(CONFIGS / "config_5_3_10.json")
C5413 = str(CONFIGS / "config_5_4_13.json")


# validates only if a config may have no slice; every mode would crash on it
EMPTY_CONFIG = (b'{"services": [], "slices": [], "partitions": {}, '
                b'"total_prbs": 10, "horizon": 3}')


def duplicate_slice_id_config() -> str:
    """``config_3_2_4.json`` with slice 2's id set to 1: it parses, but
    breaks a structural rule."""
    doc = json.loads(Path(C324).read_text())
    for sl in doc["slices"]:
        if sl["slice_id"] == 2:
            sl["slice_id"] = 1
    return json.dumps(doc)


def starved_config() -> str:
    """``config_3_2_4.json`` at 30 PRBs over 60 steps with a 1/50 residual
    floor: it validates, but with the sibling spec at seed 1 the generated
    events drive the residual share below zero at timestep 24."""
    doc = json.loads(Path(C324).read_text())
    doc.update(total_prbs=30, horizon=60, overuse_fraction="1/50")
    return json.dumps(doc)


def failing_check(trace, config):
    """A ``check_all`` that reports one forced violation."""
    return PropertyReport(results={"conservation": InvariantResult(
        passed=False, first_violation_timestep=1, details="forced")})


def spec_with(service: str, **params) -> str:
    """The 3-2-4 scenario spec with ``params`` set on one service; JSON's
    ``Infinity`` and ``NaN`` stand for the non-finite floats."""
    doc = json.loads(Path(C324).with_suffix(".scenario.json").read_text())
    doc["per_service"][service]["params"].update(params)
    return json.dumps(doc)


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
        for name in ("trace.csv", "metrics.json", "metrics.csv",
                     "properties.json", "properties.csv"):
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

    def test_zero_horizon_is_a_validation_error(self, tmp_path, capsys):
        code = main(["run", "--config", C324, "--seed", "1",
                     "--horizon", "0", "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: horizon must be >= 1\n")

    def test_seed_or_scenario_required(self, tmp_path):
        code = main(["run", "--config", C324, "--mode", "oracle",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION

    def test_artifacts_re_readable(self, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["run", "--config", C324, "--seed", "3",
                     "--horizon", "10", "--out", str(out)]) == EXIT_OK
        from prbslice.model import NetworkConfig
        from prbslice.oracle import simulate
        from prbslice.presets import preset_scenario_spec

        config = NetworkConfig.from_json((out / "config.json").read_text())
        assert config.horizon == 10
        scenario = preset_scenario_spec("3-2-4").generate(config, 3)
        assert ((out / "trace.csv").read_bytes()
                == simulate(config, scenario).to_csv().encode())
        json.loads((out / "metrics.json").read_text())
        assert read_rows(out / "metrics.csv")
        assert read_rows(out / "properties.csv")

    def test_blocked_entries_on_the_solver_path(self, tmp_path):
        # at 100 PRBs, 5-3-10 seed 1 drives the residual share below its
        # floor, so arrivals are blocked: the metrics of the decoded SMT
        # trace count them exactly as the simulator's do
        for mode in ("smt", "oracle"):
            assert main(["run", "--config", C5310, "--seed", "1",
                         "--total-prbs", "100", "--horizon", "30",
                         "--mode", mode, "--out", str(tmp_path / mode)]) \
                == EXIT_OK
        for name in ("metrics.json", "metrics.csv"):
            assert ((tmp_path / "smt" / name).read_bytes()
                    == (tmp_path / "oracle" / name).read_bytes()), name
        metrics = json.loads((tmp_path / "smt" / "metrics.json").read_text())
        assert metrics["blocked_entries"] == 14

    def test_property_failure_exit_code(self, tmp_path, monkeypatch):
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

    def test_undecodable_model_exit_code(self, tmp_path, capsys):
        # a solver that answers sat without a model
        out = tmp_path / "x"
        code = main(["run", "--config", C324, "--seed", "1", "--horizon",
                     "4", "--mode", "smt", "--solver-cmd", "echo sat",
                     "--out", str(out)])
        assert code == EXIT_SOLVER
        assert "solver failure: model is missing variable" in \
            capsys.readouterr().err
        assert artifacts(out) == {"model.smt2", "verdict.json"}

    @staticmethod
    def empty_departure_scenario(tmp_path):
        """3-2-4, seed 1, T=4, with slice 2 departing at j=1, where it is
        empty and, in the solver's trace, a user enters."""
        scenario_path = tmp_path / "bad.json"
        assert main(["gen-scenario", "--config", C324, "--seed", "1",
                     "--horizon", "4", "--out", str(scenario_path)]) == EXIT_OK
        doc = json.loads(scenario_path.read_text())
        doc["departures"][1][0] = True      # slice 2 is empty at j=1
        scenario_path.write_text(json.dumps(doc))
        return scenario_path

    def test_scenario_rejected_by_simulator_exit_code(self, tmp_path,
                                                      capsys):
        scenario_path = self.empty_departure_scenario(tmp_path)
        for command in ("run", "compare"):
            out = tmp_path / command
            code = main([command, "--config", C324, "--horizon", "4",
                         "--scenario", str(scenario_path),
                         "--out", str(out)])
            assert code == EXIT_VALIDATION, command
            err = capsys.readouterr().err
            assert err.startswith("validation error: timestep 1"), command
            assert "departure flagged on an empty slice" in err
        assert not (tmp_path / "compare").exists()

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the encoding "
                       "admits en = lv = 1 on an empty slice")
    def test_scenario_rejected_by_simulator_fails_in_smt_mode(self,
                                                             tmp_path):
        scenario_path = self.empty_departure_scenario(tmp_path)
        assert main(["run", "--config", C324, "--horizon", "4",
                     "--scenario", str(scenario_path), "--mode", "smt",
                     "--out", str(tmp_path / "smt")]) != EXIT_OK

    def test_negative_user_count_is_a_property_failure(self, tmp_path,
                                                       capsys):
        # no arrivals, slice 2 departs at j=1: the simulator rejects the
        # scenario, and the solver's trace holds usr = -1, which breaks
        # nonnegativity alone (the last row, so the first name printed)
        departures = [[0] * 4 for _ in range(4)]
        departures[1][0] = 1
        scenario_path = tmp_path / "empty_departure.json"
        scenario_path.write_text(json.dumps({
            "seed": 0, "arrivals": [[0] * 4] * 3, "departures": departures}))
        for mode, code, err in (
                ("smt", EXIT_PROPERTY, "property failure: nonnegativity"),
                ("oracle", EXIT_VALIDATION, "validation error: timestep 1"),
                ("differential", EXIT_VALIDATION,
                 "validation error: timestep 1")):
            assert main(["run", "--config", C324, "--horizon", "4",
                         "--scenario", str(scenario_path), "--mode", mode,
                         "--out", str(tmp_path / mode)]) == code, mode
            assert capsys.readouterr().err.startswith(err), mode
        rows = {r["invariant"]: r
                for r in read_rows(tmp_path / "smt" / "properties.csv")}
        assert rows["nonnegativity"] == {
            "invariant": "nonnegativity", "passed": "0",
            "first_violation_timestep": "1", "details": "slice 2: usr -1 < 0"}

    def test_pinned_scenario_round_trip(self, tmp_path):
        scenario_path = tmp_path / "pinned.json"
        assert main(["gen-scenario", "--config", C324, "--seed", "9",
                     "--out", str(scenario_path)]) == EXIT_OK
        ScenarioTrace.from_json(scenario_path.read_text())
        out = tmp_path / "run"
        assert main(["run", "--config", C324,
                     "--scenario", str(scenario_path),
                     "--out", str(out)]) == EXIT_OK


class TestOptions:
    @pytest.mark.parametrize("command, option, value", [
        ("compare", "--solver-cmd", "bogus"),
        ("compare", "--timeout", "1"),
        ("gen-scenario", "--scenario", "pinned.json"),
        ("gen-scenario", "--solver-cmd", "bogus"),
        ("gen-scenario", "--timeout", "1"),
    ])
    def test_unread_option_rejected(self, tmp_path, capsys, command, option,
                                    value):
        # each subcommand takes only the options it reads
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", C324, "--seed", "1",
                  "--out", str(tmp_path / "out"), option, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMissingInput:
    @pytest.mark.parametrize("command, option", [
        ("run", "--config"),
        ("run", "--scenario"),
        ("compare", "--config"),
        ("gen-scenario", "--scenario-spec"),
        ("sweep", "--config"),
    ])
    def test_missing_file_is_a_validation_error(self, tmp_path, capsys,
                                                command, option):
        out = tmp_path / "out"
        opts = {"--config": C324, "--out": str(out)}
        if command == "sweep":
            opts.update({"--total-prbs": "200", "--seeds": "1"})
        else:
            opts["--seed"] = "1"
        opts[option] = str(tmp_path / "missing.json")
        argv = [command] + [word for pair in opts.items() for word in pair]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert "missing.json" in err
        assert not out.exists()


class TestMalformedInput:
    # every input is checked before any output is written; BAD names a
    # file holding `text`, with a copy of the 3-2-4 spec as its sibling
    @pytest.mark.parametrize("command, text, options", [
        pytest.param("validate-config", b"\xff\xfe{", ["--config", "BAD"],
                     id="non-utf8-config"),
        pytest.param("validate-config",
                     b'{"services": [], "slices": [], "partitions": []}',
                     ["--config", "BAD"], id="partitions-not-a-mapping"),
        pytest.param("validate-config", EMPTY_CONFIG, ["--config", "BAD"],
                     id="validate-no-slice"),
        pytest.param("run", EMPTY_CONFIG, ["--seed", "1", "--config", "BAD"],
                     id="run-no-slice"),
        pytest.param("run", b'{"arrivals": []}', ["--scenario", "BAD"],
                     id="run-scenario-without-seed"),
        pytest.param("run", b'{"departure_rate": 0.1}',
                     ["--seed", "1", "--scenario-spec", "BAD"],
                     id="run-spec-without-per-service"),
        pytest.param("gen-scenario", b'{"departure_rate": 0.1}',
                     ["--seed", "1", "--scenario-spec", "BAD"],
                     id="gen-spec-without-per-service"),
        pytest.param("compare", b"[1]", ["--scenario", "BAD"],
                     id="compare-scenario-not-an-object"),
        pytest.param("run", spec_with("1", sigma=math.inf).encode(),
                     ["--seed", "1", "--mode", "differential",
                      "--scenario-spec", "BAD"],
                     id="run-spec-sigma-infinity"),
        pytest.param("run", spec_with("2", mu=math.nan).encode(),
                     ["--seed", "1", "--mode", "differential",
                      "--scenario-spec", "BAD"],
                     id="run-spec-mu-nan"),
        pytest.param("run", starved_config().encode(),
                     ["--seed", "1", "--config", "BAD"],
                     id="run-generated-scenario-rejected"),
        pytest.param("gen-scenario", starved_config().encode(),
                     ["--seed", "1", "--config", "BAD"],
                     id="gen-generated-scenario-rejected"),
        pytest.param("compare", b"", ["--seed", "1",
                                      "--baseline-fraction", "nan"],
                     id="compare-nan-fraction"),
        pytest.param("compare", b"", ["--seed", "1",
                                      "--baseline-fraction", "inf"],
                     id="compare-inf-fraction"),
    ])
    def test_is_a_validation_error(self, tmp_path, capsys, command, text,
                                   options):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        sibling = Path(C324).with_suffix(".scenario.json")
        (tmp_path / "bad.scenario.json").write_text(sibling.read_text())
        argv = [command] + [str(bad) if o == "BAD" else o for o in options]
        if "--config" not in options:
            argv += ["--config", C324]
        out = tmp_path / "out"
        if command != "validate-config":
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        prefix = "invalid: " if command == "validate-config" \
            else "validation error: "
        assert capsys.readouterr().err.startswith(prefix)
        assert not out.exists()

    def test_gen_scenario_requires_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-scenario", "--config", C324,
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_VALIDATION
        assert "the following arguments are required: --seed" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSweep:
    @pytest.mark.parametrize("text", [
        '{"bad": 1', '{"bad": 1}',
        pytest.param(duplicate_slice_id_config(), id="duplicate-slice-id")])
    def test_unparsable_config_is_a_validation_error(self, tmp_path, capsys,
                                                     text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", C324, "--config", str(bad),
                     "--total-prbs", "200", "--seeds", "1", "--mode",
                     "oracle", "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert "skipping" not in err
        assert not out.exists()

    def test_malformed_sibling_spec_is_a_validation_error(self, tmp_path,
                                                          capsys):
        config = tmp_path / "config_3_2_4.json"
        config.write_text(Path(C324).read_text())
        (tmp_path / "config_3_2_4.scenario.json").write_text(
            '{"departure_rate": 0.1}')
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", C324, "--config", str(config),
                     "--total-prbs", "200", "--seeds", "1",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            "validation error: malformed scenario spec document")
        assert not out.exists()

    def test_spec_missing_a_service_is_a_validation_error(self, tmp_path,
                                                          capsys):
        config = tmp_path / "config_3_2_4.json"
        config.write_text(Path(C324).read_text())
        spec = json.loads(Path(C324).with_suffix(".scenario.json").read_text())
        spec["per_service"] = {"1": spec["per_service"]["1"]}
        (tmp_path / "config_3_2_4.scenario.json").write_text(json.dumps(spec))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(config),
                     "--total-prbs", "200", "--seeds", "2",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: no distribution spec for services [2, 3]\n")
        assert not out.exists()

    def test_non_finite_spec_parameter_is_a_validation_error(self, tmp_path,
                                                             capsys):
        config = tmp_path / "config_3_2_4.json"
        config.write_text(Path(C324).read_text())
        (tmp_path / "config_3_2_4.scenario.json").write_text(
            spec_with("3", rate=math.nan))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(config),
                     "--total-prbs", "200", "--seeds", "2",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == ("validation error: poisson rate "
                                           "must be a finite number, got nan\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, option, value", [
        ("sweep", "--seeds", "0"),
        ("sweep", "--seeds", "-2"),
        ("sweep", "--jobs", "0"),
        ("sweep", "--timeout", "0"),
        ("sweep", "--timeout", "-1"),
        ("sweep", "--timeout", "nan"),
        ("sweep", "--timeout", "inf"),
        ("run", "--timeout", "-1"),
    ])
    def test_non_positive_count_or_timeout_is_a_usage_error(
            self, tmp_path, capsys, command, option, value):
        out = tmp_path / "out"
        argv = [command, "--config", C324, "--mode", "differential",
                "--out", str(out), option, value]
        argv += (["--total-prbs", "200"] if command == "sweep"
                 else ["--seed", "1"])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert (f"argument {option}: must be a finite number above 0, "
                f"got {value!r}") in capsys.readouterr().err
        assert not out.exists()

    def test_each_layout_parsed_once(self, tmp_path, monkeypatch):
        # 2 configs x 2 budgets x 2 seeds: each config document and its
        # sibling spec are parsed once, not once per cell
        from collections import Counter

        from prbslice.model import NetworkConfig
        from prbslice.scenario import ScenarioSpec

        parsed = Counter()
        for cls in (NetworkConfig, ScenarioSpec):
            def counting(text, real=cls.from_json):
                parsed[text] += 1
                return real(text)
            monkeypatch.setattr(cls, "from_json", counting)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", C324, "--config", C5413,
                     "--total-prbs", "200", "--total-prbs", "300",
                     "--seeds", "2", "--jobs", "1",
                     "--out", str(out)]) == EXIT_OK
        assert len(read_rows(out)) == 8
        documents = {Path(p).read_text() for c in (C324, C5413)
                     for p in (c, Path(c).with_suffix(".scenario.json"))}
        assert parsed == Counter(documents)

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

    def test_every_pair_over_budget_is_a_validation_error(self, tmp_path,
                                                          capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", C5413, "--total-prbs", "100",
                     "--seeds", "1", "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("skipping config_5_4_13 at 100 PRBs: ")
        assert err[1].startswith("validation error: ")
        assert not out.exists()

    def test_pool_has_no_more_workers_than_cells(self, tmp_path, monkeypatch):
        workers = []

        class Serial:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr("prbslice.cli.ProcessPoolExecutor", Serial)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", C324, "--total-prbs", "200",
                     "--seeds", "2", "--jobs", "3",
                     "--out", str(out)]) == EXIT_OK
        assert workers == [2]
        assert len(read_rows(out)) == 2

    def test_single_cell(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["sweep", "--config", C324, "--total-prbs", "200",
                     "--seeds", "1", "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["final_rp_fraction"]) >= 0.5

    def test_smt_mode_is_a_usage_error(self, tmp_path, capsys):
        # a sweep cell is a generated scenario, which the simulator always
        # accepts, so `differential` checks all that `smt` would
        out = tmp_path / "smt.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", C324, "--total-prbs", "200",
                  "--seeds", "1", "--mode", "smt", "--out", str(out)])
        assert exc.value.code == EXIT_VALIDATION
        assert "invalid choice: 'smt'" in capsys.readouterr().err
        assert not out.exists()

    def test_differential_mode_records_wall_time(self, tmp_path):
        out = tmp_path / "differential.csv"
        assert main(["sweep", "--config", C324, "--total-prbs", "200",
                     "--seeds", "1", "--mode", "differential",
                     "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert float(rows[0]["solver_wall_time"]) > 0

    def test_horizon_override_for_runtime_scaling(self, tmp_path):
        # the horizon-scaling experiment reports wall time per cell; the
        # trend is reported, not asserted
        out = tmp_path / "scale.csv"
        assert main(["sweep", "--config", C324, "--total-prbs", "200",
                     "--seeds", "1", "--mode", "differential",
                     "--horizon", "10",
                     "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["solver_wall_time"]) > 0

    def test_zero_horizon_is_a_validation_error(self, tmp_path, capsys):
        out = tmp_path / "zero.csv"
        assert main(["sweep", "--config", C324, "--total-prbs", "200",
                     "--seeds", "1", "--horizon", "0",
                     "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: horizon must be >= 1\n")
        assert not out.exists()

    def test_parallel_jobs_match_serial(self, tmp_path):
        # the pool forks while this process has a warm solver child, which
        # each worker must leave alone and replace with its own
        solve("(check-sat)")
        for mode in ("oracle", "differential"):
            serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
            args = ["sweep", "--config", C324, "--total-prbs", "200",
                    "--seeds", "3", "--mode", mode]
            assert main(args + ["--out", str(serial)]) == EXIT_OK
            assert main(args + ["--jobs", "3",
                                "--out", str(parallel)]) == EXIT_OK
            rows = [[{**row, "solver_wall_time": ""} for row in read_rows(p)]
                    for p in (serial, parallel)]
            assert rows[0] == rows[1]

    def test_solver_failure_exits_nonzero_with_full_csv(self, tmp_path):
        out = tmp_path / "fail.csv"
        code = main(["sweep", "--config", C324, "--total-prbs", "200",
                     "--seeds", "2", "--mode", "differential",
                     "--solver-cmd", "definitely-not-a-solver-xyz",
                     "--out", str(out)])
        assert code == EXIT_SOLVER
        rows = read_rows(out)
        assert len(rows) == 2
        assert all(r["status"].startswith("error:") for r in rows)

    def test_rejected_scenarios_exit_nonzero_with_full_csv(self, tmp_path):
        # the generator's replay rejects both cells; each keeps its row
        config = tmp_path / "config_3_2_4.json"
        config.write_text(starved_config())
        sibling = Path(C324).with_suffix(".scenario.json")
        (tmp_path / sibling.name).write_text(sibling.read_text())
        out = tmp_path / "starved.csv"
        assert main(["sweep", "--config", str(config), "--total-prbs", "30",
                     "--seeds", "2", "--out", str(out)]) == EXIT_SOLVER
        assert [r["status"] for r in read_rows(out)] == [
            "error: timestep 24: residual partition share went negative "
            "(-1); pt_shr=[18, 13], prev rp_shr=2",
            "error: timestep 30: residual partition share went negative "
            "(-3); pt_shr=[18, 15], prev rp_shr=2",
        ]

    def test_property_failure_exits_nonzero_with_full_csv(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr("prbslice.cli.check_all", failing_check)
        out = tmp_path / "property.csv"
        assert main(["sweep", "--config", C324, "--total-prbs", "200",
                     "--seeds", "2", "--out", str(out)]) == EXIT_PROPERTY
        assert [r["status"] for r in read_rows(out)] == [
            "property:conservation"] * 2

    def test_diff_mismatch_exits_nonzero_with_full_csv(self, tmp_path,
                                                       monkeypatch):
        from helpers import mutate_slice
        import prbslice.cli as cli_mod

        real_simulate = cli_mod.simulate
        monkeypatch.setattr("prbslice.cli.simulate", lambda c, s: mutate_slice(
            real_simulate(c, s), j=1, slice_id=1, usr=99))
        out = tmp_path / "diff.csv"
        assert main(["sweep", "--config", C324, "--total-prbs", "200",
                     "--seeds", "2", "--horizon", "5", "--mode",
                     "differential", "--out", str(out)]) == EXIT_DIFF
        rows = read_rows(out)
        assert len(rows) == 2
        for row in rows:
            assert row["status"].startswith("diff:1 difference(s), first ")
            assert float(row["solver_wall_time"]) > 0
            metrics = {k: v for k, v in row.items()
                       if k not in ("config", "total_prbs", "seed", "status",
                                    "solver_wall_time")}
            assert set(metrics.values()) == {""}

    @pytest.mark.parametrize("statuses, code", [
        (("solver", "diff"), EXIT_SOLVER),
        (("diff", "verdict"), EXIT_SOLVER),
        (("property", "diff"), EXIT_DIFF),
    ], ids=["error-over-diff", "solver-over-diff", "diff-over-property"])
    def test_exit_follows_stage_order(self, tmp_path, monkeypatch, statuses,
                                      code):
        # seed s gets statuses[s - 1]; the earliest failing stage sets the
        # exit code whatever the row order
        monkeypatch.setattr(
            "prbslice.cli.run_pipeline",
            lambda config, scenario, *rest: RunOutcome().stop(
                statuses[scenario.seed - 1], "x"))
        out = tmp_path / "mixed.csv"
        assert main(["sweep", "--config", C324, "--total-prbs", "200",
                     "--seeds", "2", "--horizon", "3", "--mode",
                     "differential", "--out", str(out)]) == code
        assert len(read_rows(out)) == 2


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


def sha256(path):
    data = path.read_bytes()
    if path.name == "verdict.json":
        data = re.sub(rb'"wall_time": [^\n}]*', b'"wall_time": 0', data)
    return hashlib.sha256(data).hexdigest()


# SHA-256 of every artifact of `run` on 3-2-4, seed 1, horizon 10 (each mode
# writes the same bytes for the files it shares), and of an oracle sweep CSV
# over 3-2-4 and 5-4-13 x 100/200 PRBs x seeds 1..2; verdict.json's
# wall_time is normalised to 0.
ARTIFACT_SHA256 = {
    "trace.csv": "0a8ee14c062e85d2452245e0088ed359"
                 "338736e66e9fb56e2ed83f37d03ca0eb",
    "model.smt2": "46c7d1baf56c09e7ba0dc5e8105ccb74"
                  "25bd5c882789f20cb413c09787bb97df",
    "verdict.json": "9056fd9b7c79762c42bc0ec666bb4e12"
                    "173e6fc866668b534fb2c4380cab4779",
    "smt_trace.csv": "0a8ee14c062e85d2452245e0088ed359"
                     "338736e66e9fb56e2ed83f37d03ca0eb",
    "diff.txt": "e3b0c44298fc1c149afbf4c8996fb924"
                "27ae41e4649b934ca495991b7852b855",
    "properties.json": "45620aff58567b5ba9d9fd532eed238d"
                       "9d12740392be2b1738aa2e1949accbb1",
    "properties.csv": "74b49dea9ee430b686f29f8bfb939a40"
                      "5e684d38beac6c75cc606e39fa01c8af",
    "metrics.json": "a5e7eef4207a2f533bf131786b8e4a9f"
                    "f615c295a37355a67d04668c01a8ea7a",
    "metrics.csv": "5b747f50e4f57b19b38f3e361c44dd6e"
                   "983c24d51ff3495e1fba74b6628005be",
}
REPORTS = {"properties.json", "properties.csv", "metrics.json", "metrics.csv"}
MODE_ARTIFACTS = {
    "oracle": {"trace.csv"} | REPORTS,
    "smt": {"model.smt2", "verdict.json", "smt_trace.csv"} | REPORTS,
    "differential": set(ARTIFACT_SHA256),
}
SWEEP_SHA256 = ("ac260ac09796c80af92a741749b57d8c"
                "9df76c89eabd7253b5c9d3a515e8d29b")
# SHA-256 of the `compare` CSV on 3-2-4 seed 1 at the run's peak, and on
# 5-4-13 seed 2 with a baseline fraction of 0.5
COMPARE_SHA256 = {
    (C324, "1", None): "59a687d2aee934734ba18fa1a6064c71"
                       "fa5e534540254af0a7e9bac668fc1cc8",
    (C5413, "2", "0.5"): "a9156fd4d825af78d5600fda3c425346"
                         "4c3b01d49b2bddc27a6576aa18149012",
}


def artifacts(out):
    """Every file in a run directory except config.json."""
    return {p.name for p in out.iterdir()} - {"config.json"}


class TestArtifactPins:
    @pytest.mark.parametrize("mode", sorted(MODE_ARTIFACTS))
    def test_run_artifacts_pinned(self, tmp_path, mode):
        out = tmp_path / mode
        assert main(["run", "--config", C324, "--seed", "1", "--horizon",
                     "10", "--mode", mode, "--out", str(out)]) == EXIT_OK
        assert artifacts(out) == MODE_ARTIFACTS[mode]
        for name in MODE_ARTIFACTS[mode]:
            assert sha256(out / name) == ARTIFACT_SHA256[name], name

    def test_reversed_config_artifacts_pinned(self, tmp_path):
        # services, slices, partitions and partition members listed in
        # reverse id order: every artifact, and the config.json written,
        # match the in-order run
        doc = json.loads(Path(C324).read_text())
        doc["services"].reverse()
        doc["slices"].reverse()
        doc["partitions"] = {k: v[::-1]
                             for k, v in reversed(doc["partitions"].items())}
        config = tmp_path / "config_3_2_4.json"
        config.write_text(json.dumps(doc))
        sibling = Path(C324).with_suffix(".scenario.json")
        (tmp_path / sibling.name).write_text(sibling.read_text())
        runs = {}
        for name, path in (("reversed", config), ("in-order", C324)):
            runs[name] = tmp_path / name
            assert main(["run", "--config", str(path), "--seed", "1",
                         "--horizon", "10", "--mode", "differential",
                         "--out", str(runs[name])]) == EXIT_OK
        for name in MODE_ARTIFACTS["differential"]:
            assert sha256(runs["reversed"] / name) == ARTIFACT_SHA256[name], \
                name
        assert ((runs["reversed"] / "config.json").read_text()
                == (runs["in-order"] / "config.json").read_text())

    def test_oracle_sweep_csv_pinned(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", C324, "--config", C5413,
                     "--total-prbs", "100", "--total-prbs", "200",
                     "--seeds", "2", "--out", str(out)]) == EXIT_OK
        assert sha256(out) == SWEEP_SHA256

    @pytest.mark.parametrize("config, seed, fraction", list(COMPARE_SHA256))
    def test_compare_csv_pinned(self, tmp_path, config, seed, fraction):
        out = tmp_path / "cmp.csv"
        extra = [] if fraction is None else ["--baseline-fraction", fraction]
        assert main(["compare", "--config", config, "--seed", seed,
                     "--out", str(out)] + extra) == EXIT_OK
        assert sha256(out) == COMPARE_SHA256[config, seed, fraction]

    @pytest.mark.parametrize("mode, solver, code, written", [
        ("smt", "definitely-not-a-solver-xyz", EXIT_SOLVER, {"model.smt2"}),
        ("differential", "definitely-not-a-solver-xyz", EXIT_SOLVER,
         {"trace.csv", "model.smt2"}),
        ("smt", "echo unsat", EXIT_SOLVER, {"model.smt2", "verdict.json"}),
        ("differential", "echo unknown", EXIT_SOLVER,
         {"trace.csv", "model.smt2", "verdict.json"}),
    ])
    def test_solver_failure_artifacts(self, tmp_path, mode, solver, code,
                                      written):
        out = tmp_path / "x"
        assert main(["run", "--config", C324, "--seed", "1", "--horizon",
                     "5", "--mode", mode, "--solver-cmd", solver,
                     "--out", str(out)]) == code
        assert artifacts(out) == written

    @pytest.mark.parametrize("mode", sorted(MODE_ARTIFACTS))
    def test_property_failure_artifacts(self, tmp_path, monkeypatch, mode):
        from prbslice.properties import InvariantResult, PropertyReport

        monkeypatch.setattr("prbslice.cli.check_all", lambda t, c: (
            PropertyReport(results={"conservation": InvariantResult(
                passed=False, first_violation_timestep=1, details="x")})))
        out = tmp_path / "x"
        assert main(["run", "--config", C324, "--seed", "1", "--horizon",
                     "5", "--mode", mode, "--out", str(out)]) == EXIT_PROPERTY
        assert artifacts(out) == MODE_ARTIFACTS[mode]

    def test_diff_mismatch_artifacts(self, tmp_path, monkeypatch):
        from helpers import mutate_slice
        import prbslice.cli as cli_mod

        real_simulate = cli_mod.simulate
        monkeypatch.setattr("prbslice.cli.simulate", lambda c, s: mutate_slice(
            real_simulate(c, s), j=1, slice_id=1, usr=99))
        out = tmp_path / "x"
        assert main(["run", "--config", C324, "--seed", "1", "--horizon",
                     "5", "--mode", "differential",
                     "--out", str(out)]) == EXIT_DIFF
        assert artifacts(out) == MODE_ARTIFACTS["differential"] - REPORTS
