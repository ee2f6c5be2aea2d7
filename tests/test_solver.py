import sys

import pytest

from prbslice.encoder import encode, emit_smtlib
from prbslice.oracle import diff_traces, simulate
from prbslice.scenario import ScenarioTrace
from prbslice.solver import (
    DecodeError,
    SolverOutputError,
    SolverProcessError,
    SolverVerdict,
    extract_trace,
    resolve_solver_command,
    solve,
)

from helpers import single_slice_config


class TestSolve:
    def test_trivial_sat(self):
        verdict = solve("(assert (= 1 1)) (check-sat)")
        assert verdict.status == "sat"
        assert verdict.model == {}
        assert verdict.wall_time > 0

    def test_trivial_unsat(self):
        verdict = solve("(assert (= 1 2)) (check-sat)")
        assert verdict.status == "unsat"
        assert verdict.model is None

    def test_model_values_parsed(self):
        verdict = solve("""
            (declare-const x Int)
            (declare-const b Bool)
            (assert (= x (- 7)))
            (assert b)
            (check-sat) (get-model)
        """)
        assert verdict.model == {"x": -7, "b": True}

    def test_timeout_reported(self):
        verdict = solve("(check-sat)", timeout=0.2,
                        command=[sys.executable, "-c",
                                 "import time; time.sleep(5)"])
        assert verdict.status == "timeout"

    def test_process_failure_reported(self):
        with pytest.raises(SolverProcessError, match="no verdict"):
            solve("(check-sat)", command=[sys.executable, "-c",
                                          "import sys; sys.exit(1)"])

    def test_missing_binary_reported(self):
        with pytest.raises(SolverProcessError):
            solve("(check-sat)", command=["definitely-not-a-solver-xyz"])

    def test_solver_error_line_reported(self):
        with pytest.raises(SolverProcessError, match="error"):
            solve("(check-sat)",
                  command=[sys.executable, "-c",
                           "print('(error \"boom\")')"])

    def test_garbled_model_reported(self):
        with pytest.raises(SolverOutputError):
            solve("(check-sat)",
                  command=[sys.executable, "-c", "print('sat'); print('((((')"])

    def test_model_read_after_the_verdict_line(self):
        banner = "print('; banner: sat) ready')"
        verdict = solve("(check-sat)", command=[
            sys.executable, "-c",
            f"{banner}; print('sat'); print('((define-fun x () Int 3))')"])
        assert verdict.model == {"x": 3}

    def test_script_file_template(self):
        verdict = solve(
            "(assert (= 1 1)) (check-sat)",
            command=[sys.executable, "-m", "prbslice.smtlib_solver",
                     "{script}"])
        assert verdict.status == "sat"

    def test_default_launch_needs_no_pythonpath(self, monkeypatch):
        monkeypatch.delenv("PYTHONPATH", raising=False)
        monkeypatch.delenv("PRBSLICE_SOLVER_CMD", raising=False)
        assert solve("(check-sat)").status == "sat"

    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv("PRBSLICE_SOLVER_CMD",
                           f"{sys.executable} -m prbslice.smtlib_solver")
        assert resolve_solver_command(None)[-2:] == ["-m",
                                                     "prbslice.smtlib_solver"]

    def test_verdict_invariant(self):
        with pytest.raises(ValueError):
            SolverVerdict(status="unsat", model={}, wall_time=0.1)
        with pytest.raises(ValueError):
            SolverVerdict(status="sat", model=None, wall_time=0.1)


class TestExtractTrace:
    def setup_method(self):
        self.config = single_slice_config(t_win=2, m=1, total_prbs=8,
                                          horizon=2)
        self.scenario = ScenarioTrace(seed=0, arrivals=((True, False),),
                                      departures=((False, False),))

    def test_round_trip_equals_oracle(self):
        script = emit_smtlib(encode(self.config, self.scenario))
        trace = extract_trace(solve(script), self.config, self.scenario)
        assert not diff_traces(simulate(self.config, self.scenario), trace)

    def test_refuses_non_sat(self):
        verdict = SolverVerdict(status="unsat", model=None, wall_time=0.0)
        with pytest.raises(DecodeError, match="unsat"):
            extract_trace(verdict, self.config, self.scenario)

    def test_missing_variable_named(self):
        script = emit_smtlib(encode(self.config, self.scenario))
        verdict = solve(script)
        broken = dict(verdict.model)
        del broken["sl_usr_1_2"]
        partial = SolverVerdict(status="sat", model=broken,
                                wall_time=verdict.wall_time)
        with pytest.raises(DecodeError, match="sl_usr_1_2"):
            extract_trace(partial, self.config, self.scenario)
