import os
import signal
import subprocess
import sys

import pytest

from prbslice import solver
from prbslice.encoder import encode, emit_smtlib
from prbslice.oracle import diff_traces, simulate
from prbslice.presets import preset_config, preset_scenario_spec
from prbslice.scenario import ScenarioTrace
from prbslice.solver import (
    DecodeError,
    SolverOutputError,
    SolverProcessError,
    SolverVerdict,
    default_solver_command,
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

    def test_z3_style_model_read(self):
        # a (model ...) wrapper, and an entry whose value is on its own line
        reply = ("sat\n(model \n  (define-fun x () Int\n    (- 3))\n"
                 "  (define-fun b () Bool\n    true)\n)\n")
        verdict = solve("(check-sat)", command=[
            sys.executable, "-c", f"print({reply!r}, end='')"])
        assert verdict.model == {"x": -3, "b": True}

    @pytest.mark.parametrize("value", ["foo", "2.5"])
    def test_value_not_bool_or_integer_reported(self, value):
        reply = f"sat\n((define-fun x () Int {value}))\n"
        with pytest.raises(SolverOutputError):
            solve("(check-sat)", command=[
                sys.executable, "-c", f"print({reply!r}, end='')"])

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


# the bundled solver launched for each script: not the default command
ONE_SHOT = [sys.executable, "-m", "prbslice.smtlib_solver"]


def declaring(x: int, b: bool) -> str:
    """A script declaring the same two symbols whatever the values."""
    return (f"(declare-const x Int)(declare-const b Bool)(assert (= x {x}))"
            f"(assert (= b {'true' if b else 'false'}))(check-sat)(get-model)")


def deep_horizon_script() -> str:
    config = preset_config("5-4-13", total_prbs=200, horizon=70)
    scenario = preset_scenario_spec("5-4-13").generate(config, 1)
    return emit_smtlib(encode(config, scenario))


class TestWarmSession:
    def test_reset_clears_declarations(self):
        # the same symbols again would be an error without the reset
        for x, b in ((4, False), (9, True), (4, False)):
            warm = solve(declaring(x, b))
            assert (warm.status, warm.model) == ("sat", {"x": x, "b": b})
            once = solve(declaring(x, b), command=ONE_SHOT)
            assert (once.status, once.model) == (warm.status, warm.model)

    def test_one_child_answers_every_solve(self):
        solve("(check-sat)")
        pid = solver._child.pid
        for x in range(3):
            assert solve(declaring(x, True)).model == {"x": x, "b": True}
            # another command runs on its own, beside the warm child
            assert solve("(check-sat)", command=ONE_SHOT).status == "sat"
        assert solver._child.pid == pid

    def test_timeout_kills_the_child_and_the_next_solve_relaunches(self):
        script = deep_horizon_script()
        solve("(check-sat)")
        proc = solver._child
        assert solve(script, timeout=0.01).status == "timeout"
        assert proc.returncode is not None     # killed and reaped
        assert solver._child is None
        assert solve(script).status == "sat"

    @pytest.mark.parametrize("script, raises", [
        ("(assert (< 1))(check-sat)", SolverProcessError),
        ("(check-sat)(exit)", None),
    ], ids=["error-exit-3", "exit-command"])
    def test_child_that_exits_is_replaced(self, script, raises):
        if raises:
            with pytest.raises(raises, match="< takes at least 2"):
                solve(script)
        else:
            assert solve(script).status == "sat"
        assert solver._child is None
        assert solve(declaring(5, True)).model == {"x": 5, "b": True}

    def test_child_killed_between_solves_is_replaced(self):
        solve("(check-sat)")
        proc = solver._child
        proc.kill()
        proc.wait()
        assert solve(declaring(6, True)).model == {"x": 6, "b": True}
        assert solver._child is not proc

    def test_no_child_outlives_its_parent(self):
        code = ("from prbslice import solver\n"
                "assert solver.solve('(check-sat)').status == 'sat'\n"
                "print(solver._child.pid)\n")
        proc = subprocess.run([sys.executable, "-c", code], timeout=60,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        with pytest.raises(ProcessLookupError):
            os.kill(int(proc.stdout), 0)

    def test_forked_process_starts_its_own_child(self):
        solve("(check-sat)")
        parent_child = solver._child.pid
        pid = os.fork()
        if pid == 0:                            # the forked process
            signal.alarm(60)                    # bounds the parent's wait
            ok = False
            try:
                ok = (solve(declaring(7, False)).model == {"x": 7, "b": False}
                      and solver._child.pid != parent_child)
                solver._close_child()
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert solve(declaring(8, True)).model == {"x": 8, "b": True}
        assert solver._child.pid == parent_child


@pytest.fixture
def sent(monkeypatch):
    """The text each solve sends the warm child, one entry per solve; the
    child is closed first, so the first solve launches one."""
    solver._close_child()
    texts = []
    exchange = solver._exchange

    def record(proc, parts, deadline):
        texts.append("".join(text[start:stop] for text, start, stop in parts))
        return exchange(proc, parts, deadline)

    monkeypatch.setattr(solver, "_exchange", record)
    return texts


def cell_script(name: str, seed: int) -> str:
    config = preset_config(name, total_prbs=200)
    return emit_smtlib(encode(config, preset_scenario_spec(name).generate(
        config, seed)))


def resets(sent: list[str]) -> list[bool]:
    return [text.startswith("(reset)\n") for text in sent]


class TestHeldLayout:
    def test_same_layout_sends_only_the_query(self, sent):
        for seed in (1, 2, 1):
            assert solve(cell_script("3-2-4", seed)).status == "sat"
        assert sent[0].startswith("(reset)\n(set-logic QF_LIA)\n")
        assert "\n(push 1)\n(check-sat-assuming (" in sent[0]
        for text in sent[1:]:
            assert text.startswith("(pop 1)(push 1)\n(check-sat-assuming (")
            assert "(reset)" not in text and "assert" not in text

    def test_new_layout_resets(self, sent):
        for name in ("3-2-4", "3-3-7", "3-2-4"):
            assert solve(cell_script(name, 1)).status == "sat"
        assert resets(sent) == [True, True, True]

    def test_timed_out_solve_resets(self, sent):
        script = deep_horizon_script()
        assert solve(script).status == "sat"
        assert solve(script, timeout=0.001).status == "timeout"
        assert solve(script).status == "sat"
        assert resets(sent) == [True, False, True]

    def test_child_that_exits_resets(self, sent):
        script = cell_script("3-2-4", 1)
        for text in (script, "(check-sat)\n(exit)\n", script):
            assert solve(text).status == "sat"
        assert resets(sent) == [True, True, True]

    def test_forked_process_resets(self, sent):
        script = cell_script("3-2-4", 1)
        solve(script)
        pid = os.fork()
        if pid == 0:                            # the forked process
            signal.alarm(60)                    # bounds the parent's wait
            ok = False
            try:
                ok = solve(script).status == "sat" and resets(sent)[-1]
                solver._close_child()
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        solve(script)                           # the parent's still holds it
        assert resets(sent) == [True, False]

    @pytest.mark.parametrize("script", [
        # the query pops the level the prefix pushed: held, a second run
        # would pop the (assert (not a)) away and answer sat
        "(declare-const a Bool)\n(push 1)\n(assert (not a))\n"
        "(check-sat-assuming (a))\n(pop 1)\n(check-sat-assuming (a))\n",
        # the prefix prints the verdict: held, a second run would print
        # only the query's sat
        "(declare-const a Bool)(assert a)(check-sat-assuming ((not a)))\n"
        "(check-sat)\n",
    ], ids=["query-pops", "prefix-prints"])
    def test_prefix_not_held_when_levels_move_or_it_prints(self, sent,
                                                           script):
        for _ in range(2):
            assert solve(script).status == "unsat"
            assert solve(script, command=ONE_SHOT).status == "unsat"
        assert resets(sent) == [True, True]

    @pytest.mark.parametrize("name", ["3-2-4", "5-4-13"])
    def test_held_answers_equal_one_shot_answers(self, sent, name):
        # a {script} template runs the bundled solver on a file, once
        one_shot = default_solver_command() + ["{script}"]
        for seed in range(1, 6):
            script = cell_script(name, seed)
            warm = solve(script)
            once = solve(script, command=one_shot)
            assert warm.status == once.status == "sat"
            assert warm.model == once.model
        assert resets(sent) == [True] + [False] * 4


class TestAtFork:
    def test_forked_process_forgets_the_child_and_the_lock(self):
        solve("(check-sat)")
        with solver._child_lock:                # as if a thread were solving
            pid = os.fork()
            if pid == 0:                        # the forked process
                signal.alarm(60)                # bounds the parent's wait
                ok = False
                try:
                    ok = (solver._child is None
                          and solve(declaring(3, True)).model
                          == {"x": 3, "b": True})
                    solver._close_child()
                finally:
                    os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


def recording(record, then: str) -> list[str]:
    """A one-shot fake solver that writes its pid and its arguments, one a
    line, to ``record`` and then runs ``then``."""
    return [sys.executable, "-c",
            "import os, sys, time\n"
            f"with open({str(record)!r}, 'w') as fh:\n"
            "    print(os.getpid(), *sys.argv[1:], sep='\\n', file=fh)\n"
            f"{then}\n"]


class TestOneShot:
    @pytest.mark.parametrize("then, timeout, status", [
        ("print('sat')", 60.0, "sat"),
        ("time.sleep(30)", 3.0, "timeout"),
    ], ids=["returns", "times-out"])
    def test_script_directory_is_removed(self, tmp_path, then, timeout,
                                         status):
        record = tmp_path / "record"
        verdict = solve("(check-sat)", timeout=timeout,
                        command=recording(record, then) + ["{script}"])
        assert verdict.status == status
        script = record.read_text().splitlines()[1]
        assert script.endswith(".smt2")
        assert not os.path.exists(os.path.dirname(script))

    def test_timeout_leaves_no_process(self, tmp_path):
        record = tmp_path / "record"
        verdict = solve("(check-sat)", timeout=3.0,
                        command=recording(record, "time.sleep(30)"))
        assert verdict.status == "timeout"
        with pytest.raises(ProcessLookupError):
            os.kill(int(record.read_text()), 0)


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
