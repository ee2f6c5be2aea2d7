import io
import subprocess
import sys

import pytest

from prbslice.smtlib_solver import (
    Interpreter,
    SmtError,
    parse,
    simplify,
    tokenize,
)


def run_script(text: str) -> str:
    out = io.StringIO()
    Interpreter(out).run(text)
    return out.getvalue()


class TestParsing:
    def test_tokenize_strips_comments(self):
        assert tokenize("(assert x) ; trailing\n; full line\n(check-sat)") == [
            "(", "assert", "x", ")", "(", "check-sat", ")"]

    def test_parse_nesting(self):
        forms = parse(tokenize("(assert (= (+ x 1) 2))"))
        assert forms == [["assert", ["=", ["+", "x", 1], 2]]]

    def test_unbalanced_rejected(self):
        with pytest.raises(SmtError):
            parse(tokenize("(assert (= 1 1)"))
        with pytest.raises(SmtError):
            parse(tokenize("(assert (= 1 1)))"))


class TestSimplify:
    def test_arithmetic_folding(self):
        assert simplify(["+", 1, 2, 3], {}) == 6
        assert simplify(["-", 10, 3, 2], {}) == 5
        assert simplify(["*", 2, "x", 3], {"x": 4}) == 24

    def test_euclidean_div_mod(self):
        assert simplify(["mod", 7, 3], {}) == 1
        assert simplify(["div", 7, 3], {}) == 2
        assert simplify(["mod", -7, 3], {}) == 2
        assert simplify(["div", -7, 3], {}) == -3

    def test_partial_evaluation_keeps_unknowns(self):
        t = simplify(["and", True, ["=", "x", 3]], {})
        assert t == ["=", "x", 3]

    def test_implication_contrapositive(self):
        assert simplify(["=>", "a", False], {}) == ["not", "a"]
        assert simplify(["=>", False, "a"], {}) is True

    def test_ite(self):
        assert simplify(["ite", True, 1, 2], {}) == 1
        assert simplify(["ite", "c", 1, 2], {"c": False}) == 2


class TestSolving:
    def test_trivial_sat(self):
        assert "sat" in run_script("(assert (= 1 1)) (check-sat)")

    def test_trivial_unsat(self):
        assert "unsat" in run_script("(assert (= 1 2)) (check-sat)")

    def test_chain_propagation(self):
        out = run_script("""
            (declare-const x Int)
            (declare-const y Int)
            (assert (= x 5))
            (assert (= y (+ x 3)))
            (check-sat) (get-model)
        """)
        assert out.splitlines()[0] == "sat"
        assert "(define-fun y () Int 8)" in out

    def test_implication_chain(self):
        out = run_script("""
            (declare-const a Bool)
            (declare-const b Bool)
            (declare-const n Int)
            (assert a)
            (assert (=> a b))
            (assert (=> b (= n 41)))
            (check-sat) (get-model)
        """)
        assert "(define-fun n () Int 41)" in out

    def test_boolean_split(self):
        out = run_script("""
            (declare-const a Bool)
            (declare-const b Bool)
            (assert (or a b))
            (assert (not a))
            (check-sat) (get-model)
        """)
        assert "(define-fun b () Bool true)" in out

    def test_conflicting_units_unsat(self):
        out = run_script("""
            (declare-const x Int)
            (assert (= x 1))
            (assert (= x 2))
            (check-sat)
        """)
        assert out.strip() == "unsat"

    def test_split_finds_unsat(self):
        out = run_script("""
            (declare-const a Bool)
            (declare-const b Bool)
            (assert (or a b))
            (assert (=> a false))
            (assert (=> b false))
            (check-sat)
        """)
        assert out.strip() == "unsat"

    def test_underdetermined_integers_unknown(self):
        out = run_script("""
            (declare-const x Int)
            (assert (> x 0))
            (check-sat)
        """)
        assert out.strip() == "unknown"

    def test_undecidable_ground_term_unknown(self):
        out = run_script("(declare-const x Int)(assert (= x 1))"
                         "(assert (ite x true false))(check-sat)")
        assert out.strip() == "unknown"

    def test_deep_split_chain_within_small_recursion_limit(self):
        # 300 nested splits, solved under a recursion limit of 100
        clauses = "".join(f"(declare-const a{i} Bool)(declare-const b{i} Bool)"
                          f"(assert (or a{i} b{i}))" for i in range(300))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from prbslice.smtlib_solver import main; "
             "sys.setrecursionlimit(100); sys.exit(main())"],
            input=clauses + "(check-sat)",
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "sat"

    def test_negative_value_formatting(self):
        out = run_script("""
            (declare-const x Int)
            (assert (= x (- 5)))
            (check-sat) (get-model)
        """)
        assert "(define-fun x () Int (- 5))" in out

    def test_unconstrained_defaults(self):
        out = run_script("""
            (declare-const x Int)
            (declare-const b Bool)
            (check-sat) (get-model)
        """)
        assert "(define-fun x () Int 0)" in out
        assert "(define-fun b () Bool false)" in out

    def test_distinct_and_xor(self):
        assert "unsat" in run_script("(assert (distinct 1 1)) (check-sat)")
        assert run_script(
            "(assert (xor true false)) (check-sat)").strip() == "sat"

    def test_model_without_check_errors(self):
        out = run_script("(get-model)")
        assert "error" in out

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(SmtError, match="declared twice"):
            run_script("(declare-const x Int) (declare-const x Int)")

    def test_declare_fun_zero_arity(self):
        out = run_script("""
            (declare-fun x () Int)
            (assert (= x 9))
            (check-sat) (get-model)
        """)
        assert "(define-fun x () Int 9)" in out

    def test_guarded_case_analysis(self):
        # exactly the shape the encoder emits: exhaustive guarded equalities
        out = run_script("""
            (declare-const top Bool)
            (declare-const resi Int)
            (declare-const shr Int)
            (assert (= resi 3))
            (assert (= top (<= resi 5)))
            (assert (=> top (= shr 10)))
            (assert (=> (not top) (= shr 5)))
            (check-sat) (get-model)
        """)
        assert "(define-fun top () Bool true)" in out
        assert "(define-fun shr () Int 10)" in out


class TestMainEntry:
    def test_stdin(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prbslice.smtlib_solver"],
            input="(assert (= 1 1)) (check-sat)",
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "sat"

    def test_module_launch_prints_no_warning(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prbslice.smtlib_solver"],
            input="(check-sat)\n", capture_output=True, text=True)
        assert proc.stdout.strip() == "sat"
        assert proc.stderr == ""

    def test_file_argument(self, tmp_path):
        path = tmp_path / "probe.smt2"
        path.write_text("(assert (= 1 2)) (check-sat)")
        proc = subprocess.run(
            [sys.executable, "-m", "prbslice.smtlib_solver", str(path)],
            capture_output=True, text=True)
        assert proc.stdout.strip() == "unsat"

    def test_unsupported_command_reports_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prbslice.smtlib_solver"],
            input="(push 1)",
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert "error" in proc.stdout
