import hashlib
import io
import itertools
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from prbslice.encoder import emit_smtlib, encode
from prbslice.presets import PRESET_NAMES, preset_config, preset_scenario_spec
from prbslice.solver import default_solver_command
from prbslice.smtlib_solver import (
    Interpreter,
    SmtError,
    evaluate,
    parse,
    simplify,
    tokenize,
)

BOOLS = ("p0", "p1", "p2", "p3", "p4")
INTS = ("n0", "n1")
# every line boundary of str.splitlines
LINE_ENDS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
             "\x85", "\u2028", "\u2029")


def run_script(text: str) -> str:
    out = io.StringIO()
    Interpreter(out).run(text)
    return out.getvalue()


def line_tokenize(text: str) -> list:
    """The line-by-line tokenizer that ``tokenize`` must agree with."""
    lines = []
    for line in text.splitlines():
        cut = line.find(";")
        lines.append(line if cut < 0 else line[:cut])
    return re.findall(r"[()]|[^()\s]+", "\n".join(lines))


class TestParsing:
    def test_tokenize_strips_comments(self):
        assert tokenize("(assert x) ; trailing\n; full line\n(check-sat)") == [
            "(", "assert", "x", ")", "(", "check-sat", ")"]
        # a comment ends at \r, \r\n and \x0b as at \n, and at the end of
        # the text, exactly as in the line-by-line tokenizer
        for end in ("\r", "\r\n", "\x0b"):
            text = f"(assert x) ; trailing{end}; full line{end}(check-sat)"
            assert tokenize(text) == [
                "(", "assert", "x", ")", "(", "check-sat", ")"], repr(end)
            assert tokenize(text) == line_tokenize(text)
        for text in ("(assert x) ; to the end (check-sat)", "(echo a);"):
            assert tokenize(text) == line_tokenize(text)
        assert tokenize("(assert x) ; to the end (check-sat)") == [
            "(", "assert", "x", ")"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        ("(", ")", ";", " ", "\t", "a", "-1", "7", "x;y") + LINE_ENDS),
        max_size=30).map("".join))
    def test_tokenize_matches_line_tokenizer(self, text):
        assert tokenize(text) == line_tokenize(text)

    def test_parse_interns_atoms(self):
        first, second = parse(tokenize("(assert (= x 12)) (assert (= x 12))"))
        assert first[1][1] is second[1][1]
        assert first[1][2] == 12 and type(first[1][2]) is int

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


def ground_terms():
    """Terms over the whole operator set, of any sort mix (so ill-sorted
    ones too); divisors are nonzero literals."""
    leaves = st.one_of(st.sampled_from(BOOLS + INTS), st.booleans(),
                       st.integers(-3, 3))

    def nodes(sub):
        return st.one_of(
            st.tuples(st.sampled_from(("and", "or", "=>", "=", "xor",
                                       "distinct", "+", "-", "*")),
                      st.lists(sub, min_size=1, max_size=3)).map(
                lambda p: [p[0], *p[1]]),
            st.tuples(st.sampled_from(("<", "<=", ">", ">=")),
                      st.lists(sub, min_size=2, max_size=3)).map(
                lambda p: [p[0], *p[1]]),
            st.tuples(st.sampled_from(("div", "mod")), sub,
                      st.sampled_from((-3, -2, -1, 1, 2, 3))),
            st.tuples(st.sampled_from(("not", "abs")), sub),
            st.tuples(st.just("ite"), sub, sub, sub),
        ).map(list)

    return st.recursive(leaves, nodes, max_leaves=12)


ASSIGNMENTS = st.tuples(
    st.lists(st.booleans(), min_size=len(BOOLS), max_size=len(BOOLS)),
    st.lists(st.integers(-3, 3), min_size=len(INTS), max_size=len(INTS)),
).map(lambda p: dict(zip(BOOLS + INTS, p[0] + p[1])))
P0_TRUE = dict.fromkeys(BOOLS, False) | {"p0": True, "n0": 2, "n1": 2}


class TestEvaluate:
    @settings(max_examples=500, deadline=None)
    @given(ground_terms(), ASSIGNMENTS)
    @example(["=>", 3, True], P0_TRUE)
    @example(["not", 5], P0_TRUE)
    @example(["not", ["not", 5]], P0_TRUE)
    @example(["=", ["not", ["not", 5]], 5], P0_TRUE)
    @example(["=>", 5, False, False], P0_TRUE)
    @example(["=>", "p0", "p0", "p1"], P0_TRUE)
    @example(["=", "n0", "n1", 2], P0_TRUE)
    @example(["not", ["=>", "p0", "p0", "p1"]], P0_TRUE)
    def test_true_exactly_where_simplify_is_true(self, term, env):
        assert (evaluate(term, env) is True) == (simplify(term, env) is True)
        # the same value, residual forms of ill-sorted terms included
        assert repr(evaluate(term, env)) == repr(simplify(term, env))

    def test_deciding_argument_ends_evaluation(self):
        # simplify evaluates every argument, so a zero divisor under a
        # false guard raises there; evaluate stops at the guard
        dead = ["=>", False, ["=", ["div", 1, 0], 1]]
        with pytest.raises(SmtError, match="division by zero"):
            simplify(dead, {})
        assert evaluate(dead, {}) is True
        with pytest.raises(SmtError, match="division by zero"):
            evaluate(["=>", True, ["=", ["div", 1, 0], 1]], {})


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

    @pytest.mark.parametrize("script, verdict", [
        ("(assert (< 1 2 3))", "sat"),
        ("(assert (< 1 3 2))", "unsat"),
        ("(assert (>= 3 3 1))", "sat"),
        ("(declare-const x Int)(assert (= x 2))(assert (< 1 x 3))", "sat"),
        ("(declare-const x Int)(assert (= x 3))(assert (< 1 x 3))", "unsat"),
    ])
    def test_chained_comparison(self, script, verdict):
        # each adjacent pair must hold
        assert run_script(script + "(check-sat)").strip() == verdict

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


def statistics(text: str) -> dict:
    form = parse(tokenize(run_script(text + "(get-info :all-statistics)")))[-1]
    return dict(zip(form[::2], form[1::2]))


def independent_clauses(n: int) -> str:
    return "".join(f"(declare-const a{i} Bool)(declare-const b{i} Bool)"
                   f"(assert (or a{i} b{i}))" for i in range(n)) + "(check-sat)"


def formulas(depth):
    leaf = st.sampled_from(BOOLS + ("true", "false"))
    if depth == 0:
        return leaf
    sub = formulas(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(("and", "or", "=>", "xor", "=")),
                  st.lists(sub, min_size=2, max_size=3)).map(
            lambda p: f"({p[0]} {' '.join(p[1])})"),
        sub.map(lambda a: f"(not {a})"),
        st.tuples(sub, sub, sub).map(lambda p: f"(ite {' '.join(p)})"),
    )


class TestStatistics:
    def test_all_statistics_reports_counters(self):
        stats = statistics("(declare-const a Bool)(declare-const b Bool)"
                           "(declare-const c Bool)(assert (or a b))"
                           "(assert (=> a c))(assert (=> a (not c)))"
                           "(check-sat)")
        # 3 initial simplifications stall; a = true wakes all three and
        # the third clashes with c; a = false wakes them again
        assert stats == {":propagations": 9, ":splits": 1, ":conflicts": 1}

    def test_conjuncts_propagate_before_later_terms(self):
        # the conjuncts of assertion 0 run before assertion 1, so y is set
        # when (= z (+ y 1)) is first simplified: 0, 2, 3, 1 and no wake-up
        stats = statistics("(declare-const x Int)(declare-const y Int)"
                           "(declare-const z Int)"
                           "(assert (and (= x 1) (= y (+ x 1))))"
                           "(assert (= z (+ y 1)))(check-sat)")
        assert stats == {":propagations": 4, ":splits": 0, ":conflicts": 0}

    def test_deep_horizon_propagations_pinned(self):
        config = preset_config("5-4-13", total_prbs=200, horizon=70)
        scenario = preset_scenario_spec("5-4-13").generate(config, 1)
        stats = statistics(emit_smtlib(encode(config, scenario)))
        assert stats == {":propagations": 14700, ":splits": 0,
                         ":conflicts": 0}

    def test_statistics_zero_before_check_sat(self):
        assert statistics("") == {
            ":propagations": 0, ":splits": 0, ":conflicts": 0}

    def test_other_info_unsupported(self):
        assert run_script("(get-info :reason-unknown)").strip() == "unsupported"

    def test_split_work_grows_linearly(self):
        # each split only wakes the clause that watches the decision, so
        # twice the clauses cost twice the propagations, not four times
        small = statistics(independent_clauses(200))
        large = statistics(independent_clauses(400))
        assert (small[":splits"], large[":splits"]) == (200, 400)
        assert large[":propagations"] <= 2.5 * small[":propagations"]


class TestBacktracking:
    def test_failed_branch_is_undone(self):
        # p0 = true leaves (xor p3 p4) and (= p3 p4), which both values of
        # p3 refute; after undoing that branch, the first clause is open
        # again and must be split on once more
        out = run_script("""
            (declare-const p0 Bool) (declare-const p1 Bool)
            (declare-const p2 Bool) (declare-const p3 Bool)
            (declare-const p4 Bool)
            (assert (or p0 p1 p2))
            (assert (=> p0 (xor p3 p4)))
            (assert (=> p0 (= p3 p4)))
            (check-sat) (get-model) (get-info :all-statistics)
        """)
        assert out.splitlines()[0] == "sat"
        assert "(define-fun p0 () Bool false)" in out
        assert "(define-fun p1 () Bool true)" in out
        assert ":splits 3" in out and ":conflicts 2" in out


class TestSearchAgainstEnumeration:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(formulas(3), min_size=1, max_size=6))
    def test_verdict_and_model_match_truth_tables(self, assertions):
        text = "".join(f"(declare-const {v} Bool)" for v in BOOLS)
        text += "".join(f"(assert {a})" for a in assertions)
        out = run_script(text + "(check-sat)(get-model)").splitlines()
        terms = [form[1] for form in parse(tokenize(text))
                 if form[0] == "assert"]
        satisfiable = any(
            all(simplify(t, dict(zip(BOOLS, values))) is True for t in terms)
            for values in itertools.product((False, True), repeat=len(BOOLS)))
        assert out[0] == ("sat" if satisfiable else "unsat")
        if satisfiable:
            model = {form[1]: form[4]
                     for form in parse(tokenize("\n".join(out[1:])))[0]}
            assert all(simplify(t, model) is True for t in terms)


class TestPinnedOutput:
    def test_preset_solver_stdout_hash_pinned(self):
        # SHA-256 over the bundled solver's stdout, verdict and model, for
        # every preset x seeds 1..3 at 200 PRBs and T=30, plus 5-4-13 at
        # T=70 seed 1; recorded before propagation became incremental, so
        # any change to a verdict, a model value or the output format
        # moves it
        cells = [(name, 30, seed) for name in PRESET_NAMES
                 for seed in (1, 2, 3)] + [("5-4-13", 70, 1)]
        digest = hashlib.sha256()
        for name, horizon, seed in cells:
            config = preset_config(name, total_prbs=200, horizon=horizon)
            scenario = preset_scenario_spec(name).generate(config, seed)
            proc = subprocess.run(
                default_solver_command(),
                input=emit_smtlib(encode(config, scenario)),
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digest.update(proc.stdout.encode())
        assert digest.hexdigest() == (
            "96d96f37aee7235ea3ca7aaccdbc6b38ffcdfbcbdd270bfcff61ac3c287e103a")


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

    @pytest.mark.parametrize("script, message", [
        ("(assert (< 1))(check-sat)", "< takes at least 2 arguments, got 1"),
        ("(assert (ite true 1))(check-sat)", "ite takes 3 arguments, got 2"),
        ("(assert (not))(check-sat)", "not takes 1 argument, got 0"),
        ("(assert (= (abs) 1))(check-sat)", "abs takes 1 argument, got 0"),
        ("(assert (= (mod 1) 1))(check-sat)", "mod takes 2 arguments, got 1"),
        ("(assert (= (div 4) 1))(check-sat)", "div takes 2 arguments, got 1"),
    ])
    def test_wrong_arity_reports_error(self, script, message):
        proc = subprocess.run(default_solver_command(), input=script,
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == f'(error "{message}")\n'
        assert proc.stderr == ""

    @pytest.mark.parametrize("script", [
        "(assert 5)(check-sat)",
        "(declare-const x Int)(assert (+ x 1))(assert (= x 2))(check-sat)",
        "(declare-const x Int)(assert x)(assert (= x 2))(check-sat)",
        "(declare-const x Int)(assert (and x (= x 2)))(check-sat)",
        "(declare-const b Bool)(assert (= b 3))(check-sat)",
    ], ids=["int-literal", "int-term", "int-symbol-as-formula",
            "int-symbol-as-conjunct", "bool-symbol-given-int"])
    def test_ill_sorted_assertion_reports_error(self, script):
        proc = subprocess.run(default_solver_command(), input=script,
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout.startswith('(error "ill-sorted assertion')
        assert proc.stderr == ""
