import gc
import hashlib
import io
import itertools
import operator
import random
import re
import selectors
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from prbslice import smtlib_solver
from prbslice.encoder import emit_smtlib, encode
from prbslice.presets import PRESET_NAMES, preset_config, preset_scenario_spec
from prbslice.solver import default_solver_command
from prbslice.smtlib_solver import (
    Interpreter,
    SmtError,
    _shape,
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


# The residual evaluator and unit reader that propagation ran on every
# visit before terms were decided on the first one: ``simplify`` and
# ``_shape`` must agree with them, as ``tokenize`` must with
# ``line_tokenize``.

_REF_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                ">=": operator.ge}


def _ref_is_val(x) -> bool:
    return type(x) is bool or type(x) is int


def _ref_ediv(a: int, b: int) -> int:
    # SMT-LIB Int division is Euclidean: remainder is always non-negative.
    if b == 0:
        raise SmtError("division by zero")
    r = a - _ref_emod(a, b)
    return r // b


def _ref_emod(a: int, b: int) -> int:
    if b == 0:
        raise SmtError("division by zero")
    m = a % abs(b)
    return m


def _ref_all_vals(args) -> bool:
    for a in args:
        if type(a) is not int and type(a) is not bool:
            return False
    return True


def reference_simplify(t, env):
    """Partial evaluation of a term under a partial assignment."""
    if type(t) is str:
        return env.get(t, t)
    if type(t) is not list:
        return t
    op = t[0]
    args = [env.get(x, x) if type(x) is str
            else reference_simplify(x, env) if type(x) is list else x
            for x in t[1:]]

    if op == "and":
        out = []
        for a in args:
            if a is False:
                return False
            if a is not True:
                out.append(a)
        if not out:
            return True
        return out[0] if len(out) == 1 else ["and"] + out
    if op == "or":
        out = []
        for a in args:
            if a is True:
                return True
            if a is not False:
                out.append(a)
        if not out:
            return False
        return out[0] if len(out) == 1 else ["or"] + out
    if op == "not":
        if len(args) != 1:
            raise SmtError(f"not takes 1 argument, got {len(args)}")
        a = args[0]
        if type(a) is bool:
            return not a
        if type(a) is list and a[0] == "not":
            return a[1]
        return ["not", a]
    if op == "=>":
        result = args[-1]
        for a in reversed(args[:-1]):
            if a is True:
                continue
            if a is False:
                return True
            if result is True:
                return True
            if result is False:
                result = reference_simplify(["not", a], env)
            else:
                result = ["=>", a, result]
        return result
    if op == "=":
        if _ref_all_vals(args):
            return all(a == args[0] and type(a) is type(args[0])
                       for a in args[1:])
        return ["="] + args
    if op == "distinct":
        if _ref_all_vals(args):
            return len(set(args)) == len(args)
        return ["distinct"] + args
    if op == "ite":
        if len(args) != 3:
            raise SmtError(f"ite takes 3 arguments, got {len(args)}")
        c, a, b = args
        if c is True:
            return a
        if c is False:
            return b
        return ["ite", c, a, b]
    if op == "xor":
        if all(type(a) is bool for a in args):
            acc = False
            for a in args:
                acc ^= a
            return acc
        return ["xor"] + args
    if op == "+":
        const = 0
        rest = []
        for a in args:
            if _ref_is_val(a):
                const += a
            else:
                rest.append(a)
        if not rest:
            return const
        if const == 0:
            return rest[0] if len(rest) == 1 else ["+"] + rest
        return ["+"] + rest + [const]
    if op == "-":
        if len(args) == 1:
            return -args[0] if _ref_is_val(args[0]) else ["-", args[0]]
        if _ref_all_vals(args):
            acc = args[0]
            for a in args[1:]:
                acc -= a
            return acc
        return ["-"] + args
    if op == "*":
        const = 1
        rest = []
        for a in args:
            if _ref_is_val(a):
                const *= a
            else:
                rest.append(a)
        if const == 0:
            return 0
        if not rest:
            return const
        if const == 1 and len(rest) == 1:
            return rest[0]
        return ["*"] + rest + ([const] if const != 1 else [])
    if op == "div" or op == "mod":
        if len(args) != 2:
            raise SmtError(f"{op} takes 2 arguments, got {len(args)}")
        if _ref_all_vals(args):
            return (_ref_ediv if op == "div" else _ref_emod)(args[0], args[1])
        return [op] + args
    if op == "abs":
        if len(args) != 1:
            raise SmtError(f"abs takes 1 argument, got {len(args)}")
        return abs(args[0]) if _ref_is_val(args[0]) else ["abs", args[0]]
    if op in _REF_COMPARE:
        if len(args) < 2:
            raise SmtError(f"{op} takes at least 2 arguments, got {len(args)}")
        if _ref_all_vals(args):
            # a chain holds when each adjacent pair does
            cmp = _REF_COMPARE[op]
            if len(args) == 2:
                return cmp(args[0], args[1])
            return all(map(cmp, args, args[1:]))
        return [op] + args
    raise SmtError(f"unsupported operator {op!r}")


def reference_unit(t):
    """The (variable, value) a residual forces by itself, else None."""
    if isinstance(t, str):
        return t, True
    if type(t) is int:
        raise SmtError(f"ill-sorted assertion: it evaluates to the Int {t}")
    if t[0] == "not" and isinstance(t[1], str):
        return t[1], False
    if t[0] == "=" and len(t) == 3:
        a, b = t[1], t[2]
        if isinstance(a, str) and _ref_is_val(b):
            return a, b
        if isinstance(b, str) and _ref_is_val(a):
            return b, a
    return None


def reference_shape(t):
    """What propagation made of a residual: a value, the unit, the
    ``and`` arguments as a list, or None."""
    if _ref_is_val(t):
        return t
    return list(t[1:]) if t[0] == "and" else reference_unit(t)


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
# a complete assignment with some variables left out
KEEP = st.lists(st.booleans(), min_size=len(BOOLS + INTS),
                max_size=len(BOOLS + INTS))
PARTIAL = st.tuples(ASSIGNMENTS, KEEP).map(
    lambda p: {k: v for (k, v), keep in zip(p[0].items(), p[1]) if keep})
P0_TRUE = dict.fromkeys(BOOLS, False) | {"p0": True, "n0": 2, "n1": 2}


def assert_decided_as_reference(term, env):
    """``simplify`` gives the parent's residual, and ``_shape`` reads it
    as ``reference_shape`` does."""
    got = simplify(term, env)
    want = reference_simplify(term, env)
    assert repr(got) == repr(want)
    assert repr(_shape(got)) == repr(reference_shape(want))


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
        # the model guard under a complete assignment
        assert ((simplify(term, env) is True)
                == (reference_simplify(term, env) is True))
        assert_decided_as_reference(term, env)

    @settings(max_examples=1000, deadline=None)
    @given(ground_terms(), PARTIAL)
    @example(["and", "p0", ["=>", "p1", ["=", "n0", ["+", "n1", 1]]]],
             {"p1": True, "n1": 2})
    @example(["and", ["=", ["not", ["not", 5]], 5], "p0"], {})
    @example(["=>", ["not", 2], False], {})
    @example(["or", ["not", 2], False], {})
    @example(["and", "p0", ["or", "p1", True]], {})
    @example(["=", "n0", ["*", 0, "n1"]], {})
    def test_partial_assignment_decided_as_reference(self, term, env):
        assert_decided_as_reference(term, env)

    @settings(max_examples=500, deadline=None)
    @given(ground_terms(), PARTIAL)
    @example(["not", ["ite", True, ["not", 3], 1]], {})
    def test_value_is_the_reference_value(self, term, env):
        want = reference_simplify(term, env)
        got = simplify(term, env)
        assert repr(got if type(got) in (bool, int) else None) == repr(
            want if type(want) in (bool, int) else None)

    @settings(max_examples=500, deadline=None)
    @given(ground_terms(), PARTIAL)
    def test_stall_residual_is_the_reference_residual(self, term, env):
        residual = simplify(term, env)
        assert repr(residual) == repr(reference_simplify(term, env))
        got = _shape(residual)
        assert repr(got) == repr(reference_shape(residual))

    def test_units_and_conjuncts(self):
        env = {"y": 4, "g": True}

        def visit(term, env):
            return _shape(simplify(term, env))

        assert visit(["=", "x", ["+", "y", 1]], env) == ("x", 5)
        assert visit(["=", ["+", "y", 1], "x"], env) == ("x", 5)
        assert visit("p", env) == ("p", True)
        assert visit(["not", "p"], env) == ("p", False)
        assert visit(["=>", "g", ["=", "x", 2]], env) == ("x", 2)
        # a linear term is not solved for its variable
        assert visit(["=", ["+", "x", 1], 5], env) is None
        # the conjuncts that are not true, by their residuals, in order
        conj = ["and", ["=", "x", 1], ["=", "y", 4], ["=", "x", "y"]]
        assert visit(conj, env) == [["=", "x", 1], ["=", "x", 4]]
        assert visit(["and", ["=", "y", 4], "p"], env) == ("p", True)
        assert visit(["=>", "q", ["=", "x", 1]], env) is None

    def test_deciding_argument_ends_evaluation(self):
        # simplify stops at a false and-argument, a true or-argument and a
        # false guard, so a zero divisor after one is never evaluated; an
        # argument before it, or after one that does not decide, is
        bad = ["=", ["div", 1, 0], 1]
        assert simplify(["=>", False, bad], {}) is True
        assert simplify(["=>", "p", "q", False, bad], {}) is True
        assert simplify(["and", "p", False, bad], {}) is False
        assert simplify(["or", "p", True, bad], {}) is True
        assert simplify(["or", ["and", False, bad], "p"], {}) == "p"
        for live in (["=>", True, bad], ["and", True, bad],
                     ["or", False, bad], ["and", bad, False],
                     ["or", bad, True], ["=>", bad, False, True]):
            with pytest.raises(SmtError, match="division by zero"):
                simplify(live, {})

    def test_dead_zero_divisor_is_no_error(self):
        # the one change from evaluating every argument: each script was
        # an (error "division by zero") while the dead argument was
        # evaluated
        for dead in ("(=> false (= (div 1 0) 1))",
                     "(or true (= (div 1 0) 1))",
                     "(xor (and false (= (div 1 0) 1)) true)"):
            assert run_script(f"(assert {dead})(check-sat)").strip() == "sat"
        assert run_script("(assert (and false (= (div 1 0) 1)))(check-sat)"
                          ).strip() == "unsat"
        with pytest.raises(SmtError, match="division by zero"):
            run_script("(assert (=> true (= (div 1 0) 1)))(check-sat)")

    def test_dead_ite_branch_is_no_error(self):
        # an ite with a Bool condition evaluates only its taken branch;
        # the dead division was an (error "division by zero") while every
        # argument was evaluated
        out = run_script("(declare-const x Int)"
                         "(assert (= x (ite true 1 (div 1 0))))"
                         "(check-sat)(get-model)")
        assert out.splitlines()[:2] == ["sat", "("]
        assert "(define-fun x () Int 1)" in out
        assert simplify(["ite", "p", ["div", 1, 0], 2], {"p": False}) == 2
        with pytest.raises(SmtError, match="division by zero"):
            simplify(["ite", "p", ["div", 1, 0], 2], {"p": True})
        # a condition that is no Bool value leaves a residual, both
        # branches evaluated
        assert simplify(["ite", 2, "x", ["+", 1, 1]], {}) == [
            "ite", 2, "x", 2]
        assert simplify(["ite", "p", "x", "y"], {"y": 3}) == [
            "ite", "p", "x", 3]


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

    @pytest.mark.parametrize("model", [{"a": True, "n": 2},
                                       {"a": False, "n": 1}],
                             ids=["breaks-assertion", "breaks-assumption"])
    def test_wrong_model_is_unknown(self, monkeypatch, model):
        # the soundness guard checks a search's model against every
        # assertion and assumption, and withholds one that breaks either
        monkeypatch.setattr(smtlib_solver, "search",
                            lambda prop: ("sat", dict(model)))
        out = run_script("(declare-const a Bool)(declare-const n Int)"
                         "(assert (= n 1))(check-sat-assuming (a))"
                         "(get-model)")
        assert out == 'unknown\n(error "model is not available")\n'


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


def both_modes(script: str) -> tuple[str, int]:
    """The output and exit status of a script run in process, an SmtError
    written as its ``(error ...)`` line and status 3, after checking that
    the bundled solver's child prints and exits the same."""
    out = io.StringIO()
    try:
        Interpreter(out).run(script)
        code = 0
    except SmtError as exc:
        out.write(f'(error "{exc}")\n')
        code = 3
    proc = subprocess.run(default_solver_command(), input=script,
                          capture_output=True, text=True, timeout=30)
    assert (proc.stdout, proc.returncode) == (out.getvalue(), code)
    return out.getvalue(), code


AB = "(declare-const a Bool)(declare-const b Bool)(assert (or a b))"


class TestAssumptionsAndLevels:
    def test_assumptions_decide_without_asserting(self):
        # after each check-sat-assuming the assertions are as before, so a
        # plain check-sat answers as it did before it
        out, code = both_modes(
            AB + "(check-sat)(check-sat-assuming ((not a) (not b)))"
            "(check-sat)(check-sat-assuming ((not a)))(get-model)(check-sat)")
        assert code == 0
        assert out == ("sat\nunsat\nsat\nsat\n(\n"
                       "  (define-fun a () Bool false)\n"
                       "  (define-fun b () Bool true)\n)\nsat\n")

    def test_assumptions_are_assigned_before_propagation(self):
        # they are level-0 decisions, not terms: nothing splits on them,
        # and the one assertion is decided on its first visit
        assert statistics(AB + "(check-sat-assuming (a (not b)))") == {
            ":propagations": 1, ":splits": 0, ":conflicts": 0}

    def test_clashing_assumptions_are_unsat(self):
        out, code = both_modes(AB + "(check-sat-assuming (a b (not a)))"
                               "(check-sat)")
        assert (out, code) == ("unsat\nsat\n", 0)

    @pytest.mark.parametrize("literal, shown", [
        ("n", "'n'"), ("z", "'z'"), ("(not n)", "['not', 'n']"),
        ("(and a b)", "['and', 'a', 'b']"), ("(not (not a))",
                                             "['not', ['not', 'a']]"),
        ("true", "True"),
    ], ids=["int-symbol", "undeclared", "negated-int", "conjunction",
            "double-negation", "constant"])
    def test_assumption_not_a_bool_literal_is_an_error(self, literal, shown):
        out, code = both_modes("(declare-const n Int)" + AB
                               + f"(check-sat-assuming ({literal}))")
        assert code == 3
        assert out == (f'(error "assumption {shown} is not a declared '
                       'Bool symbol or its negation")\n')

    @pytest.mark.parametrize("script, message", [
        # check-sat-assuming leaves the assertions as they were, so no
        # assertion levels are kept: push and pop are unsupported
        ("(pop 1)", "unsupported command 'pop'"),
        ("(push 2)(pop 1)(pop 2)", "unsupported command 'push'"),
        ("(push)", "unsupported command 'push'"),
        ("(pop -1)", "unsupported command 'pop'"),
        ("(check-sat-assuming a)", "check-sat-assuming takes one list of "
                                   "literals"),
    ], ids=["below-zero", "below-zero-after-push", "no-numeral", "negative",
            "no-list"])
    def test_bad_level_or_query_is_an_error(self, script, message):
        assert both_modes(script) == (f'(error "{message}")\n', 3)


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
        assert stats == {":propagations": 10500, ":splits": 0,
                         ":conflicts": 0}

    @pytest.mark.parametrize("name, horizon", [
        *((name, 30) for name in PRESET_NAMES), ("5-4-13", 70)])
    def test_preset_terms_never_stall(self, name, horizon):
        # every definition names only symbols defined above it, so each
        # assertion and each conjunct of a top-level and is decided on its
        # one visit: a term left waiting for a later variable would be
        # visited again, and no cell needs a split
        config = preset_config(name, total_prbs=200, horizon=horizon)
        scenario = preset_scenario_spec(name).generate(config, 1)
        script = emit_smtlib(encode(config, scenario))
        terms = [form[1] for form in parse(tokenize(script))
                 if form[0] == "assert"]
        conjuncts = sum(len(t) - 1 for t in terms
                        if type(t) is list and t[0] == "and")
        assert statistics(script) == {
            ":propagations": len(terms) + conjuncts, ":splits": 0,
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

    def test_undo_takes_back_watches_and_new_terms(self):
        # a = true is tried first: the else branch splits into new terms,
        # (=> d b) starts watching d and b, and (not c) clashes with c;
        # undoing that branch must drop those terms and watches before
        # a = false forces d
        out = run_script("""
            (declare-const a Bool) (declare-const b Bool)
            (declare-const c Bool) (declare-const d Bool)
            (assert (ite (not a) d (and (=> d b) (and (not c) c))))
            (check-sat) (get-model) (get-info :all-statistics)
        """)
        assert out == (
            "sat\n(\n"
            "  (define-fun a () Bool false)\n"
            "  (define-fun b () Bool false)\n"
            "  (define-fun c () Bool false)\n"
            "  (define-fun d () Bool true)\n"
            ")\n(:propagations 7\n :splits 1\n :conflicts 1)\n")


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


def split_script(seed: int) -> str:
    """A seeded random Bool/Int script that opens with a clause of two
    unforced literals, so the search must split."""
    rng = random.Random(seed)

    def lit():
        v = rng.choice(BOOLS)
        return v if rng.random() < 0.5 else f"(not {v})"

    def num():
        n = rng.choice(INTS)
        return rng.choice((n, f"(+ {n} {rng.randint(-2, 2)})",
                           str(rng.randint(0, 3))))

    shapes = (
        lambda: f"(or {lit()} {lit()} {lit()})",
        lambda: f"(=> {lit()} (= {rng.choice(INTS)} {num()}))",
        lambda: f"(= {rng.choice(INTS)} (ite {lit()} {rng.randint(0, 3)} "
                f"{num()}))",
        lambda: f"(=> (< {num()} {num()}) {lit()})",
        lambda: f"(xor {lit()} {lit()})",
        lambda: f"(and (or {lit()} {lit()}) (=> {lit()} {lit()}))",
    )
    text = "".join(f"(declare-const {v} Bool)" for v in BOOLS)
    text += "".join(f"(declare-const {v} Int)" for v in INTS)
    text += f"(assert (or {BOOLS[0]} {BOOLS[1]}))"
    text += "".join(f"(assert {rng.choice(shapes)()})"
                    for _ in range(rng.randint(3, 8)))
    return text + "(check-sat)(get-model)(get-info :all-statistics)"


class TestPinnedSplitOrder:
    def test_split_scripts_stdout_hash_pinned(self):
        # SHA-256 over verdict, model and statistics of 50 seeded scripts
        # that all split; recorded before terms were decided on first
        # visit, so any change to the split order or model choice moves it
        digest = hashlib.sha256()
        verdicts = set()
        for seed in range(50):
            out = run_script(split_script(seed))
            stats = parse(tokenize(out))[-1]
            assert stats[stats.index(":splits") + 1] >= 1, seed
            verdicts.add(out.split("\n", 1)[0])
            digest.update(out.encode())
        assert verdicts == {"sat", "unsat", "unknown"}
        assert digest.hexdigest() == (
            "59a1b57be09232c759fc4fe75cab8fea892b91de3db806a619959519117d18bc")


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

    def test_each_batch_is_answered_before_eof(self):
        # the reply to a complete line arrives while stdin is still open
        with subprocess.Popen(default_solver_command(), stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE) as proc:
            proc.stdin.write(b"(check-sat)\n")
            proc.stdin.flush()
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                assert sel.select(timeout=30), "no reply before EOF"
            assert proc.stdout.readline() == b"sat\n"
            proc.stdin.close()
            assert proc.wait(timeout=30) == 0

    def test_reset_forgets_declarations(self):
        script = ("(declare-const x Int)(assert (= x 1))(check-sat)"
                  "(get-model)(reset)(declare-const x Bool)(assert x)"
                  "(check-sat)(get-model)(get-info :all-statistics)")
        proc = subprocess.run(default_solver_command(), input=script,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout == run_script(script) == (
            "sat\n(\n  (define-fun x () Int 1)\n)\n"
            "sat\n(\n  (define-fun x () Bool true)\n)\n"
            "(:propagations 1\n :splits 0\n :conflicts 0)\n")

    def test_stdin_runs_the_forms_before_a_syntax_error(self, tmp_path):
        # stdin is run as it arrives; a file is parsed whole first
        script = "(check-sat)\n(assert (= 1"
        proc = subprocess.run(default_solver_command(), input=script,
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout) == (
            3, "sat\n(error \"unbalanced '('\")\n")
        path = tmp_path / "open.smt2"
        path.write_text(script)
        proc = subprocess.run(default_solver_command() + [str(path)],
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout) == (
            3, "(error \"unbalanced '('\")\n")

    def test_run_leaves_no_reference_cycle(self):
        # the long-lived child runs with the collector off, so a cycle
        # left by one script would stay until the child exits
        config = preset_config("5-4-13", total_prbs=200, horizon=70)
        scenario = preset_scenario_spec("5-4-13").generate(config, 1)
        script = emit_smtlib(encode(config, scenario))
        gc.collect()
        gc.disable()
        try:
            Interpreter(io.StringIO()).run(script)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_file_argument(self, tmp_path):
        path = tmp_path / "probe.smt2"
        path.write_text("(assert (= 1 2)) (check-sat)")
        proc = subprocess.run(
            [sys.executable, "-m", "prbslice.smtlib_solver", str(path)],
            capture_output=True, text=True)
        assert proc.stdout.strip() == "unsat"

    def test_documented_commands_are_the_supported_ones(self):
        listed = re.search(r"Supported commands: ([^.]*)\.",
                           smtlib_solver.__doc__)[1]
        listed = [cmd.split()[0] for cmd in listed.split(",")]
        # one script per command that runs it
        runs = {
            "set-logic": "(set-logic QF_LIA)",
            "set-info": "(set-info :status sat)",
            "set-option": "(set-option :produce-models true)",
            "declare-const": "(declare-const a Bool)",
            "declare-fun": "(declare-fun a () Bool)",
            "assert": "(assert true)",
            "check-sat": "(check-sat)",
            "check-sat-assuming": "(declare-const a Bool)"
                                  "(check-sat-assuming (a))",
            "get-model": "(check-sat)(get-model)",
            "get-info": "(get-info :all-statistics)",
            "echo": '(echo "hi")',
            "reset": "(reset)",
            "exit": "(exit)",
        }
        assert sorted(listed) == sorted(runs)
        for cmd in listed:
            assert both_modes(runs[cmd])[1] == 0, cmd
        for cmd in ("push", "pop"):
            assert both_modes(f"({cmd} 1)") == (
                f"(error \"unsupported command '{cmd}'\")\n", 3)

    def test_unsupported_command_reports_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prbslice.smtlib_solver"],
            input="(get-assertions)",
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
        ("(assert (=>))(check-sat)", "=> takes at least 1 argument, got 0"),
        ("(assert (= (-) 1))(check-sat)",
         "- takes at least 1 argument, got 0"),
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
