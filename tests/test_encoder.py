import shutil
from pathlib import Path

import pytest

from prbslice.encoder import (
    BOUND_MULTIPLIER,
    TAGS,
    ConstraintSet,
    encode,
    emit_smtlib,
)
from prbslice.model import ConfigError
from prbslice.oracle import diff_traces, simulate
from prbslice.presets import (
    PRESET_NAMES, default_scenario_spec, preset_config, preset_scenario_spec,
)
from prbslice.properties import check_all
from prbslice.scenario import ScenarioTrace
from prbslice.smtlib_solver import parse, tokenize
from prbslice.solver import extract_trace, solve

from helpers import single_slice_config, wide_config

DATA = Path(__file__).parent / "data"


def golden_inputs():
    config = single_slice_config(t_win=2, m=1, total_prbs=8, horizon=2)
    scenario = ScenarioTrace(seed=0, arrivals=((True, False),),
                             departures=((False, False),))
    return config, scenario


def symbols(*terms) -> set:
    """The symbols that parsed terms name, operators aside."""
    out = set()

    def walk(node):
        if isinstance(node, list):
            for child in node[1:]:
                walk(child)
        elif isinstance(node, str):
            out.add(node)

    for term in terms:
        walk(term)
    return out


def symbols_in(formula: str) -> set:
    return symbols(*parse(tokenize(formula)))


class TestEncode:
    def test_emission_deterministic(self, small_run):
        config, scenario, _ = small_run
        first = emit_smtlib(encode(config, scenario))
        second = emit_smtlib(encode(config, scenario))
        assert first == second

    def test_zero_horizon_rejected(self):
        config = single_slice_config(horizon=0)
        scenario = ScenarioTrace(seed=0, arrivals=((),), departures=((),))
        with pytest.raises(ConfigError, match="horizon must be >= 1"):
            encode(config, scenario)

    def test_empty_set_renders_header_and_checksat(self):
        script = emit_smtlib(ConstraintSet(declarations=(), assertions=()))
        assert script.splitlines() == ["(set-logic QF_LIA)", "(check-sat)"]

    def test_layout_built_once_for_equal_configs(self):
        spec = preset_scenario_spec("3-2-4")
        config = preset_config("3-2-4")
        first = encode(config, spec.generate(config, 1))
        # an equal config, another object, and another scenario
        again = encode(preset_config("3-2-4"), spec.generate(config, 2))
        assert again.declarations is first.declarations
        assert again.assertions is first.assertions
        assert again.assumptions != first.assumptions
        wider = preset_config("3-2-4", total_prbs=300)
        other = encode(wider, spec.generate(wider, 1))
        assert other.assertions != first.assertions
        # the layout text is the same whether reused or rendered afresh
        copied = ConstraintSet(tuple(list(first.declarations)),
                               tuple(list(first.assertions)),
                               first.assumptions)
        assert emit_smtlib(copied) == emit_smtlib(first)
        a, b = emit_smtlib(first), emit_smtlib(again)
        at = a.index("(check-sat-assuming")
        assert b.index("(check-sat-assuming") == at and a[:at] == b[:at]
        assert a[at:] != b[at:]

    def test_count_bound(self, small_run):
        config, scenario, _ = small_run
        cs = encode(config, scenario)
        assert cs.assertion_count <= BOUND_MULTIPLIER * 1770

    def test_tags_vocabulary(self, small_run):
        config, scenario, _ = small_run
        cs = encode(config, scenario)
        assert {tag for tag, _ in cs.assertions} <= set(TAGS)

    def test_every_symbol_declared_exactly_once(self, small_run):
        config, scenario, _ = small_run
        cs = encode(config, scenario)
        declared = [name for name, _ in cs.declarations]
        assert len(declared) == len(set(declared))
        declared_set = set(declared)
        used = set()
        for _, formula in cs.assertions:
            used |= symbols_in(formula)
        used -= {"true", "false"}
        assert used <= declared_set

    def test_infeasible_config_rejected_before_emission(self):
        config = preset_config("5-4-13", total_prbs=100)
        scenario = preset_scenario_spec("5-4-13").generate(
            preset_config("5-4-13"), 1)
        with pytest.raises(ConfigError):
            encode(config, scenario)

    def test_dimension_mismatch_rejected(self):
        config, _ = golden_inputs()
        wrong = ScenarioTrace(seed=0, arrivals=((True,),),
                              departures=((True,),))
        with pytest.raises(Exception):
            encode(config, wrong)


class TestWideLayouts:
    """Wide and deep partition layouts stay linear in size and still agree
    with the simulator state for state."""

    @pytest.mark.parametrize("K, r", [(8, 1), (6, 2), (3, 7)])
    def test_linear_size_and_exact_agreement(self, K, r):
        config = wide_config(K, r)
        scenario = default_scenario_spec(config).generate(config, 1)
        cs = encode(config, scenario)
        layer_tags = {"partition-adjust", "frame", "residual-adjust"}
        upper = sum(1 for tag, _ in cs.assertions if tag in layer_tags)
        assert upper <= (config.num_slices + K + 1) * config.horizon

        verdict = solve(emit_smtlib(cs))
        assert verdict.status == "sat"
        trace = extract_trace(verdict, config, scenario)
        assert diff_traces(simulate(config, scenario), trace) == []
        assert check_all(trace, config).all_passed


def definitional_cells():
    for name in PRESET_NAMES:
        spec = preset_scenario_spec(name)
        for seed in (1, 2, 3):
            yield pytest.param(preset_config(name), spec, seed,
                               id=f"{name}-seed{seed}")
    yield pytest.param(preset_config("5-4-13", horizon=70),
                       preset_scenario_spec("5-4-13"), 1, id="5-4-13-T70")
    for K, r in ((8, 1), (6, 2), (3, 7)):
        config = wide_config(K, r)
        yield pytest.param(config, default_scenario_spec(config), 1,
                           id=f"wide-{K}x{r}")


def definition(part, declared):
    """(symbol, right side) when ``part`` is ``(= symbol rhs)`` or
    ``(not symbol)`` over a declared symbol, else None."""
    if (isinstance(part, list) and part[0] in ("=", "not")
            and isinstance(part[1], str) and part[1] in declared):
        return part[1], part[2:]
    return None


class TestDefinitionalForm:
    """Each declared symbol is defined once: a scenario flag by its
    assumption literal, before any assertion, and every other symbol by an
    initial value or an update, top level or as a conjunct of a top-level
    ``and``, whose right side names only symbols defined above it.  So the
    script has exactly one model under its assumptions, and reading the
    definitions in script order computes it."""

    @pytest.mark.parametrize("config, spec, seed", definitional_cells())
    def test_one_definition_per_symbol_in_script_order(self, config, spec,
                                                       seed):
        cs = encode(config, spec.generate(config, seed))
        declared = {name for name, _ in cs.declarations}
        defined: set = set()
        for literal in cs.assumptions:
            (term,) = parse(tokenize(literal))
            negated = isinstance(term, list) and term[0] == "not"
            sym = term[1] if negated and len(term) == 2 else term
            assert isinstance(sym, str) and sym in declared, literal
            assert sym not in defined, f"{sym} assumed twice"
            defined.add(sym)
        for tag, formula in cs.assertions:
            (term,) = parse(tokenize(formula))
            parts = term[1:] if term[0] == "and" else [term]
            defs = [definition(part, declared) for part in parts]
            if None in defs:
                # only the signal-conflict guards define nothing, and they
                # read symbols already defined
                assert tag == "signal-conflict" and not any(defs), formula
                assert symbols(term) <= defined, formula
                continue
            for sym, rhs in defs:
                assert sym not in defined, f"{sym} defined twice"
                assert symbols(*rhs) <= defined, (sym, symbols(*rhs) - defined)
                defined.add(sym)
        assert defined == declared


class TestGoldenSnapshot:
    def test_byte_identical(self):
        config, scenario = golden_inputs()
        script = emit_smtlib(encode(config, scenario))
        assert script == (DATA / "golden_single_slice.smt2").read_text()


SOLVERS = [("bundled", None)]
for exe, template in (("z3", "z3 -in"), ("cvc5", "cvc5 --lang smt2 {script}")):
    if shutil.which(exe):
        SOLVERS.append((exe, template))


class TestScriptsParseEverywhere:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("solver_name, command", SOLVERS)
    def test_accepted_without_parse_errors(self, name, solver_name, command):
        from prbslice.solver import solve

        config = preset_config(name, horizon=6)
        scenario = preset_scenario_spec(name).generate(config, 1)
        script = emit_smtlib(encode(config, scenario))
        verdict = solve(script, timeout=120, command=command)
        assert verdict.status == "sat"
