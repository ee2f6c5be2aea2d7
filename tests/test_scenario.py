import hashlib
import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from prbslice.oracle import simulate
from prbslice.presets import PRESET_NAMES, preset_config, preset_scenario_spec
from prbslice.scenario import (
    DistributionSpec,
    ScenarioError,
    ScenarioSpec,
    ScenarioTrace,
    gen_arrivals,
)

from helpers import two_premium_config


def bernoulli(p, threshold=0.5):
    return DistributionSpec("bernoulli", {"p": p}, threshold)


BERNOULLI = '{"kind": "bernoulli", "params": {"p": 0.5}, "threshold": 0.5}'


class TestDistributionSpec:
    def test_threshold_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ScenarioError):
                DistributionSpec("bernoulli", {"p": 0.5}, bad)

    def test_kind_specific_params(self):
        with pytest.raises(ScenarioError):
            DistributionSpec("lognormal", {"mu": 0, "sigma": 0}, 0.5)
        with pytest.raises(ScenarioError):
            DistributionSpec("poisson", {"rate": 0}, 0.5)
        with pytest.raises(ScenarioError):
            DistributionSpec("bernoulli", {"p": 1.5}, 0.5)
        with pytest.raises(ScenarioError):
            DistributionSpec("uniform", {}, 0.5)

    def test_dict_round_trip(self):
        spec = DistributionSpec("poisson", {"rate": 3.0}, 0.2)
        assert DistributionSpec.from_dict(asdict(spec)) == spec


class TestGenArrivals:
    def test_degenerate_true(self):
        assert gen_arrivals(bernoulli(1.0), seed=7, horizon=5) == [True] * 5

    def test_degenerate_false(self):
        assert gen_arrivals(bernoulli(0.0), seed=7, horizon=5) == [False] * 5

    def test_rejects_zero_horizon(self):
        with pytest.raises(ScenarioError):
            gen_arrivals(bernoulli(0.5), seed=1, horizon=0)

    def test_poisson_rate_matches_exceedance_mass(self):
        # independent oracle: the probability that a draw's pmf clears the
        # threshold is the summed pmf over the qualifying support
        rate, threshold = 3.0, 0.2
        pmf = [rate ** k * math.exp(-rate) / math.factorial(k)
               for k in range(50)]
        expected = sum(p for p in pmf if p > threshold)
        flags = gen_arrivals(DistributionSpec("poisson", {"rate": rate},
                                              threshold), seed=42, horizon=30)
        assert abs(sum(flags) / 30 - expected) <= 0.15

    def test_lognormal_deterministic(self):
        spec = DistributionSpec("lognormal", {"mu": 0.0, "sigma": 1.0}, 0.42)
        assert (gen_arrivals(spec, 5, 50) == gen_arrivals(spec, 5, 50))
        assert (gen_arrivals(spec, 5, 50) != gen_arrivals(spec, 6, 50))


class TestGenScenario:
    def test_determinism_bit_identical(self):
        config = preset_config("3-3-7")
        spec = preset_scenario_spec("3-3-7")
        a = spec.generate(config, 11)
        b = spec.generate(config, 11)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_zero_departure_rate(self):
        config = preset_config("3-2-4")
        spec = preset_scenario_spec("3-2-4")
        trace = ScenarioSpec(spec.per_service, 0.0).generate(config, 3)
        assert all(not f for row in trace.departures for f in row)

    def test_degenerate_empty_network(self):
        config = two_premium_config()
        per_service = {1: bernoulli(0.0), 2: bernoulli(0.0)}
        scenario = ScenarioSpec(per_service, 0.5).generate(config, 9)
        trace = simulate(config, scenario)
        assert all(sl.usr == 0 for st in trace.states for sl in st.slices)
        # with nobody inside, every departure coin must have been dropped
        assert all(not f for row in scenario.departures for f in row)

    def test_admissible_replay(self):
        config = preset_config("3-2-4")
        spec = preset_scenario_spec("3-2-4")
        scenario = spec.generate(config, 1)
        trace = simulate(config, scenario)   # raises on any breach
        assert all(sl.usr >= 0 for st in trace.states for sl in st.slices)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_admissible_for_any_seed(self, seed):
        config = preset_config("3-2-4", horizon=20)
        spec = preset_scenario_spec("3-2-4")
        scenario = spec.generate(config, seed)
        simulate(config, scenario)

    def test_unit_transitions(self):
        config = preset_config("5-3-10")
        scenario = preset_scenario_spec("5-3-10").generate(config, 2)
        assert len(scenario.arrivals) == config.num_services
        assert len(scenario.departures) == config.num_slices
        assert all(len(r) == config.horizon for r in scenario.arrivals)
        assert all(len(r) == config.horizon for r in scenario.departures)

    def test_preset_scenarios_hash_pinned(self):
        # SHA-256 over the JSON of every preset x horizon 30/50/70 x seeds
        # 1..30 at 200 PRBs, recorded before the densities became closed
        # forms; any change to a draw, a density or a flag moves it
        digest = hashlib.sha256()
        for name in PRESET_NAMES:
            spec = preset_scenario_spec(name)
            for horizon in (30, 50, 70):
                config = preset_config(name, horizon=horizon)
                for seed in range(1, 31):
                    digest.update(spec.generate(config, seed).to_json()
                                  .encode())
        assert digest.hexdigest() == (
            "b71226d3a6ae16f7376f871e82211ecfe7d62c244b1c11140759d85413ad5660")

    def test_missing_service_spec_rejected(self):
        config = preset_config("3-2-4")
        with pytest.raises(ScenarioError, match="no distribution spec"):
            ScenarioSpec({1: bernoulli(0.5)}, 0.1).generate(config, 1)


class TestSerialization:
    def test_trace_round_trip(self):
        config = preset_config("3-2-4")
        trace = preset_scenario_spec("3-2-4").generate(config, 4)
        assert ScenarioTrace.from_json(trace.to_json()) == trace

    def test_spec_round_trip(self):
        spec = preset_scenario_spec("5-4-13")
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec

    def test_dimension_check(self):
        config = preset_config("3-2-4")
        trace = preset_scenario_spec("3-2-4").generate(config, 4)
        other = preset_config("3-3-7")
        with pytest.raises(ScenarioError):
            trace.check_dimensions(other)

    @pytest.mark.parametrize("text", [
        "{", "[1]", '{"arrivals": []}', '{"seed": "x", "arrivals": [],'
        ' "departures": []}', '{"seed": 1, "arrivals": [1], "departures": []}',
        # bool() or int() would read these as an arrival, an arrival, seed 1
        '{"seed": 1, "arrivals": [["0"]], "departures": []}',
        '{"seed": 1, "arrivals": [[2]], "departures": []}',
        '{"seed": 1.9, "arrivals": [], "departures": []}'])
    def test_malformed_trace_rejected(self, text):
        with pytest.raises(ScenarioError, match="malformed scenario document"):
            ScenarioTrace.from_json(text)

    @pytest.mark.parametrize("text", [
        "{", "[1]", '{"departure_rate": 0.1}',
        '{"per_service": [], "departure_rate": 0.1}',
        '{"per_service": {"1": {"kind": "poisson"}}, "departure_rate": 0.1}',
        '{"per_service": {}, "departure_rate": "x"}',
        # float() would read these as rates 1.0 and 0.1
        '{"per_service": {}, "departure_rate": true}',
        '{"per_service": {}, "departure_rate": "0.1"}',
        # int() would read these keys as services 1, 2 and 10, and "02" as
        # the service "2" it repeats
        *(f'{{"per_service": {{"{key}": {BERNOULLI}}}, "departure_rate": 0}}'
          for key in (" 1", "+2", "1_0")),
        f'{{"per_service": {{"2": {BERNOULLI}, "02": {BERNOULLI}}}, '
        f'"departure_rate": 0}}'])
    def test_malformed_spec_rejected(self, text):
        with pytest.raises(ScenarioError,
                           match="malformed scenario spec document"):
            ScenarioSpec.from_json(text)

    @pytest.mark.parametrize("service, rate, match", [
        ('"lognormal", "params": {"sigma": Infinity}, "threshold": 0.4',
         0.1, "lognormal sigma must be a finite number, got inf"),
        ('"lognormal", "params": {"mu": NaN, "sigma": 1}, "threshold": 0.4',
         0.1, "lognormal mu must be a finite number, got nan"),
        ('"poisson", "params": {"rate": NaN}, "threshold": 0.2',
         0.1, "poisson rate must be a finite number, got nan"),
        ('"bernoulli", "params": {"p": true}, "threshold": 0.5',
         0.1, "bernoulli p must be a finite number, got True"),
        ('"bernoulli", "params": {"p": 0.5}, "threshold": "0.5"',
         0.1, "bernoulli threshold must be a finite number, got '0.5'"),
        ('"bernoulli", "params": {"p": 0.5}, "threshold": 0.5',
         "NaN", r"departure_rate must lie in \[0, 1\], got nan"),
        ('"bernoulli", "params": {"p": 0.5}, "threshold": 0.5',
         1.5, r"departure_rate must lie in \[0, 1\], got 1.5"),
    ], ids=["sigma-inf", "mu-nan", "rate-nan", "p-bool", "threshold-string",
            "departure-nan", "departure-above-1"])
    def test_spec_value_rejected_at_load(self, service, rate, match):
        text = (f'{{"per_service": {{"1": {{"kind": {service}}}}}, '
                f'"departure_rate": {rate}}}')
        with pytest.raises(ScenarioError, match=match):
            ScenarioSpec.from_json(text)

    def test_spec_parameter_rule_kept(self):
        text = ('{"per_service": {"1": {"kind": "poisson", "params": '
                '{"rate": 0}, "threshold": 0.5}}, "departure_rate": 0.1}')
        with pytest.raises(ScenarioError, match="poisson rate must be > 0"):
            ScenarioSpec.from_json(text)
