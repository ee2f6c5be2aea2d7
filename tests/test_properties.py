import csv
import hashlib
import io
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from prbslice.model import ConfigError, nominal_throughput
from prbslice.oracle import simulate
from prbslice.presets import preset_config
from prbslice.properties import (
    ALL_INVARIANTS,
    baseline_overprovision,
    check_all,
    compute_metrics,
)

from helpers import (
    bump_pt_shr,
    constant_arrivals,
    empty_scenario,
    mutate_slice,
    mutate_state,
    single_slice_config,
    two_premium_config,
)


@pytest.fixture(scope="module")
def saturating_run():
    config = single_slice_config(t_win=2, m=1, total_prbs=8, horizon=8)
    scenario = constant_arrivals(config, {1: True})
    return config, scenario, simulate(config, scenario)


@pytest.fixture(scope="module")
def oscillating_run():
    config = single_slice_config(t_win=2, m=1, total_prbs=20, horizon=4)
    scenario = empty_scenario(config)
    return config, scenario, simulate(config, scenario)


@pytest.fixture(scope="module")
def premium_run():
    config = two_premium_config(horizon=6)
    scenario = constant_arrivals(config, {1: True})
    return config, scenario, simulate(config, scenario)


class TestCheckAllPasses:
    def test_oracle_trace_all_pass(self, small_run):
        config, _, trace = small_run
        report = check_all(trace, config)
        assert report.all_passed, report.failing()
        assert set(report.results) == set(ALL_INVARIANTS)

    def test_fixture_traces_all_pass(self, saturating_run, oscillating_run,
                                     premium_run):
        for config, _, trace in (saturating_run, oscillating_run,
                                 premium_run):
            assert check_all(trace, config).all_passed


class TestTimesteps:
    @pytest.mark.parametrize("cut", ["last", "middle", "swap"])
    def test_check_all_rejects_gaps_and_disorder(self, small_run, cut):
        config, _, trace = small_run
        states = list(trace.states)
        if cut == "last":
            del states[-1]
        elif cut == "middle":
            del states[5]
        else:
            states[4], states[5] = states[5], states[4]
        with pytest.raises(ValueError, match="j = 0..30 in order"):
            check_all(replace(trace, states=tuple(states)), config)


# SHA-256 of properties.json + properties.csv for each injected fault below
REPORT_SHA256 = {
    "conservation": "f3f9739cdaeb9df5839dfd19dc6e9be0"
                    "2863dd1e4c7d58b53b97deec347a4df1",
    "partition-consistency": "6ec98e7f25d36b53a24ed30b26b329d1"
                             "dbcfc6d19832037f8e32964d9e40aa1f",
    "slice-accounting": "1aa60d5fa1ee70dfa0417193e7d80cc1"
                        "d600af99be056c24d817a8bd8054f824",
    "share-immobility": "1f248af11856a740a2a73f8a81ac1f0c"
                        "3a806af2b64d528d7ec5232fbda22149",
    "share-quantization": "f9ef29e3b998dd094b052ce85b07300f"
                          "f33c4af9ecea875adbda72634a4cf234",
    "signal-exclusion": "641d5c7f39c72d6d3fe3518008f3c83a"
                        "ef254ca31d64e4f4aa592148172e49de",
    "fairness": "00bc32db749042323ed1760083bebcf2"
                "1dbabdf089c4c8fd419f59f3657f54bb",
    "optimality-band": "d1cd694d9e2575e1742ee56d63303f43"
                       "ffbf872e8e1b877530ce53a8528b42b1",
    "topup-gating": "ac41572ef7fdbd63bba2e2e4d05e0105"
                    "01e0595c116aa44b0f0b5b3ddda69b28",
    "argmin-assignment": "45839aeda13afa747e8b99365c7cb4cc"
                         "010142489e1ff44594a2a1b6cd762d18",
    "overuse-flag": "301333cc801e8c928cd078a2273aac13"
                    "9722225699364eb86a436596a9554463",
    "nonnegativity": "f31f38b961f367150a899393da57978e"
                     "e6b94e87711561eb233c89852e5c5217",
}


class TestInjectedFaults:
    """Each invariant must catch its dedicated fault."""

    def check_fails(self, trace, config, invariant, at=None):
        report = check_all(trace, config)
        result = report.results[invariant]
        assert not result.passed, f"{invariant} unexpectedly passed"
        if at is not None:
            assert result.first_violation_timestep == at
        assert result.details
        text = report.to_json() + report.to_csv()
        assert hashlib.sha256(text.encode()).hexdigest() == \
            REPORT_SHA256[invariant]

    def test_conservation(self, small_run):
        config, _, trace = small_run
        bad = mutate_slice(trace, j=3, slice_id=1,
                           shr=trace.states[3].slices[0].shr + 1)
        self.check_fails(bad, config, "conservation", at=3)

    def test_partition_consistency(self, small_run):
        config, _, trace = small_run
        bad = bump_pt_shr(trace, j=4, k=1, delta=1)
        self.check_fails(bad, config, "partition-consistency", at=4)

    def test_slice_accounting(self, small_run):
        config, _, trace = small_run
        bad = mutate_slice(trace, j=2, slice_id=2,
                           resi=trace.states[2].slices[1].resi + 1)
        self.check_fails(bad, config, "slice-accounting", at=2)

    def test_share_immobility(self, small_run):
        config, _, trace = small_run
        # j=3 is mid-window for every slice (windows are 6, 8, 10)
        st = trace.states[3].slices[0]
        bad = mutate_slice(trace, j=3, slice_id=1, shr=st.shr + 1,
                           resi=st.resi + 1)
        self.check_fails(bad, config, "share-immobility", at=3)

    def test_share_quantization(self, saturating_run):
        config, _, trace = saturating_run
        # j=2 is a boundary; a legal move is 0 or +-2
        st = trace.states[2].slices[0]
        bad = mutate_slice(trace, j=2, slice_id=1, shr=st.shr + 1,
                           resi=st.resi + 1)
        self.check_fails(bad, config, "share-quantization", at=2)

    def test_signal_exclusion(self, saturating_run):
        config, _, trace = saturating_run
        bad = mutate_slice(trace, j=2, slice_id=1, ramp=True)
        self.check_fails(bad, config, "signal-exclusion", at=2)

    def test_fairness(self, saturating_run):
        config, _, trace = saturating_run
        # erase the due top-up at j=2: condition holds, share stays flat
        st = trace.states[2].slices[0]
        bad = mutate_slice(trace, j=2, slice_id=1, top=False,
                           shr=st.shr - 2, resi=st.resi - 2)
        self.check_fails(bad, config, "fairness", at=2)

    def test_optimality_band(self, oscillating_run):
        config, _, trace = oscillating_run
        # the ramp at j=4 must leave the residual strictly below two caps
        st = trace.states[4].slices[0]
        assert st.ramp
        bad = mutate_slice(trace, j=4, slice_id=1, resi=st.resi + 2,
                           shr=st.shr + 2)
        self.check_fails(bad, config, "optimality-band", at=4)

    def test_topup_gating(self, saturating_run):
        config, _, trace = saturating_run
        bad = mutate_state(trace, j=2, rp_ovr=True)
        self.check_fails(bad, config, "topup-gating", at=2)

    def test_argmin_assignment(self, premium_run):
        config, _, trace = premium_run
        # j=1: both premium slices empty, the tie must go to slice 1
        assert trace.states[1].slices[0].en
        bad = mutate_slice(trace, j=1, slice_id=1, en=False)
        bad = mutate_slice(bad, j=1, slice_id=3, en=True)
        self.check_fails(bad, config, "argmin-assignment", at=1)

    def test_overuse_flag(self, small_run):
        config, _, trace = small_run
        bad = mutate_state(trace, j=5, rp_ovr=True)
        self.check_fails(bad, config, "overuse-flag", at=5)

    def test_nonnegativity(self, small_run):
        config, _, trace = small_run
        # slice 1 is empty at j=1 and m=2, so usg stays ceil(-1/2) = 0
        assert trace.states[1].slices[0].usr == 0
        bad = mutate_slice(trace, j=1, slice_id=1, usr=-1)
        assert check_all(bad, config).failing() == ["nonnegativity"]
        self.check_fails(bad, config, "nonnegativity", at=1)

    def check_row(self, trace, config, invariant, at, details):
        result = check_all(trace, config).results[invariant]
        assert (result.passed, result.first_violation_timestep,
                result.details) == (False, at, details)

    def test_argmin_assignment_rejects_two_entries(self, premium_run):
        config, _, trace = premium_run
        bad = mutate_slice(trace, j=1, slice_id=3, en=True)
        self.check_row(bad, config, "argmin-assignment", 1,
                       "service 1: several slices admitted a user at once "
                       "([1, 3])")

    def test_nonnegativity_of_partition_share(self, small_run):
        config, _, trace = small_run
        pt = trace.states[1].pt_shr
        bad = bump_pt_shr(trace, j=1, k=1, delta=-pt[0] - 1)
        self.check_row(bad, config, "nonnegativity", 1,
                       "partition 1: pt_shr -1 < 0")

    def test_nonnegativity_of_residual_share(self, small_run):
        config, _, trace = small_run
        bad = mutate_state(trace, j=1, rp_shr=-1)
        self.check_row(bad, config, "nonnegativity", 1, "rp_shr -1 < 0")

    def test_negative_residual_fails_only_the_rows_that_define_it(
            self, small_run):
        config, _, trace = small_run
        # shr = usg + resi still holds; usg no longer equals ceil(usr / m)
        st = trace.states[3].slices[2]
        bad = mutate_slice(trace, j=3, slice_id=3, resi=-1, usg=st.shr + 1)
        assert check_all(bad, config).failing() == [
            "slice-accounting", "nonnegativity"]

    def test_every_invariant_covered(self):
        names = {name[len("test_"):].replace("_", "-")
                 for name in dir(self) if name.startswith("test_")}
        assert set(ALL_INVARIANTS) <= names


class TestReportSerialization:
    def test_json_and_csv(self, small_run):
        config, _, trace = small_run
        report = check_all(trace, config)
        doc = json.loads(report.to_json())
        assert set(doc) == set(ALL_INVARIANTS)
        rows = list(csv.DictReader(io.StringIO(report.to_csv())))
        assert len(rows) == len(ALL_INVARIANTS)
        assert all(r["passed"] == "1" for r in rows)

    def test_failure_carries_timestep(self, small_run):
        config, _, trace = small_run
        bad = mutate_slice(trace, j=3, slice_id=1,
                           shr=trace.states[3].slices[0].shr + 1)
        doc = json.loads(check_all(bad, config).to_json())
        assert doc["conservation"]["first_violation_timestep"] == 3


class TestMetrics:
    def test_constant_trace_zero_actions(self):
        config = preset_config("3-2-4", horizon=5)
        trace = simulate(config, empty_scenario(config))
        metrics = compute_metrics(trace, config)
        assert metrics.topup_total == 0
        assert metrics.rampdown_total == 0

    def test_action_counts_match_share_deltas(self, small_run):
        config, _, trace = small_run
        metrics = compute_metrics(trace, config)
        tops = ramps = 0
        for prev, cur in zip(trace.states, trace.states[1:]):
            for idx in range(config.num_slices):
                delta = cur.slices[idx].shr - prev.slices[idx].shr
                cap = config.slices[idx].usage_cap
                if delta == cap:
                    tops += 1
                elif delta == -cap:
                    ramps += 1
        assert metrics.topup_total == tops
        assert metrics.rampdown_total == ramps

    def test_premium_share_series(self, saturating_run):
        config, _, trace = saturating_run
        metrics = compute_metrics(trace, config)
        # single premium slice: share 2 of 8, then 4, then 6 after top-ups
        assert metrics.premium_share_pct[0] == pytest.approx(25.0)
        assert metrics.premium_share_pct[2] == pytest.approx(50.0)
        assert metrics.premium_share_pct[4] == pytest.approx(75.0)

    def test_throughput_is_scaled_usage(self, small_run):
        config, _, trace = small_run
        metrics = compute_metrics(trace, config)
        for idx in range(config.num_slices):
            for j, st in enumerate(trace.states):
                assert metrics.throughput_offered[idx][j] == pytest.approx(
                    nominal_throughput(st.slices[idx].usg))

    def test_blocked_entries_counted(self, saturating_run):
        config, _, trace = saturating_run
        metrics = compute_metrics(trace, config)
        # arrivals keep coming at j=5..8 while the floor gate is closed
        assert metrics.blocked_entries == 4

    def test_residual_series(self, small_run):
        config, _, trace = small_run
        metrics = compute_metrics(trace, config)
        assert metrics.residual_share[0] == config.initial_residual
        assert all(0 <= f <= 1 for f in metrics.residual_fraction)

    def test_csv_shape(self, small_run):
        config, _, trace = small_run
        metrics = compute_metrics(trace, config)
        rows = list(csv.reader(io.StringIO(metrics.to_csv())))
        assert len(rows) == config.horizon + 2
        assert rows[0][:4] == ["j", "rp_shr", "rp_fraction",
                               "premium_share_pct"]

    def test_per_user_priority_ordering(self, small_run):
        # a premium user always commands at least as much offered throughput
        # as a normal user because its slice packs fewer users per PRB
        config, _, trace = small_run
        m_premium = min(sl.m for sl in config.slices
                        if sl.slice_id in config.premium_slice_ids)
        m_normal = max(sl.m for sl in config.slices)
        per_prb = nominal_throughput(1)
        assert per_prb / m_premium > per_prb / m_normal


class TestBaseline:
    def test_dominance_at_running_max(self, small_run):
        config, scenario, trace = small_run
        ours = compute_metrics(trace, config).premium_share_pct
        fraction = max(ours) / 100.0
        base = baseline_overprovision(config, scenario, fraction)
        theirs = compute_metrics(base, config).premium_share_pct
        assert all(b >= o for o, b in zip(ours, theirs))

    def test_exact_fraction_matches_initial_share(self):
        config = preset_config("3-2-4", horizon=4)   # below every window
        scenario = empty_scenario(config)
        caps = sum(config.slices[i - 1].usage_cap
                   for i in config.premium_slice_ids)
        base = baseline_overprovision(config, scenario,
                                      Fraction(caps, config.total_prbs))
        adaptive = simulate(config, scenario)
        ours = compute_metrics(adaptive, config).premium_share_pct
        theirs = compute_metrics(base, config).premium_share_pct
        assert ours == theirs

    def test_empty_scenario_constant(self):
        config = preset_config("3-2-4", horizon=8)
        base = baseline_overprovision(config, empty_scenario(config), 0.25)
        assert all(st.slices == base.states[0].slices
                   for st in base.states)

    def test_infeasible_fraction_rejected(self):
        config = preset_config("3-2-4")
        with pytest.raises(ConfigError):
            baseline_overprovision(config, empty_scenario(config), 0.01)

    def test_never_deallocates(self, small_run):
        config, scenario, _ = small_run
        base = baseline_overprovision(config, scenario, 0.3)
        for prev, cur in zip(base.states, base.states[1:]):
            for idx in range(config.num_slices):
                assert cur.slices[idx].shr == prev.slices[idx].shr

    def test_full_slice_drops_entries(self):
        # one slice, one PRB per user, static share of 2: the third user
        # cannot fit and is dropped
        config = single_slice_config(t_win=2, m=1, total_prbs=8, horizon=6)
        scenario = constant_arrivals(config, {1: True})
        base = baseline_overprovision(config, scenario,
                                      Fraction(2, config.total_prbs))
        final = base.states[-1].slices[0]
        assert final.usr == 2
        assert final.usg == 2
        assert final.resi == 0
