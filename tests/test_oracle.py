from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from prbslice.cli import run_pipeline
from prbslice.oracle import (
    ForwardSimulator,
    SimulationError,
    TRACE_CSV_COLUMNS,
    assign_users,
    diff_traces,
    eval_signals,
    partition_adjust,
    residual_adjust,
    simulate,
    step_usage_residual,
    step_user_count,
    step_window_entries,
)
from prbslice.presets import preset_config, preset_scenario_spec
from prbslice.scenario import ScenarioTrace

from helpers import (
    constant_arrivals,
    empty_scenario,
    single_slice_config,
    two_premium_config,
)


class TestStepUserCount:
    def test_enter(self):
        assert step_user_count(5, True, False) == 6

    def test_enter_and_leave(self):
        assert step_user_count(5, True, True) == 5

    def test_idle(self):
        assert step_user_count(5, False, False) == 5

    def test_leave(self):
        assert step_user_count(5, False, True) == 4

    def test_underflow_rejected(self):
        with pytest.raises(SimulationError):
            step_user_count(0, False, True)
        with pytest.raises(SimulationError):
            step_user_count(0, True, True)


class TestStepWindowEntries:
    def test_reset_with_entry(self):
        assert step_window_entries(7, True, j=9, t_win=4) == 1

    def test_reset_without_entry(self):
        assert step_window_entries(7, False, j=9, t_win=4) == 0

    def test_accumulate(self):
        assert step_window_entries(7, True, j=10, t_win=4) == 8

    def test_window_of_one_resets_every_step(self):
        assert step_window_entries(3, True, j=5, t_win=1) == 1
        assert step_window_entries(3, False, j=6, t_win=1) == 0


class TestStepUsageResidual:
    def test_fourth_user_consumes_prb(self):
        # m=3: users 1, 4, 7, ... each open a new PRB
        assert step_usage_residual(1, 2, usr_now=4, en=True, lv=False,
                                   m=3) == (2, 1)

    def test_drop_to_multiple_frees_prb(self):
        assert step_usage_residual(2, 1, usr_now=3, en=False, lv=True,
                                   m=3) == (1, 2)

    def test_swap_is_neutral(self):
        assert step_usage_residual(2, 1, usr_now=4, en=True, lv=True,
                                   m=3) == (2, 1)

    def test_mid_prb_movement_is_neutral(self):
        assert step_usage_residual(2, 1, usr_now=5, en=True, lv=False,
                                   m=3) == (2, 1)

    def test_increment_without_residual_reported(self):
        with pytest.raises(SimulationError, match="fairness"):
            step_usage_residual(2, 0, usr_now=4, en=True, lv=False, m=3)


class TestEvalSignals:
    def test_topup_at_cap(self):
        assert eval_signals(resi_mid=14, entries=3, j=28, t_win=28,
                            usage_cap=14, rp_ovr=False) == (True, False)

    def test_rampdown_at_twice_cap(self):
        assert eval_signals(resi_mid=28, entries=0, j=28, t_win=28,
                            usage_cap=14, rp_ovr=False) == (False, True)

    def test_mid_window_silent(self):
        assert eval_signals(resi_mid=0, entries=0, j=27, t_win=28,
                            usage_cap=14, rp_ovr=False) == (False, False)

    def test_overuse_gates_topup(self):
        assert eval_signals(resi_mid=0, entries=1, j=28, t_win=28,
                            usage_cap=14, rp_ovr=True) == (False, False)

    def test_rampdown_needs_empty_window(self):
        assert eval_signals(resi_mid=28, entries=1, j=28, t_win=28,
                            usage_cap=14, rp_ovr=False) == (False, False)

    @given(st.integers(min_value=0, max_value=200),
           st.integers(min_value=0, max_value=50),
           st.integers(min_value=1, max_value=20),
           st.booleans())
    def test_never_both(self, resi_mid, entries, cap, ovr):
        top, ramp = eval_signals(resi_mid, entries, j=8, t_win=4,
                                 usage_cap=cap, rp_ovr=ovr)
        assert not (top and ramp)


class TestAssignUsers:
    def test_argmin_selected(self):
        config = two_premium_config()
        en = assign_users(config, prev_usr=[3, 0, 5],
                          arrivals=[True, False], rp_ovr=False)
        assert en == [True, False, False]

    def test_tie_breaks_to_lowest_id(self):
        config = two_premium_config()
        en = assign_users(config, prev_usr=[4, 0, 4],
                          arrivals=[True, False], rp_ovr=False)
        assert en == [True, False, False]

    def test_single_slice_service_direct(self):
        config = two_premium_config()
        en = assign_users(config, prev_usr=[0, 0, 0],
                          arrivals=[False, True], rp_ovr=False)
        assert en == [False, True, False]

    def test_overuse_blocks_everyone(self):
        config = two_premium_config()
        en = assign_users(config, prev_usr=[0, 0, 0],
                          arrivals=[True, True], rp_ovr=True)
        assert en == [False, False, False]


class TestPartitionAdjust:
    def test_topup_ten_rampdown_fifteen_nets_minus_five(self):
        caps = [10, 15]
        updated, pt = partition_adjust(
            caps, member_ids=[1, 2], top=[True, False], ramp=[False, True],
            shr_prev=[20, 40], resi_mid=[5, 35], pt_prev=60)
        assert pt == 60 - 5
        assert updated[1] == (30, 15)
        assert updated[2] == (25, 20)

    def test_both_topup_adds_both_caps(self):
        caps = [14, 14]
        updated, pt = partition_adjust(
            caps, [1, 2], top=[True, True], ramp=[False, False],
            shr_prev=[14, 14], resi_mid=[3, 7], pt_prev=28)
        assert pt == 28 + 28
        assert updated[1] == (28, 17)
        assert updated[2] == (28, 21)

    def test_equal_caps_wash(self):
        caps = [6, 6]
        _, pt = partition_adjust(
            caps, [1, 2], top=[True, False], ramp=[False, True],
            shr_prev=[6, 18], resi_mid=[2, 14], pt_prev=24)
        assert pt == 24

    def test_negative_residual_asserted(self):
        with pytest.raises(SimulationError, match="negative"):
            partition_adjust([5], [1], top=[False], ramp=[True],
                             shr_prev=[10], resi_mid=[3], pt_prev=10)


class TestResidualAdjust:
    def test_partition_swap_with_shortfall(self):
        # one partition frees 5 while another grows by 8: residual covers 3
        assert residual_adjust([30, 40], [38, 35], rp_prev=50) == 47

    def test_wash(self):
        assert residual_adjust([30, 40], [35, 35], rp_prev=50) == 50

    def test_pure_rampdown_returns_prbs(self):
        assert residual_adjust([30, 40], [30, 26], rp_prev=50) == 64


class TestSimulate:
    def test_empty_scenario_constant_before_first_boundary(self):
        config = preset_config("3-2-4", horizon=5)   # windows are 6, 8, 10
        trace = simulate(config, empty_scenario(config))
        assert all(st.slices == trace.states[0].slices
                   for st in trace.states)
        assert all(st.rp_shr == trace.states[0].rp_shr
                   for st in trace.states)

    def test_empty_scenario_first_boundary_tops_up(self):
        # with the initial share equal to one window cap, the top-up rule
        # fires at the first boundary even with nobody around, then the
        # surplus is ramped back down one boundary later
        config = single_slice_config(t_win=2, m=1, total_prbs=20, horizon=4)
        trace = simulate(config, empty_scenario(config))
        assert trace.states[2].slices[0].top
        assert trace.states[2].slices[0].shr == 4
        assert trace.states[4].slices[0].ramp
        assert trace.states[4].slices[0].shr == 2

    def test_saturating_single_slice_hand_fixture(self):
        # arrival every step; hand-executed: top-ups at j=2 and j=4 push the
        # residual partition to its floor, after which entries are blocked
        config = single_slice_config(t_win=2, m=1, total_prbs=8, horizon=8)
        scenario = constant_arrivals(config, {1: True})
        trace = simulate(config, scenario)
        got = [
            (st.j, st.slices[0].usr, st.slices[0].usg, st.slices[0].resi,
             st.slices[0].shr, st.slices[0].entries, st.slices[0].en,
             st.slices[0].top, st.rp_shr, st.rp_ovr)
            for st in trace.states
        ]
        expected = [
            (0, 0, 0, 2, 2, 0, False, False, 6, False),
            (1, 1, 1, 1, 2, 1, True, False, 6, False),
            (2, 2, 2, 2, 4, 2, True, True, 4, False),
            (3, 3, 3, 1, 4, 1, True, False, 4, False),
            (4, 4, 4, 2, 6, 2, True, True, 2, False),
            (5, 4, 4, 2, 6, 0, False, False, 2, True),
            (6, 4, 4, 2, 6, 0, False, False, 2, True),
            (7, 4, 4, 2, 6, 0, False, False, 2, True),
            (8, 4, 4, 2, 6, 0, False, False, 2, True),
        ]
        assert got == expected

    def test_departure_on_empty_slice_rejected(self):
        config = single_slice_config(horizon=2)
        bad = ScenarioTrace(seed=0, arrivals=((False, False),),
                            departures=((True, False),))
        with pytest.raises(SimulationError, match="empty slice"):
            simulate(config, bad)

    def test_state_rule_fault_is_a_property_failure(self, monkeypatch):
        # a residual that absorbs one PRB too many breaks conservation; the
        # simulator steps on and check_all names the rule
        monkeypatch.setattr("prbslice.oracle.residual_adjust",
                            lambda pt_prev, pt_now, rp_prev: rp_prev + 1)
        config = single_slice_config(horizon=2)
        out = run_pipeline(config, empty_scenario(config), "oracle", None, 1)
        assert out.status == "property"
        assert out.report.failing()[0] == "conservation"
        result = out.report.results["conservation"]
        assert result.first_violation_timestep == 1
        assert result.details == "sum of shares 9 != total_prbs 8"

    def test_initial_state_shape(self, small_run):
        config, _, trace = small_run
        st0 = trace.states[0]
        assert st0.j == 0
        for idx, sl in enumerate(st0.slices):
            cap = config.slices[idx].usage_cap
            assert (sl.usr, sl.usg, sl.shr, sl.resi) == (0, 0, cap, cap)
        assert st0.rp_shr == config.initial_residual
        assert not st0.rp_ovr

    def test_share_moves_only_at_boundaries(self, small_run):
        config, _, trace = small_run
        for prev, cur in zip(trace.states, trace.states[1:]):
            for idx in range(config.num_slices):
                if cur.j % config.slices[idx].t_win != 0:
                    assert cur.slices[idx].shr == prev.slices[idx].shr


class TestTraceSerialization:
    def test_csv_header_stable(self, small_run):
        _, _, trace = small_run
        header = trace.to_csv().splitlines()[0]
        assert header == ",".join(TRACE_CSV_COLUMNS)

    def test_diff_reports_cells(self, small_run):
        config, _, trace = small_run
        from helpers import mutate_slice
        other = mutate_slice(trace, j=3, slice_id=2, usr=99)
        diffs = diff_traces(trace, other)
        assert len(diffs) == 1
        assert "j=3" in diffs[0] and "slice=2" in diffs[0]

    def test_diff_reports_length_partition_and_residual(self, small_run):
        _, _, trace = small_run
        from helpers import bump_pt_shr, mutate_state
        shorter = replace(trace, states=trace.states[:-1])
        assert diff_traces(trace, shorter) == [
            "trace lengths differ: 31 vs 30"]
        assert diff_traces(trace, bump_pt_shr(trace, j=4, k=2, delta=-1)) \
            == ["j=4 pt_shr: (6, 5) != (6, 4)"]
        assert diff_traces(trace, mutate_state(trace, j=5, rp_ovr=True)) \
            == ["j=5 residual: (189, False) != (189, True)"]


class TestStepperDeterminism:
    def test_same_inputs_same_trace(self):
        config = preset_config("3-3-7")
        scenario = preset_scenario_spec("3-3-7").generate(config, 17)
        assert simulate(config, scenario) == simulate(config, scenario)

    def test_stepper_matches_simulate(self):
        config = preset_config("3-2-4", horizon=10)
        scenario = preset_scenario_spec("3-2-4").generate(config, 5)
        sim = ForwardSimulator(config)
        state = sim.initial_state()
        for j in range(1, config.horizon + 1):
            state = sim.step(state,
                             [row[j - 1] for row in scenario.arrivals],
                             [row[j - 1] for row in scenario.departures])
        assert state == simulate(config, scenario).states[-1]
