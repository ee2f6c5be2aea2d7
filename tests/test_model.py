import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prbslice.model import (
    BudgetError,
    ConfigError,
    NetworkConfig,
    ServiceSpec,
    SliceSpec,
    constraint_count_bound,
    max_window_usage,
    nominal_throughput,
)
from prbslice.presets import PRESET_NAMES, preset_config

from helpers import single_slice_config, two_premium_config


class TestMaxWindowUsage:
    @pytest.mark.parametrize("t_win, m, expected", [
        (28, 2, 14),
        (40, 3, 14),
        (1, 1, 1),
        (10, 3, 4),
        (12, 4, 3),
    ])
    def test_values(self, t_win, m, expected):
        assert max_window_usage(t_win, m) == expected

    @pytest.mark.parametrize("t_win, m", [(0, 1), (1, 0), (-3, 2), (2, -1)])
    def test_rejects_nonpositive(self, t_win, m):
        with pytest.raises(ValueError):
            max_window_usage(t_win, m)

    @given(st.integers(min_value=1, max_value=10 ** 6),
           st.integers(min_value=1, max_value=10 ** 6))
    def test_ceiling_characterization(self, t_win, m):
        cap = max_window_usage(t_win, m)
        assert cap * m >= t_win
        assert (cap - 1) * m < t_win


class TestThroughput:
    """Offered Mbps at the default operating point, which metrics report."""

    def test_unit_coefficient(self):
        assert nominal_throughput(1) == pytest.approx(4163.798, abs=1e-3)

    def test_zero(self):
        assert nominal_throughput(0) == 0

    def test_fourteen_prbs(self):
        assert nominal_throughput(14) == pytest.approx(58293.172, abs=0.02)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            nominal_throughput(-1)

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_linearity(self, a, b):
        assert nominal_throughput(a + b) == pytest.approx(
            nominal_throughput(a) + nominal_throughput(b), rel=1e-12)


class TestNominalThroughput:
    def test_default_coefficient(self):
        assert nominal_throughput(1) == pytest.approx(4163.798, abs=1e-3)

    def test_zero_usage(self):
        assert nominal_throughput(0) == 0


class TestConstraintCountBound:
    def test_3_2_4(self):
        # r=(2,2), n=(2,1,1): 30 * (24 + 18 + 9 + 8)
        assert constraint_count_bound(preset_config("3-2-4")) == 1770

    def test_3_3_7(self):
        # r=(2,3,2), n=(3,2,2): 30 * (42 + 45 + 27 + 14)
        assert constraint_count_bound(preset_config("3-3-7")) == 3840

    def test_zero_horizon(self):
        cfg = preset_config("3-2-4", horizon=0)
        assert constraint_count_bound(cfg) == 0

    def test_overflow_reported(self):
        huge = NetworkConfig(
            services=(ServiceSpec(1, "svc", 1, provision=True),),
            slices=tuple(SliceSpec(i, 1, 1, 4, 2) for i in range(1, 61)),
            partitions={1: tuple(range(1, 61))},
            total_prbs=10 ** 6,
            horizon=30,
        )
        with pytest.raises(OverflowError):
            constraint_count_bound(huge)


class TestConfigValidation:
    def test_presets_validate(self):
        for name in ("3-2-4", "3-3-7", "5-3-10", "5-4-13"):
            preset_config(name).validate()

    def test_budget_rule_rejects(self):
        with pytest.raises(BudgetError, match="budget infeasible"):
            preset_config("5-4-13", total_prbs=100).validate()

    def test_budget_rule_boundary(self):
        # cap 2 + floor ceil(T_P/2): fits exactly at 4 PRBs, fails at 3
        single_slice_config(total_prbs=4).validate()
        with pytest.raises(ConfigError):
            single_slice_config(total_prbs=3).validate()

    def test_duplicate_slice_ids(self):
        cfg = single_slice_config()
        bad = replace(cfg, slices=(cfg.slices[0], cfg.slices[0]))
        with pytest.raises(ConfigError):
            bad.validate()

    def test_partition_membership_mismatch(self):
        cfg = two_premium_config()
        bad = replace(cfg, partitions={1: (1, 2, 3), 2: ()})
        with pytest.raises(ConfigError):
            bad.validate()

    def test_slice_in_no_partition(self):
        cfg = two_premium_config()
        bad = replace(cfg, partitions={1: (1, 2), 2: ()})
        with pytest.raises(ConfigError, match="no partition"):
            bad.validate()

    def test_provision_flag_consistency(self):
        cfg = two_premium_config()
        services = (replace(cfg.services[0], provision=False),) + cfg.services[1:]
        with pytest.raises(ConfigError, match="provision"):
            replace(cfg, services=services).validate()

    def test_priority_consumption_ordering(self):
        cfg = two_premium_config()
        # premium (rank 1) must not have a larger m than normal (rank 2)
        slices = (replace(cfg.slices[0], m=5),) + cfg.slices[1:]
        with pytest.raises(ConfigError, match="priority ordering"):
            replace(cfg, slices=slices).validate()

    def test_horizon_at_least_one(self):
        with pytest.raises(ConfigError, match="horizon must be >= 1") as exc:
            preset_config("3-2-4", horizon=0).validate()
        assert not isinstance(exc.value, BudgetError)

    def test_overuse_fraction_range(self):
        with pytest.raises(ConfigError):
            replace(single_slice_config(), overuse_fraction=Fraction(0)).validate()

    def test_overuse_floor_rounds_up(self):
        cfg = replace(single_slice_config(total_prbs=8),
                      overuse_fraction=Fraction(1, 3))
        assert cfg.overuse_floor == math.ceil(8 / 3)


class TestIdOrder:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_reversed_listing_equals_preset(self, name):
        cfg = preset_config(name)
        rev = replace(cfg, services=cfg.services[::-1],
                      slices=cfg.slices[::-1],
                      partitions={k: v[::-1] for k, v
                                  in reversed(cfg.partitions.items())})
        assert rev == cfg
        assert rev.to_json() == cfg.to_json()
        for i in range(1, rev.num_slices + 1):
            assert rev.slices[i - 1].slice_id == i
        for mu in range(1, rev.num_services + 1):
            assert rev.services[mu - 1].service_id == mu
        # dict equality ignores key order, so check it directly
        assert list(rev.partitions) == list(range(1, rev.num_partitions + 1))
        for members in rev.partitions.values():
            assert list(members) == sorted(members)


class TestConfigJson:
    def test_round_trip(self):
        for name in ("3-2-4", "5-4-13"):
            cfg = preset_config(name)
            again = NetworkConfig.from_json(cfg.to_json())
            assert again == cfg

    def test_provision_derived_when_absent(self):
        cfg = preset_config("3-2-4")
        doc = cfg.to_json().replace('"provision": true,', '')
        again = NetworkConfig.from_json(doc)
        assert again.services[0].provision is True

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError):
            NetworkConfig.from_json("{not json")
        with pytest.raises(ConfigError):
            NetworkConfig.from_json('{"services": []}')
