import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prbslice.cli import EXIT_OK, EXIT_VALIDATION, main
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

    @staticmethod
    def one_partition(n, t_win=4, m=2, total_prbs=10 ** 6, horizon=30):
        """One service whose n slices share one partition."""
        return NetworkConfig(
            services=(ServiceSpec(1, "svc", 1),),
            slices=tuple(SliceSpec(i, 1, 1, t_win, m) for i in range(1, n + 1)),
            partitions={1: tuple(range(1, n + 1))},
            total_prbs=total_prbs,
            horizon=horizon,
        )

    def test_large_partition_bound_is_exact(self):
        # 30 * (6*60 + 3**60 + 3**1 + 2*60), far past 2**63
        bound = constraint_count_bound(self.one_partition(60))
        assert bound == 30 * (3 ** 60 + 483)

    def test_large_partition_runs_differential(self, tmp_path):
        # 3**40 > 2**63: the bound is a ceiling, not a reason to refuse
        config = tmp_path / "config.json"
        config.write_text(self.one_partition(40, t_win=2, m=2,
                                             total_prbs=200,
                                             horizon=3).to_json())
        assert main(["run", "--config", str(config), "--seed", "1",
                     "--mode", "differential",
                     "--out", str(tmp_path / "out")]) == EXIT_OK


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

    def test_priority_consumption_ordering(self):
        cfg = two_premium_config()
        # premium (rank 1) must not have a larger m than normal (rank 2)
        slices = (replace(cfg.slices[0], m=5),) + cfg.slices[1:]
        with pytest.raises(ConfigError, match="priority ordering"):
            replace(cfg, slices=slices).validate()

    @pytest.mark.parametrize("field", ["t_win", "m"])
    def test_window_parameters_at_least_one(self, field):
        cfg = two_premium_config()
        slices = cfg.slices[:1] + (replace(cfg.slices[1], **{field: 0}),) \
            + cfg.slices[2:]
        with pytest.raises(ConfigError, match=r"slice 2: t_win and m must "
                           r"be >= 1, got \((6, 0|0, 3)\)") as exc:
            replace(cfg, slices=slices).validate()
        assert not isinstance(exc.value, BudgetError)

    def test_horizon_at_least_one(self):
        with pytest.raises(ConfigError, match="horizon must be >= 1") as exc:
            preset_config("3-2-4", horizon=0).validate()
        assert not isinstance(exc.value, BudgetError)

    def test_overuse_fraction_range(self):
        with pytest.raises(ConfigError):
            replace(single_slice_config(), overuse_fraction=Fraction(0)).validate()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["slices"][3].update(service_id=9),
         "slice 4 names unknown service 9"),
        (lambda doc: doc.update(total_prbs=0), "total_prbs must be >= 1"),
        (lambda doc: doc["partitions"]["2"].append(2),
         "slice 2 appears in partitions 1 and 2"),
        (lambda doc: doc["services"].append(
            {"service_id": 4, "name": "URLLC", "priority_rank": 2}),
         "service 4 owns no slice"),
    ], ids=["unknown-service", "no-prbs", "two-partitions", "no-slice"])
    def test_rule_rejects_edited_preset(self, tmp_path, capsys, edit,
                                        message):
        doc = json.loads(preset_config("3-2-4").to_json())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message) as exc:
            NetworkConfig.from_json(path.read_text()).validate()
        assert not isinstance(exc.value, BudgetError)
        assert main(["validate-config", "--config", str(path)]) == \
            EXIT_VALIDATION
        assert message in capsys.readouterr().err

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

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError):
            NetworkConfig.from_json("{not json")
        with pytest.raises(ConfigError):
            NetworkConfig.from_json('{"services": []}')
        # int() would read these as 199, 2, 1 and 2, Fraction() the next
        # two as 3602879701896397/36028797018963968 and 1, and str() the
        # names as "None" and "5"
        for edit in (lambda doc: doc.update(total_prbs=199.7),
                     lambda doc: doc["slices"][0].update(t_win=2.9),
                     lambda doc: doc.update(horizon=True),
                     lambda doc: doc["partitions"].update({"1": [1, 2.0]}),
                     lambda doc: doc.update(overuse_fraction=0.1),
                     lambda doc: doc.update(overuse_fraction=True),
                     lambda doc: doc.update(name=None),
                     lambda doc: doc["services"][0].update(name=5),
                     # int() would read these as 1, 2 and 10, and "02" as
                     # the key "2" it repeats
                     lambda doc: doc.update(partitions={
                         " 1": [1, 2], "2": [3, 4]}),
                     lambda doc: doc.update(partitions={
                         "1": [1, 2], "+2": [3, 4]}),
                     lambda doc: doc.update(partitions={"1_0": [1, 2]}),
                     lambda doc: doc["partitions"].update({"02": [3, 4]})):
            doc = json.loads(preset_config("3-2-4").to_json())
            edit(doc)
            with pytest.raises(ConfigError, match="malformed config document"):
                NetworkConfig.from_json(json.dumps(doc))
        # a fraction is a string or an integer
        for fraction, expected in (("1/2", Fraction(1, 2)), (1, Fraction(1))):
            doc = json.loads(preset_config("3-2-4").to_json())
            doc.update(overuse_fraction=fraction)
            assert (NetworkConfig.from_json(json.dumps(doc)).overuse_fraction
                    == expected)
