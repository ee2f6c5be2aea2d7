"""Bundled experiment topologies and their calibrated scenario intensities.

Four service/partition/slice layouts are provided, keyed "3-2-4", "3-3-7",
"5-3-10" and "5-4-13" after their (services, partitions, slices) shape.  The
same JSON documents live under configs/ at the repository root for CLI use;
test_presets locks the two representations together.

Per-service window and consumption parameters follow the priority ladder
(premium users get the most PRB per user, so the premium m is smallest) and
are sized so that every layout fits the budget rule at 100, 200 and 300
total PRBs except "5-4-13" at 100, whose initial shares plus the residual
floor overshoot the budget and which is therefore rejected at validation.
Arrival thresholds are calibrated so the 200-PRB batches keep the residual
partition above its floor at every step.
"""

from __future__ import annotations

from .model import NetworkConfig, ServiceSpec, SliceSpec
from .scenario import DistributionSpec, ScenarioSpec

PRESET_NAMES = ("3-2-4", "3-3-7", "5-3-10", "5-4-13")


def _services(rows: list[tuple[str, int]], slice_owners: list[int]) -> tuple:
    out = []
    for sid, (name, rank) in enumerate(rows, start=1):
        owned = slice_owners.count(sid)
        out.append(ServiceSpec(service_id=sid, name=name, priority_rank=rank,
                               provision=owned > 1))
    return tuple(out)


def _layout(name, rows, slice_defs, partitions, total_prbs, horizon):
    owners = [svc for svc, _, _, _ in slice_defs]
    slices = tuple(
        SliceSpec(slice_id=i, service_id=svc, partition_id=pk, t_win=w, m=m)
        for i, (svc, pk, w, m) in enumerate(slice_defs, start=1)
    )
    return NetworkConfig(
        services=_services(rows, owners),
        slices=slices,
        partitions={k: tuple(v) for k, v in partitions.items()},
        total_prbs=total_prbs,
        horizon=horizon,
        name=name,
    )


def config_3_2_4(total_prbs: int = 200, horizon: int = 30) -> NetworkConfig:
    """Two partitions of two slices: premium + normal, premium + FWA."""
    rows = [("eMBB-Premium", 1), ("eMBB-Normal", 3), ("FWA", 4)]
    slice_defs = [
        (1, 1, 6, 2),    # Pre1
        (2, 1, 8, 3),    # Norm1
        (1, 2, 6, 2),    # Pre2
        (3, 2, 10, 5),   # FWA1
    ]
    return _layout("3-2-4", rows, slice_defs, {1: [1, 2], 2: [3, 4]},
                   total_prbs, horizon)


def config_3_3_7(total_prbs: int = 200, horizon: int = 30) -> NetworkConfig:
    rows = [("eMBB-Premium", 1), ("eMBB-Normal", 3), ("FWA", 4)]
    slice_defs = [
        (1, 1, 6, 2),    # Pre1
        (2, 1, 8, 3),    # Norm1
        (1, 2, 6, 2),    # Pre2
        (2, 2, 8, 3),    # Norm2
        (3, 2, 10, 5),   # FWA1
        (1, 3, 6, 2),    # Pre3
        (3, 3, 10, 5),   # FWA2
    ]
    return _layout("3-3-7", rows, slice_defs,
                   {1: [1, 2], 2: [3, 4, 5], 3: [6, 7]}, total_prbs, horizon)


def config_5_3_10(total_prbs: int = 200, horizon: int = 30) -> NetworkConfig:
    rows = [("eMBB-Premium", 1), ("URLLC", 2), ("eMBB-Normal", 3),
            ("FWA", 4), ("mMTC", 5)]
    slice_defs = [
        (1, 1, 6, 2),     # Pre1
        (3, 1, 9, 3),     # Norm1
        (2, 1, 4, 2),     # URLLC1
        (1, 2, 6, 2),     # Pre2
        (3, 2, 9, 3),     # Norm2
        (4, 2, 10, 5),    # FWA1
        (5, 2, 12, 6),    # mMTC1
        (1, 3, 6, 2),     # Pre3
        (4, 3, 10, 5),    # FWA2
        (5, 3, 12, 6),    # mMTC2
    ]
    return _layout("5-3-10", rows, slice_defs,
                   {1: [1, 2, 3], 2: [4, 5, 6, 7], 3: [8, 9, 10]},
                   total_prbs, horizon)


def config_5_4_13(total_prbs: int = 200, horizon: int = 30) -> NetworkConfig:
    """Largest layout; its initial shares are deliberately heavy enough that
    a 100-PRB budget fails the feasibility rule."""
    rows = [("eMBB-Premium", 1), ("URLLC", 2), ("eMBB-Normal", 3),
            ("FWA", 4), ("mMTC", 5)]
    slice_defs = [
        (1, 1, 6, 2),     # Pre1
        (3, 1, 9, 3),     # Norm1
        (2, 1, 4, 2),     # URLLC1
        (1, 2, 6, 2),     # Pre2
        (3, 2, 9, 3),     # Norm2
        (4, 2, 32, 5),    # FWA1
        (1, 3, 6, 2),     # Pre3
        (3, 3, 9, 3),     # Norm3
        (5, 3, 40, 6),    # mMTC1
        (4, 3, 32, 5),    # FWA2
        (1, 4, 6, 2),     # Pre4
        (2, 4, 4, 2),     # URLLC2
        (5, 4, 40, 6),    # mMTC2
    ]
    return _layout("5-4-13", rows, slice_defs,
                   {1: [1, 2, 3], 2: [4, 5, 6], 3: [7, 8, 9, 10],
                    4: [11, 12, 13]}, total_prbs, horizon)


_BUILDERS = {
    "3-2-4": config_3_2_4,
    "3-3-7": config_3_3_7,
    "5-3-10": config_5_3_10,
    "5-4-13": config_5_4_13,
}

# Arrival thresholds per layout, keyed by service name.  Lognormal thresholds
# were solved from the density-exceedance identity for the target flag rates;
# poisson thresholds pick out the pmf plateau around the mode; bernoulli flag
# rate equals p directly.
_INTENSITIES = {
    "3-2-4": {
        "eMBB-Premium": DistributionSpec("lognormal", {"mu": 0.0, "sigma": 1.0},
                                         0.4229),
        "eMBB-Normal": DistributionSpec("lognormal", {"mu": 0.0, "sigma": 1.0},
                                        0.3790),
        "FWA": DistributionSpec("poisson", {"rate": 3.0}, 0.20),
    },
    "3-3-7": {
        "eMBB-Premium": DistributionSpec("lognormal", {"mu": 0.0, "sigma": 1.0},
                                         0.4642),
        "eMBB-Normal": DistributionSpec("lognormal", {"mu": 0.0, "sigma": 1.0},
                                        0.4229),
        "FWA": DistributionSpec("poisson", {"rate": 3.0}, 0.20),
    },
    "5-3-10": {
        "eMBB-Premium": DistributionSpec("lognormal", {"mu": 0.0, "sigma": 1.0},
                                         0.5039),
        "URLLC": DistributionSpec("bernoulli", {"p": 0.30}, 0.5),
        "eMBB-Normal": DistributionSpec("lognormal", {"mu": 0.0, "sigma": 1.0},
                                        0.5039),
        "FWA": DistributionSpec("poisson", {"rate": 6.0}, 0.15),
        "mMTC": DistributionSpec("poisson", {"rate": 12.0}, 0.11),
    },
    "5-4-13": {
        "eMBB-Premium": DistributionSpec("lognormal", {"mu": 0.0, "sigma": 1.0},
                                         0.5411),
        "URLLC": DistributionSpec("bernoulli", {"p": 0.25}, 0.5),
        "eMBB-Normal": DistributionSpec("lognormal", {"mu": 0.0, "sigma": 1.0},
                                        0.5411),
        "FWA": DistributionSpec("poisson", {"rate": 6.0}, 0.15),
        "mMTC": DistributionSpec("poisson", {"rate": 12.0}, 0.11),
    },
}

_DEPARTURE_RATES = {"3-2-4": 0.10, "3-3-7": 0.10, "5-3-10": 0.10,
                    "5-4-13": 0.08}


def preset_config(name: str, total_prbs: int = 200,
                  horizon: int = 30) -> NetworkConfig:
    try:
        return _BUILDERS[name](total_prbs=total_prbs, horizon=horizon)
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def preset_scenario_spec(name: str) -> ScenarioSpec:
    config = _BUILDERS[name]()
    by_name = _INTENSITIES[name]
    return ScenarioSpec(
        per_service={svc.service_id: by_name[svc.name]
                     for svc in config.services},
        departure_rate=_DEPARTURE_RATES[name],
    )


def default_scenario_spec(config: NetworkConfig) -> ScenarioSpec:
    """Generic fallback intensities for configs without a calibrated file:
    flag rates step down with priority rank, ties in service-id order."""
    rates = {}
    ranked = sorted(config.services, key=lambda s: s.priority_rank)
    for pos, svc in enumerate(ranked):
        rates[svc.service_id] = DistributionSpec(
            "bernoulli", {"p": max(0.10, 0.40 - 0.05 * pos)}, 0.5)
    return ScenarioSpec(per_service=rates, departure_rate=0.10)
