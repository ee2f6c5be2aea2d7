"""Bundled experiment topologies and their calibrated scenario intensities.

Four service/partition/slice layouts are provided, keyed "3-2-4", "3-3-7",
"5-3-10" and "5-4-13" after their (services, partitions, slices) shape.  Each
is defined once, as ``configs/config_<shape>.json`` inside this package, with
its arrival and departure intensities in the sibling
``config_<shape>.scenario.json``; the CLI reads the same files.

Per-service window and consumption parameters follow the priority ladder
(premium users get the most PRB per user, so the premium m is smallest) and
are sized so that every layout fits the budget rule at 100, 200 and 300
total PRBs except "5-4-13" at 100, whose initial shares plus the residual
floor overshoot the budget and which is therefore rejected at validation.
Arrival thresholds are calibrated so the 200-PRB batches keep the residual
partition above its floor at every step: lognormal thresholds were solved
from the density-exceedance identity for the target flag rates, poisson
thresholds pick out the pmf plateau around the mode, and a bernoulli flag
rate equals p directly.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .model import NetworkConfig
from .scenario import DistributionSpec, ScenarioSpec

PRESET_NAMES = ("3-2-4", "3-3-7", "5-3-10", "5-4-13")

_CONFIG_DIR = Path(__file__).with_name("configs")


def _preset_path(name: str) -> Path:
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return _CONFIG_DIR / f"config_{name.replace('-', '_')}.json"


def preset_config(name: str, total_prbs: int = 200,
                  horizon: int = 30) -> NetworkConfig:
    config = NetworkConfig.from_json(_preset_path(name).read_text())
    return replace(config, total_prbs=total_prbs, horizon=horizon)


def preset_scenario_spec(name: str) -> ScenarioSpec:
    return ScenarioSpec.from_json(
        _preset_path(name).with_suffix(".scenario.json").read_text())


def config_scenario_spec(config_path: str | Path,
                         config: NetworkConfig) -> ScenarioSpec:
    """The scenario spec of the config read from ``config_path``: its
    sibling ``<stem>.scenario.json`` if present, else the default rates."""
    sibling = Path(config_path).with_suffix(".scenario.json")
    if sibling.exists():
        return ScenarioSpec.from_json(sibling.read_text())
    return default_scenario_spec(config)


def default_scenario_spec(config: NetworkConfig) -> ScenarioSpec:
    """Generic fallback intensities for configs without a calibrated file:
    flag rates step down with priority rank, ties in service-id order."""
    rates = {}
    ranked = sorted(config.services, key=lambda s: s.priority_rank)
    for pos, svc in enumerate(ranked):
        rates[svc.service_id] = DistributionSpec(
            "bernoulli", {"p": max(0.10, 0.40 - 0.05 * pos)}, 0.5)
    return ScenarioSpec(per_service=rates, departure_rate=0.10)
