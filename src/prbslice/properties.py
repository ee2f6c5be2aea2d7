"""Trace invariant checks, experiment metrics, and the static baseline.

check_all() evaluates each named invariant independently over a finished
trace and reports the first violating timestep with the offending values, so
a deliberately corrupted trace pinpoints exactly which property it breaks.
compute_metrics() derives the experiment quantities (residual-share series,
action counts, offered throughput, premium share) from a trace.
baseline_overprovision() is the comparison strawman: a fixed premium
over-allocation decided at j=0 and never adjusted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import ConfigError, NetworkConfig, nominal_throughput
from .oracle import (
    AllocationTrace, SimulationError, SliceState, SystemState, assign_users,
    check_timesteps, conservation, partition_consistency, signal_exclusion,
    slice_accounting, step_usage_residual, step_user_count,
    step_window_entries,
)

# The ten trace invariants of the forward semantics, in reporting order.
ORACLE_INVARIANTS = (
    "conservation",
    "partition-consistency",
    "slice-accounting",
    "share-immobility",
    "share-quantization",
    "signal-exclusion",
    "fairness",
    "optimality-band",
    "topup-gating",
    "argmin-assignment",
)

# check_all additionally tracks the overuse flag against the residual floor.
ALL_INVARIANTS = ORACLE_INVARIANTS + ("overuse-flag",)


@dataclass(frozen=True)
class InvariantResult:
    passed: bool
    first_violation_timestep: Optional[int] = None
    details: str = ""


@dataclass(frozen=True)
class PropertyReport:
    results: dict[str, InvariantResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def failing(self) -> list[str]:
        return [name for name, r in self.results.items() if not r.passed]

    def to_json(self) -> str:
        return json.dumps(
            {
                name: {
                    "passed": r.passed,
                    "first_violation_timestep": r.first_violation_timestep,
                    "details": r.details,
                }
                for name, r in self.results.items()
            },
            indent=2,
        )

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["invariant", "passed", "first_violation_timestep",
                         "details"])
        for name, r in self.results.items():
            writer.writerow([name, int(r.passed),
                             "" if r.first_violation_timestep is None
                             else r.first_violation_timestep,
                             r.details])
        return out.getvalue()


def _mid_residual(sl: SliceState, cap: int) -> int:
    """Residual right after the user-event update, before any share move."""
    return sl.resi - (cap if sl.top else 0) + (cap if sl.ramp else 0)


def check_all(trace: AllocationTrace, config: NetworkConfig) -> PropertyReport:
    """Evaluate every invariant over the complete trace; a trace whose
    states are not j = 0..horizon in order raises ValueError."""
    check_timesteps(trace.states, config.horizon)
    caps = [sl.usage_cap for sl in config.slices]
    wins = [sl.t_win for sl in config.slices]
    ms = [sl.m for sl in config.slices]
    floor = config.overuse_floor
    states = trace.states
    steps = list(zip(states, states[1:]))       # (previous, current) pairs
    results: dict[str, InvariantResult] = {}

    def scan_pairs(name, fn, pairs):
        """Record the first (previous, current) pair that fn flags."""
        results[name] = InvariantResult(passed=True)
        for prev, cur in pairs:
            msg = fn(prev, cur)
            if msg:
                results[name] = InvariantResult(
                    passed=False, first_violation_timestep=cur.j, details=msg)
                return

    def scan(name, fn, *args):
        scan_pairs(name, lambda _, st: fn(st, *args),
                   [(None, st) for st in states])

    def share_immobility(prev: SystemState, cur: SystemState):
        for idx in range(len(cur.slices)):
            if cur.j % wins[idx] != 0:
                if cur.slices[idx].shr != prev.slices[idx].shr:
                    return (f"slice {idx + 1}: share moved mid-window "
                            f"({prev.slices[idx].shr} -> {cur.slices[idx].shr})")

    def share_quantization(prev: SystemState, cur: SystemState):
        for idx in range(len(cur.slices)):
            delta = cur.slices[idx].shr - prev.slices[idx].shr
            if delta not in (0, caps[idx], -caps[idx]):
                return (f"slice {idx + 1}: share moved by {delta}, "
                        f"cap is {caps[idx]}")

    def fairness(prev: Optional[SystemState], cur: SystemState):
        for idx, sl in enumerate(cur.slices):
            if sl.resi < 0:
                return f"slice {idx + 1}: negative residual {sl.resi}"
            if prev is not None and cur.j % wins[idx] == 0 and not cur.rp_ovr:
                mid = _mid_residual(sl, caps[idx])
                if mid <= caps[idx]:
                    grew = sl.shr - prev.slices[idx].shr
                    if not sl.top or grew != caps[idx]:
                        return (f"slice {idx + 1}: top-up due (mid residual "
                                f"{mid} <= cap {caps[idx]}) but share moved "
                                f"by {grew}")

    def optimality_band(st: SystemState):
        for idx, sl in enumerate(st.slices):
            if sl.ramp:
                if not caps[idx] <= sl.resi < 2 * caps[idx]:
                    return (f"slice {idx + 1}: residual {sl.resi} outside "
                            f"[{caps[idx]}, {2 * caps[idx]}) after ramp-down")

    def topup_gating(st: SystemState):
        for idx, sl in enumerate(st.slices):
            if sl.top and st.rp_ovr:
                return f"slice {idx + 1}: top-up while residual overused"

    def argmin_assignment(prev: SystemState, cur: SystemState):
        for svc in config.services:
            owned = config.service_slices(svc.service_id)
            entered = [sl.slice_id for sl in owned
                       if cur.slices[sl.slice_id - 1].en]
            if len(entered) > 1:
                return (f"service {svc.service_id}: several slices admitted "
                        f"a user at once ({entered})")
            if len(owned) > 1 and entered:
                c = entered[0]
                c_usr = prev.slices[c - 1].usr
                for sl in owned:
                    s = sl.slice_id
                    if s == c:
                        continue
                    s_usr = prev.slices[s - 1].usr
                    if s_usr < c_usr or (s_usr == c_usr and s < c):
                        return (f"service {svc.service_id}: admitted into "
                                f"slice {c} (usr {c_usr}) over slice {s} "
                                f"(usr {s_usr})")

    def overuse_flag(prev: SystemState, cur: SystemState):
        expected = prev.rp_shr < floor
        if cur.rp_ovr != expected:
            return (f"rp_ovr {cur.rp_ovr} but previous residual share "
                    f"{prev.rp_shr} vs floor {floor}")

    scan("conservation", conservation, config.total_prbs)
    scan("partition-consistency", partition_consistency, config.partitions)
    scan("slice-accounting", slice_accounting, ms)
    scan_pairs("share-immobility", share_immobility, steps)
    scan_pairs("share-quantization", share_quantization, steps)
    scan("signal-exclusion", signal_exclusion)
    # fairness also covers state 0, which has no previous state
    scan_pairs("fairness", fairness, [(None, st) for st in states[:1]] + steps)
    scan("optimality-band", optimality_band)
    scan("topup-gating", topup_gating)
    scan_pairs("argmin-assignment", argmin_assignment, steps)
    scan_pairs("overuse-flag", overuse_flag, steps)

    ordered = {name: results[name] for name in ALL_INVARIANTS}
    return PropertyReport(results=ordered)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsBundle:
    residual_share: tuple[int, ...]            # rp_shr per j
    residual_fraction: tuple[float, ...]       # rp_shr / total_prbs per j
    topup_count: dict[int, int]                # per slice id
    rampdown_count: dict[int, int]
    topup_total: int
    rampdown_total: int
    throughput_offered: tuple[tuple[float, ...], ...]   # [slice][j] Mbps
    premium_share_pct: tuple[float, ...]       # per j
    blocked_entries: int

    def to_json(self) -> str:
        return json.dumps({
            "residual_share": list(self.residual_share),
            "residual_fraction": list(self.residual_fraction),
            "topup_count": {str(k): v for k, v in self.topup_count.items()},
            "rampdown_count": {str(k): v
                               for k, v in self.rampdown_count.items()},
            "topup_total": self.topup_total,
            "rampdown_total": self.rampdown_total,
            "throughput_offered": [list(row)
                                   for row in self.throughput_offered],
            "premium_share_pct": list(self.premium_share_pct),
            "blocked_entries": self.blocked_entries,
        }, indent=2)

    def to_csv(self) -> str:
        """Per-timestep table; per-slice throughput appears as thr_<i>."""
        out = io.StringIO()
        writer = csv.writer(out)
        n = len(self.throughput_offered)
        writer.writerow(["j", "rp_shr", "rp_fraction", "premium_share_pct"]
                        + [f"thr_{i + 1}" for i in range(n)])
        for j in range(len(self.residual_share)):
            writer.writerow(
                [j, self.residual_share[j],
                 f"{self.residual_fraction[j]:.6f}",
                 f"{self.premium_share_pct[j]:.6f}"]
                + [f"{self.throughput_offered[i][j]:.3f}" for i in range(n)])
        return out.getvalue()


def compute_metrics(trace: AllocationTrace,
                    config: NetworkConfig) -> MetricsBundle:
    states = trace.states
    caps = [sl.usage_cap for sl in config.slices]
    premium = set(config.premium_slice_ids)
    per_prb = nominal_throughput(1)

    tops = {i: 0 for i in range(1, config.num_slices + 1)}
    ramps = {i: 0 for i in range(1, config.num_slices + 1)}
    for prev, cur in zip(states, states[1:]):
        for idx in range(config.num_slices):
            delta = cur.slices[idx].shr - prev.slices[idx].shr
            if delta == caps[idx]:
                tops[idx + 1] += 1
            elif delta == -caps[idx]:
                ramps[idx + 1] += 1

    blocked = 0
    if trace.scenario is not None:
        for j in range(1, len(states)):
            if states[j].rp_ovr:
                blocked += sum(
                    1 for row in trace.scenario.arrivals if row[j - 1])

    return MetricsBundle(
        residual_share=tuple(st.rp_shr for st in states),
        residual_fraction=tuple(st.rp_shr / config.total_prbs
                                for st in states),
        topup_count=tops,
        rampdown_count=ramps,
        topup_total=sum(tops.values()),
        rampdown_total=sum(ramps.values()),
        throughput_offered=tuple(
            tuple(per_prb * st.slices[idx].usg for st in states)
            for idx in range(config.num_slices)
        ),
        premium_share_pct=tuple(
            100.0 * sum(sl.shr for i, sl in enumerate(st.slices, start=1)
                        if i in premium) / config.total_prbs
            for st in states
        ),
        blocked_entries=blocked,
    )


# ---------------------------------------------------------------------------
# static over-provisioning baseline
# ---------------------------------------------------------------------------

def baseline_overprovision(
    config: NetworkConfig,
    scenario,
    premium_share_fraction: Fraction | float,
) -> AllocationTrace:
    """Replay the user dynamics under a never-adjusted allocation.

    Premium slices split ceil(fraction * total_prbs) PRBs at j=0 (evenly,
    remainder to the lowest slice ids); every other slice keeps its usage
    cap.  No signals, no share moves, no residual-overuse gating: an entry
    that would need a PRB from a full slice is dropped, and a departure flag
    hitting an empty slice is ignored (admissibility is defined against the
    adaptive run, not this one).
    """
    config.validate()
    scenario.check_dimensions(config)
    if not math.isfinite(premium_share_fraction):
        raise ConfigError(
            f"premium fraction must be finite, got {premium_share_fraction}")
    frac = Fraction(premium_share_fraction).limit_denominator(10 ** 9)
    premium_ids = config.premium_slice_ids
    caps = [sl.usage_cap for sl in config.slices]
    need = sum(caps[i - 1] for i in premium_ids)
    if frac * config.total_prbs < need:
        raise ConfigError(
            f"premium fraction {frac} grants fewer PRBs than the premium "
            f"slices' combined cap {need}"
        )
    premium_total = math.ceil(frac * config.total_prbs)
    shares = list(caps)
    base, rem = divmod(premium_total, len(premium_ids))
    for pos, i in enumerate(premium_ids):
        shares[i - 1] = base + (1 if pos < rem else 0)
    if any(shares[i - 1] < caps[i - 1] for i in premium_ids):
        raise ConfigError(
            "premium fraction too small to give every premium slice its cap")
    rp = config.total_prbs - sum(shares)
    if rp < 0:
        raise ConfigError(
            f"baseline allocation exceeds the budget by {-rp} PRBs")

    ms = [sl.m for sl in config.slices]
    wins = [sl.t_win for sl in config.slices]
    n = config.num_slices
    pt = tuple(sum(shares[i - 1] for i in members)
               for members in config.partitions.values())

    def make_state(j, usr, usg, entries, en, lv):
        slices = tuple(
            SliceState(
                usr=usr[i], shr=shares[i], usg=usg[i],
                resi=shares[i] - usg[i], entries=entries[i],
                en=en[i], lv=lv[i], top=False, ramp=False,
            )
            for i in range(n)
        )
        return SystemState(j=j, slices=slices, pt_shr=pt, rp_shr=rp,
                           rp_ovr=False)

    usr = [0] * n
    usg = [0] * n
    entries = [0] * n
    states = [make_state(0, usr, usg, entries, [False] * n, [False] * n)]
    for j in range(1, config.horizon + 1):
        arrivals = [row[j - 1] for row in scenario.arrivals]
        en = assign_users(config, usr, arrivals, rp_ovr=False)
        lv = [bool(row[j - 1]) and usr[idx] >= 1
              for idx, row in enumerate(scenario.departures)]
        for idx in range(n):
            usr_now = step_user_count(usr[idx], en[idx], lv[idx])
            try:
                usg[idx], _ = step_usage_residual(
                    usg[idx], shares[idx] - usg[idx], usr_now, en[idx],
                    lv[idx], ms[idx])
            except SimulationError:      # slice is full, entry dropped
                en[idx] = False
                continue
            usr[idx] = usr_now
        entries = [step_window_entries(entries[idx], en[idx], j, wins[idx])
                   for idx in range(n)]
        states.append(make_state(j, usr, usg, entries, en, lv))
    return AllocationTrace(config=config, scenario=scenario,
                           states=tuple(states))
