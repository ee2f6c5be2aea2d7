"""Deterministic forward execution of the three-layer allocation semantics.

One step runs a fixed pipeline:

1. the residual-overuse flag is computed from the previous residual share;
2. arrivals are assigned to slices (blocked entirely while overused; services
   with several slices send the user to the slice with the fewest users,
   lowest slice id on ties);
3. per-slice user counts, window entry counters, and usage/residual are
   updated from the entry/exit flags, yielding an intermediate residual;
4. top-up and ramp-down signals are evaluated on that intermediate residual
   at each slice's window boundary;
5. partitions apply the signalled share adjustments (one usage cap per
   signal) and net them against each other;
6. the residual partition absorbs the net partition deltas.

The trace this produces is the ground truth that the SMT-decoded trace is
compared against, state for state, in memory.  A trace has one text form,
the CSV of ``AllocationTrace.to_csv``; no code reads a trace back.  The
simulator only rejects inputs its semantics cannot step; the trace
invariants are checked by ``properties.check_all`` alone.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

from .model import NetworkConfig


class SimulationError(RuntimeError):
    """The scenario asked for a step the semantics cannot take: a departure
    from an empty slice, a usage increment with residual 0, or a ramp-down
    or residual share driven below zero.  The message carries the timestep
    and the offending values."""


@dataclass(frozen=True)
class SliceState:
    """Per-slice variables at one timestep."""

    usr: int        # users present
    shr: int        # PRBs allocated
    usg: int        # PRBs in use
    resi: int       # PRBs allocated but unused
    entries: int    # users entered since the last window boundary
    en: bool        # a user entered this step
    lv: bool        # a user left this step
    top: bool       # top-up signal
    ramp: bool      # ramp-down signal


@dataclass(frozen=True)
class SystemState:
    """Complete variable assignment for one timestep."""

    j: int
    slices: tuple[SliceState, ...]          # index i-1
    pt_shr: tuple[int, ...]                 # index k-1
    rp_shr: int
    rp_ovr: bool


# Stable column order of the trace CSV; one row per (timestep, slice), with
# the slice's partition share and the residual columns repeated on each row.
TRACE_CSV_COLUMNS = (
    "j", "slice_id", "usr", "shr", "usg", "resi", "entries",
    "en", "lv", "top", "ramp", "pt_shr", "rp_shr", "rp_ovr",
)


@dataclass(frozen=True)
class AllocationTrace:
    """States for j = 0..T plus references to what produced them."""

    config: NetworkConfig
    scenario: "ScenarioTrace"
    states: tuple[SystemState, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(TRACE_CSV_COLUMNS)
        for st in self.states:
            for idx, sl in enumerate(st.slices):
                k = self.config.slices[idx].partition_id
                writer.writerow([
                    st.j, idx + 1, sl.usr, sl.shr, sl.usg, sl.resi, sl.entries,
                    int(sl.en), int(sl.lv), int(sl.top), int(sl.ramp),
                    st.pt_shr[k - 1], st.rp_shr, int(st.rp_ovr),
                ])
        return out.getvalue()


def diff_traces(a: AllocationTrace, b: AllocationTrace) -> list[str]:
    """Human-readable list of state differences; empty means equal."""
    diffs = []
    if len(a.states) != len(b.states):
        diffs.append(f"trace lengths differ: {len(a.states)} vs {len(b.states)}")
    for sa, sb in zip(a.states, b.states):
        if sa == sb:
            continue
        for idx, (xa, xb) in enumerate(zip(sa.slices, sb.slices)):
            if xa != xb:
                diffs.append(f"j={sa.j} slice={idx + 1}: {xa} != {xb}")
        if sa.pt_shr != sb.pt_shr:
            diffs.append(f"j={sa.j} pt_shr: {sa.pt_shr} != {sb.pt_shr}")
        if sa.rp_shr != sb.rp_shr or sa.rp_ovr != sb.rp_ovr:
            diffs.append(
                f"j={sa.j} residual: ({sa.rp_shr}, {sa.rp_ovr}) != "
                f"({sb.rp_shr}, {sb.rp_ovr})"
            )
    return diffs


# ---------------------------------------------------------------------------
# step operations
# ---------------------------------------------------------------------------

def assign_users(
    config: NetworkConfig,
    prev_usr: Sequence[int],
    arrivals: Sequence[bool],
    rp_ovr: bool,
) -> list[bool]:
    """Turn per-service arrivals into per-slice entry flags.

    While the residual partition is overused every entry is blocked.  A
    service with a single slice feeds it directly; one with several picks the
    slice holding the fewest users at the previous step, lowest slice id on
    ties.
    """
    en = [False] * config.num_slices
    if rp_ovr:
        return en
    for svc in config.services:
        if not arrivals[svc.service_id - 1]:
            continue
        owned = config.service_slices(svc.service_id)
        if len(owned) == 1:
            en[owned[0].slice_id - 1] = True
        else:
            chosen = min(owned, key=lambda sl: (prev_usr[sl.slice_id - 1],
                                                sl.slice_id))
            en[chosen.slice_id - 1] = True
    return en


def step_user_count(prev_usr: int, en: bool, lv: bool) -> int:
    """User count update; a departure from an empty slice is a contract
    violation (scenario generation must have filtered it)."""
    if lv and prev_usr == 0:
        raise SimulationError("departure flagged on an empty slice")
    if en and not lv:
        return prev_usr + 1
    if lv and not en:
        return prev_usr - 1
    return prev_usr


def step_window_entries(prev_entries: int, en: bool, j: int, t_win: int) -> int:
    """Entries-since-last-window counter; restarts on the step after each
    boundary."""
    if j % t_win == 1 % t_win:
        return 1 if en else 0
    return prev_entries + 1 if en else prev_entries


def step_usage_residual(
    prev_usg: int,
    prev_resi: int,
    usr_now: int,
    en: bool,
    lv: bool,
    m: int,
) -> tuple[int, int]:
    """Usage/residual update from the user-count change.

    One PRB hosts m users: usage grows when the new head count crosses into a
    fresh PRB (count = 1 mod m) and shrinks when a departure frees one
    (count = 0 mod m).  Needing a PRB with none left residual is a fairness
    breach and is reported, never clamped.
    """
    if en and not lv and usr_now % m == 1 % m:
        if prev_resi < 1:
            raise SimulationError(
                f"fairness breach: usage increment with residual 0 "
                f"(usr={usr_now}, m={m})"
            )
        return prev_usg + 1, prev_resi - 1
    if lv and not en and usr_now % m == 0:
        return prev_usg - 1, prev_resi + 1
    return prev_usg, prev_resi


def eval_signals(
    resi_mid: int,
    entries: int,
    j: int,
    t_win: int,
    usage_cap: int,
    rp_ovr: bool,
) -> tuple[bool, bool]:
    """Top-up / ramp-down decision at a window boundary.

    Mid-window both are off.  At a boundary: top-up when the remaining
    residual would not cover another window's worth of usage (and the
    residual partition is not overused); ramp-down when at least two windows'
    worth sits unused and nobody entered during the whole window.
    """
    if j % t_win != 0:
        return False, False
    top = (not rp_ovr) and resi_mid <= usage_cap
    ramp = (resi_mid - usage_cap >= usage_cap) and entries == 0
    return top, ramp


def partition_adjust(
    caps: Sequence[int],
    member_ids: Sequence[int],
    top: Sequence[bool],
    ramp: Sequence[bool],
    shr_prev: Sequence[int],
    resi_mid: Sequence[int],
    pt_prev: int,
) -> tuple[dict[int, tuple[int, int]], int]:
    """Apply the signalled share moves inside one partition.

    Every topped slice gains its usage cap on share and residual, every
    ramped slice loses it, and the partition share moves by the net amount.
    Returns {slice_id: (shr, resi)} and the new partition share.
    """
    updated: dict[int, tuple[int, int]] = {}
    gain = 0
    lose = 0
    for i in member_ids:
        idx = i - 1
        cap = caps[idx]
        if top[idx]:
            updated[i] = (shr_prev[idx] + cap, resi_mid[idx] + cap)
            gain += cap
        elif ramp[idx]:
            new_resi = resi_mid[idx] - cap
            if new_resi < 0:
                raise SimulationError(
                    f"ramp-down drove residual negative on slice {i}: "
                    f"{resi_mid[idx]} - {cap}"
                )
            updated[i] = (shr_prev[idx] - cap, new_resi)
            lose += cap
        else:
            updated[i] = (shr_prev[idx], resi_mid[idx])
    return updated, pt_prev + gain - lose


def residual_adjust(pt_prev: Sequence[int], pt_now: Sequence[int],
                    rp_prev: int) -> int:
    """Net the partition deltas against the residual partition: what the
    partitions gained in total comes out of it, what they freed goes in."""
    return rp_prev - (sum(pt_now) - sum(pt_prev))


# ---------------------------------------------------------------------------
# simulator
# ---------------------------------------------------------------------------

class ForwardSimulator:
    """Stepwise executor for one network configuration."""

    def __init__(self, config: NetworkConfig):
        config.validate()
        self.config = config
        self.caps = [sl.usage_cap for sl in config.slices]
        self.windows = [sl.t_win for sl in config.slices]
        self.ms = [sl.m for sl in config.slices]
        self.floor = config.overuse_floor

    def initial_state(self) -> SystemState:
        cfg = self.config
        slices = tuple(
            SliceState(usr=0, shr=cap, usg=0, resi=cap, entries=0,
                       en=False, lv=False, top=False, ramp=False)
            for cap in self.caps
        )
        pt = tuple(sum(self.caps[i - 1] for i in members)
                   for members in cfg.partitions.values())
        return SystemState(j=0, slices=slices, pt_shr=pt,
                           rp_shr=cfg.initial_residual, rp_ovr=False)

    def step(
        self,
        prev: SystemState,
        arrivals: Sequence[bool],
        departures: Sequence[bool],
    ) -> SystemState:
        cfg = self.config
        j = prev.j + 1
        rp_ovr = prev.rp_shr < self.floor

        prev_usr = [sl.usr for sl in prev.slices]
        en = assign_users(cfg, prev_usr, arrivals, rp_ovr)
        lv = [bool(d) for d in departures]

        usr, entries, usg, resi_mid = [], [], [], []
        top, ramp = [], []
        try:
            for idx in range(cfg.num_slices):
                p = prev.slices[idx]
                u = step_user_count(p.usr, en[idx], lv[idx])
                e = step_window_entries(p.entries, en[idx], j, self.windows[idx])
                g, r = step_usage_residual(p.usg, p.resi, u, en[idx], lv[idx],
                                           self.ms[idx])
                t, rd = eval_signals(r, e, j, self.windows[idx],
                                     self.caps[idx], rp_ovr)
                usr.append(u)
                entries.append(e)
                usg.append(g)
                resi_mid.append(r)
                top.append(t)
                ramp.append(rd)
        except SimulationError as exc:
            raise SimulationError(f"timestep {j}, slice {idx + 1}: {exc}") from exc

        shr_prev = [sl.shr for sl in prev.slices]
        shr = list(shr_prev)
        resi = list(resi_mid)
        pt = list(prev.pt_shr)
        for k, members in cfg.partitions.items():
            updated, pt_k = partition_adjust(
                self.caps, members, top, ramp,
                shr_prev, resi_mid, prev.pt_shr[k - 1],
            )
            pt[k - 1] = pt_k
            for i, (s, r) in updated.items():
                shr[i - 1] = s
                resi[i - 1] = r

        rp = residual_adjust(prev.pt_shr, pt, prev.rp_shr)
        if rp < 0:
            raise SimulationError(
                f"timestep {j}: residual partition share went negative ({rp}); "
                f"pt_shr={pt}, prev rp_shr={prev.rp_shr}"
            )

        return SystemState(
            j=j,
            slices=tuple(
                SliceState(usr=usr[i], shr=shr[i], usg=usg[i], resi=resi[i],
                           entries=entries[i], en=en[i], lv=lv[i],
                           top=top[i], ramp=ramp[i])
                for i in range(cfg.num_slices)
            ),
            pt_shr=tuple(pt),
            rp_shr=rp,
            rp_ovr=rp_ovr,
        )


def simulate(config: NetworkConfig, scenario) -> AllocationTrace:
    """Run the full pipeline for j = 1..T from the canonical initial state."""
    scenario.check_dimensions(config)
    sim = ForwardSimulator(config)
    states = [sim.initial_state()]
    for j in range(1, config.horizon + 1):
        arrivals = [row[j - 1] for row in scenario.arrivals]
        departures = [row[j - 1] for row in scenario.departures]
        states.append(sim.step(states[-1], arrivals, departures))
    return AllocationTrace(config=config, scenario=scenario,
                           states=tuple(states))
