"""Core domain model for windowed PRB allocation over a partitioned RAN.

The network is a three-level hierarchy: slices (logical segments serving one
service type each) grouped into partitions, plus a residual partition holding
every PRB not allocated to any slice.  Each slice carries two scheduling
parameters: ``t_win``, the number of timesteps during which its share is
frozen, and ``m``, the number of users that jointly occupy one PRB.  The
quantity ``ceil(t_win / m)`` is the slice's per-window usage cap and is the
unit by which shares ever grow or shrink.

This module owns the configuration types, their validation rules, and the
closed-form formulas (window usage cap, PRB-to-throughput conversion, and the
constraint-count bound used to sanity-check the SMT encoding size).  It is
also the one place that decides id order: every other module reads slice i
as ``config.slices[i - 1]`` and service mu as ``config.services[mu - 1]``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping


class ConfigError(ValueError):
    """Raised when a network configuration violates a structural rule."""


class BudgetError(ConfigError):
    """Raised when a structurally valid configuration does not fit its
    PRB budget."""


def max_window_usage(t_win: int, m: int) -> int:
    """Largest possible PRB usage of a slice within one window.

    At most one user enters per timestep, so at most ``t_win`` users arrive
    within a window, and every ``m`` users occupy one PRB: the cap is
    ``ceil(t_win / m)``.
    """
    if not isinstance(t_win, int) or not isinstance(m, int):
        raise TypeError("t_win and m must be integers")
    if t_win < 1 or m < 1:
        raise ValueError(f"t_win and m must be >= 1, got ({t_win}, {m})")
    return -(-t_win // m)


# Radio-layer parameters of the peak data-rate formula, at the vendor
# reference values; ``DERATE`` scales the peak to the operating point.
MIMO_LAYERS = 8
MODULATION_ORDER = 64
SCALING = 1.0
R_MAX = 948 / 1024              # peak code rate
NUMEROLOGY = 1
N_PRB_BW = 38                   # resource blocks in the carrier bandwidth
OVERHEAD = 0.14
DERATE = 0.8


def nominal_throughput(prb_usage: int) -> float:
    """Throughput in Mbps offered by ``prb_usage`` PRBs, from first principles.

    Evaluates the standard peak-rate formula per PRB worth of usage and scales
    by ``DERATE``.  The OFDM symbol duration is
    ``1e-3 / (14 * 2**NUMEROLOGY)`` seconds.
    """
    if prb_usage < 0:
        raise ValueError("PRB usage must be non-negative")
    symbol_duration = 1e-3 / (14 * 2 ** NUMEROLOGY)
    per_prb = (
        MIMO_LAYERS
        * MODULATION_ORDER
        * SCALING
        * R_MAX
        * (N_PRB_BW * 12 / symbol_duration)
        * (1 - OVERHEAD)
        * 1e-6
        * DERATE
    )
    return per_prb * prb_usage


@dataclass(frozen=True)
class ServiceSpec:
    """One service type: identity, priority, and multi-partition provision."""

    service_id: int
    name: str
    priority_rank: int
    provision: bool

    def __post_init__(self) -> None:
        if self.service_id < 1:
            raise ValueError("service_id must be >= 1")


@dataclass(frozen=True)
class SliceSpec:
    """One slice: owning service, owning partition, and window parameters."""

    slice_id: int
    service_id: int
    partition_id: int
    t_win: int
    m: int

    def __post_init__(self) -> None:
        if self.slice_id < 1:
            raise ValueError("slice_id must be >= 1")
        if self.t_win < 1 or self.m < 1:
            raise ValueError(
                f"slice {self.slice_id}: t_win and m must be >= 1, "
                f"got ({self.t_win}, {self.m})"
            )

    @property
    def usage_cap(self) -> int:
        """Per-window usage cap; the share adjustment quantum of this slice."""
        return max_window_usage(self.t_win, self.m)


@dataclass(frozen=True)
class NetworkConfig:
    """A full service/partition/slice topology plus the PRB budget.

    ``partitions`` maps partition id (1..K) to the slice ids it contains.
    Ids may be listed in any order: construction puts ``services`` and
    ``slices`` in id order and ``partitions`` in key order, members
    ascending.  ``overuse_fraction`` is the residual-partition floor expressed
    as a fraction of ``total_prbs``; the residual partition counts as overused
    whenever its share drops strictly below ``ceil(fraction * total_prbs)``.
    ``timestep_minutes`` is reporting metadata only.
    """

    services: tuple[ServiceSpec, ...]
    slices: tuple[SliceSpec, ...]
    partitions: Mapping[int, tuple[int, ...]]
    total_prbs: int
    horizon: int
    overuse_fraction: Fraction = Fraction(1, 2)
    timestep_minutes: Fraction = Fraction(1)
    name: str = ""

    def __post_init__(self) -> None:
        set_field = object.__setattr__     # the dataclass is frozen
        set_field(self, "services", tuple(
            sorted(self.services, key=lambda s: s.service_id)))
        set_field(self, "slices", tuple(
            sorted(self.slices, key=lambda s: s.slice_id)))
        set_field(self, "partitions", {
            k: tuple(sorted(self.partitions[k]))
            for k in sorted(self.partitions)})

    # -- derived views -------------------------------------------------

    @property
    def num_services(self) -> int:
        return len(self.services)

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def service_slices(self, service_id: int) -> tuple[SliceSpec, ...]:
        """Slices owned by a service, in slice-id order."""
        return tuple(sl for sl in self.slices if sl.service_id == service_id)

    @property
    def premium_service(self) -> ServiceSpec:
        """The highest-priority service (lowest priority_rank, lowest id tie)."""
        return min(self.services, key=lambda s: (s.priority_rank, s.service_id))

    @property
    def premium_slice_ids(self) -> tuple[int, ...]:
        svc = self.premium_service
        return tuple(sl.slice_id for sl in self.service_slices(svc.service_id))

    @property
    def overuse_floor(self) -> int:
        """Residual share below which the residual partition is overused."""
        return math.ceil(self.overuse_fraction * self.total_prbs)

    @property
    def initial_residual(self) -> int:
        return self.total_prbs - sum(sl.usage_cap for sl in self.slices)

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Check every structural rule, raising ConfigError on the first
        group that fails; then the budget, raising BudgetError."""
        problems: list[str] = []

        for kind, ids in (("service", [s.service_id for s in self.services]),
                          ("slice", [s.slice_id for s in self.slices]),
                          ("partition", list(self.partitions))):
            if ids != list(range(1, len(ids) + 1)):
                problems.append(f"{kind} ids must be contiguous "
                                f"1..{len(ids)}, got {ids}")
        if self.total_prbs < 1:
            problems.append("total_prbs must be >= 1")
        if self.horizon < 1:
            problems.append("horizon must be >= 1")
        if not 0 < self.overuse_fraction <= 1:
            problems.append("overuse_fraction must lie in (0, 1]")
        if self.timestep_minutes <= 0:
            problems.append("timestep_minutes must be positive")
        if problems:
            raise ConfigError("; ".join(problems))

        # Partition membership: every slice in exactly one partition, and the
        # partition map agrees with each slice's partition_id.
        seen: dict[int, int] = {}
        for k, members in self.partitions.items():
            for i in members:
                if i in seen:
                    problems.append(
                        f"slice {i} appears in partitions {seen[i]} and {k}"
                    )
                seen[i] = k
        for sl in self.slices:
            k = seen.get(sl.slice_id)
            if k is None:
                problems.append(f"slice {sl.slice_id} belongs to no partition")
            elif k != sl.partition_id:
                problems.append(
                    f"slice {sl.slice_id} declares partition {sl.partition_id} "
                    f"but is listed under partition {k}"
                )
        if len(seen) != len(self.slices):
            problems.append("partition map lists unknown slice ids")

        for sl in self.slices:
            if not any(s.service_id == sl.service_id for s in self.services):
                problems.append(f"slice {sl.slice_id} names unknown service "
                                f"{sl.service_id}")
        for svc in self.services:
            owned = self.service_slices(svc.service_id)
            if not owned:
                problems.append(f"service {svc.service_id} owns no slice")
            if svc.provision != (len(owned) > 1):
                problems.append(
                    f"service {svc.service_id}: provision flag {svc.provision} "
                    f"inconsistent with owning {len(owned)} slice(s)"
                )

        # Priority ordering: a higher-priority slice never has a larger
        # per-user PRB appetite than a lower-priority one (smaller m = more
        # PRB per user).
        by_rank = {s.service_id: s.priority_rank for s in self.services}
        for a in self.slices:
            for b in self.slices:
                if by_rank.get(a.service_id, 0) < by_rank.get(b.service_id, 0):
                    if a.m > b.m:
                        problems.append(
                            f"priority ordering violated: slice {a.slice_id} "
                            f"(rank {by_rank[a.service_id]}, m={a.m}) vs slice "
                            f"{b.slice_id} (rank {by_rank[b.service_id]}, m={b.m})"
                        )
        if problems:
            raise ConfigError("; ".join(sorted(set(problems))))

        # Budget feasibility: initial shares plus the residual floor must fit,
        # otherwise the residual partition starts overused or top-ups can
        # drive it negative.
        total_caps = sum(sl.usage_cap for sl in self.slices)
        if total_caps + self.overuse_floor > self.total_prbs:
            raise BudgetError(
                f"budget infeasible: initial shares {total_caps} + residual "
                f"floor {self.overuse_floor} exceed total_prbs {self.total_prbs}"
            )

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "services": [
                {
                    "service_id": s.service_id,
                    "name": s.name,
                    "priority_rank": s.priority_rank,
                    "provision": s.provision,
                }
                for s in self.services
            ],
            "slices": [
                {
                    "slice_id": s.slice_id,
                    "service_id": s.service_id,
                    "partition_id": s.partition_id,
                    "t_win": s.t_win,
                    "m": s.m,
                }
                for s in self.slices
            ],
            "partitions": {str(k): list(v) for k, v in self.partitions.items()},
            "total_prbs": self.total_prbs,
            "horizon": self.horizon,
            "overuse_fraction": str(self.overuse_fraction),
            "timestep_minutes": str(self.timestep_minutes),
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "NetworkConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        try:
            slices = tuple(
                SliceSpec(
                    slice_id=int(s["slice_id"]),
                    service_id=int(s["service_id"]),
                    partition_id=int(s["partition_id"]),
                    t_win=int(s["t_win"]),
                    m=int(s["m"]),
                )
                for s in doc["slices"]
            )
            services = []
            for s in doc["services"]:
                sid = int(s["service_id"])
                owned = sum(1 for sl in slices if sl.service_id == sid)
                services.append(
                    ServiceSpec(
                        service_id=sid,
                        name=str(s["name"]),
                        priority_rank=int(s["priority_rank"]),
                        provision=bool(s.get("provision", owned > 1)),
                    )
                )
            cfg = cls(
                services=tuple(services),
                slices=slices,
                partitions={
                    int(k): tuple(int(i) for i in v)
                    for k, v in doc["partitions"].items()
                },
                total_prbs=int(doc["total_prbs"]),
                horizon=int(doc["horizon"]),
                overuse_fraction=Fraction(doc.get("overuse_fraction", "1/2")),
                timestep_minutes=Fraction(doc.get("timestep_minutes", "1")),
                name=str(doc.get("name", "")),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ConfigError(f"malformed config document: {exc!r}") from exc
        return cfg


# Guard for the count-bound arithmetic: configurations whose bound does not
# fit in a machine word are pathological and reported rather than silently
# returned as bignums.
_COUNT_BOUND_LIMIT = 2 ** 63


def constraint_count_bound(config: NetworkConfig) -> int:
    """The paper's analytic bound on the constraint count of the encoding.

    T * (6N + sum_k 3**r_k + 3**K + sum_mu 2*n_mu), where r_k is the slice
    count of partition k and n_mu the slice count of service mu.  The paper
    counts one case per signal combination; the encoder states the same
    layers as linear sums and stays well below this bound.
    """
    n = config.num_slices
    per_partition = sum(3 ** len(v) for v in config.partitions.values())
    central = 3 ** config.num_partitions
    per_service = sum(
        2 * len(config.service_slices(s.service_id)) for s in config.services
    )
    bound = config.horizon * (6 * n + per_partition + central + per_service)
    if bound > _COUNT_BOUND_LIMIT:
        raise OverflowError(
            f"constraint-count bound {bound} exceeds {_COUNT_BOUND_LIMIT}; "
            "configuration too large to encode"
        )
    return bound
