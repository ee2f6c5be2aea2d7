"""Shared fixture builders and trace mutation helpers."""

from dataclasses import replace

from prbslice.model import NetworkConfig, ServiceSpec, SliceSpec
from prbslice.oracle import AllocationTrace
from prbslice.scenario import ScenarioTrace


def single_slice_config(t_win=2, m=1, total_prbs=8, horizon=8) -> NetworkConfig:
    """One service, one partition, one slice; small budget so the residual
    floor trips quickly."""
    return NetworkConfig(
        services=(ServiceSpec(1, "eMBB-Premium", 1),),
        slices=(SliceSpec(1, 1, 1, t_win=t_win, m=m),),
        partitions={1: (1,)},
        total_prbs=total_prbs,
        horizon=horizon,
        name="single",
    )


def two_premium_config(total_prbs=60, horizon=12) -> NetworkConfig:
    """One multi-partition premium service (two slices) plus a normal slice;
    exercises the argmin assignment."""
    return NetworkConfig(
        services=(
            ServiceSpec(1, "eMBB-Premium", 1),
            ServiceSpec(2, "eMBB-Normal", 2),
        ),
        slices=(
            SliceSpec(1, 1, 1, t_win=4, m=2),
            SliceSpec(2, 2, 1, t_win=6, m=3),
            SliceSpec(3, 1, 2, t_win=4, m=2),
        ),
        partitions={1: (1, 2), 2: (3,)},
        total_prbs=total_prbs,
        horizon=horizon,
        name="two-premium",
    )


def wide_config(K, r) -> NetworkConfig:
    """K partitions of r slices each, 400 PRBs, T=30; slices alternate
    between a premium and a normal service, so both own slices even when r
    is 1."""
    owners = [1 + i % 2 for i in range(K * r)]
    return NetworkConfig(
        services=tuple(
            ServiceSpec(mu, name, mu)
            for mu, name in ((1, "eMBB-Premium"), (2, "eMBB-Normal"))),
        slices=tuple(
            SliceSpec(i, mu, 1 + (i - 1) // r,
                      t_win=6 if mu == 1 else 8, m=2 if mu == 1 else 3)
            for i, mu in enumerate(owners, start=1)),
        partitions={k: tuple(range((k - 1) * r + 1, k * r + 1))
                    for k in range(1, K + 1)},
        total_prbs=400,
        horizon=30,
        name=f"wide-{K}x{r}",
    )


def constant_arrivals(config: NetworkConfig, pattern) -> ScenarioTrace:
    """Scenario with a fixed per-service arrival pattern and no departures.

    ``pattern`` maps service_id -> bool or a per-timestep list."""
    horizon = config.horizon
    rows = []
    for svc in config.services:
        val = pattern.get(svc.service_id, False)
        if isinstance(val, bool):
            rows.append(tuple([val] * horizon))
        else:
            rows.append(tuple(val))
    return ScenarioTrace(
        seed=0,
        arrivals=tuple(rows),
        departures=tuple(tuple([False] * horizon)
                         for _ in range(config.num_slices)),
    )


def empty_scenario(config: NetworkConfig) -> ScenarioTrace:
    return constant_arrivals(config, {})


# -- trace mutation ----------------------------------------------------------

def mutate_slice(trace: AllocationTrace, j: int, slice_id: int,
                 **changes) -> AllocationTrace:
    """Rebuild the trace with one slice cell altered at timestep j."""
    states = list(trace.states)
    st = states[j]
    slices = list(st.slices)
    slices[slice_id - 1] = replace(slices[slice_id - 1], **changes)
    states[j] = replace(st, slices=tuple(slices))
    return replace(trace, states=tuple(states))


def mutate_state(trace: AllocationTrace, j: int, **changes) -> AllocationTrace:
    states = list(trace.states)
    states[j] = replace(states[j], **changes)
    return replace(trace, states=tuple(states))


def bump_pt_shr(trace: AllocationTrace, j: int, k: int,
                delta: int) -> AllocationTrace:
    pt = list(trace.states[j].pt_shr)
    pt[k - 1] += delta
    return mutate_state(trace, j, pt_shr=tuple(pt))
