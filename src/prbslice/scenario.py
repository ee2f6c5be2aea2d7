"""Seeded generation of exogenous user events.

Arrivals are produced per service: draw a value from the service's
distribution at each timestep, look up its density (pdf) or mass (pmf), and
raise the arrival flag when that probability value exceeds the configured
threshold.  Both are closed forms: the lognormal density
``exp(-z**2/2) / (x * sigma * sqrt(2*pi))`` with ``z = (ln x - mu) / sigma``,
and the poisson mass ``exp(k * ln(rate) - rate - lgamma(k + 1))``.
Departures are per-slice coin flips, filtered during a replay of the
allocation semantics so a departure never fires on an empty slice.

``ScenarioSpec.generate`` is the one generator, a pure function of (spec,
config, seed): the same inputs always give a bit-identical trace.  A spec's
distribution parameters, thresholds and departure rate must be JSON numbers;
a bool or a string fails at load.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .model import NetworkConfig, json_field, json_key
from .oracle import ForwardSimulator

_KINDS = ("lognormal", "poisson", "bernoulli")

# Sub-stream labels for deriving independent per-service / per-slice seeds
# from the master seed.
_ARRIVAL_STREAM = 0
_DEPARTURE_STREAM = 1


class ScenarioError(ValueError):
    """Raised for invalid distribution parameters or mismatched dimensions."""


@dataclass(frozen=True)
class DistributionSpec:
    """A user-arrival distribution plus the flag threshold.

    ``params`` is kind-specific: lognormal takes ``mu`` (default 0) and
    ``sigma``; poisson takes ``rate``; bernoulli takes ``p``.
    """

    kind: str
    params: Mapping[str, float]
    threshold: float

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ScenarioError(f"unknown distribution kind {self.kind!r}")
        for name, value in (*self.params.items(),
                            ("threshold", self.threshold)):
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ScenarioError(f"{self.kind} {name} must be a finite "
                                    f"number, got {value!r}")
        if not 0 < self.threshold < 1:
            raise ScenarioError(
                f"threshold must lie strictly in (0, 1), got {self.threshold}"
            )
        if self.kind == "lognormal":
            if self.params.get("sigma", 0) <= 0:
                raise ScenarioError("lognormal sigma must be > 0")
        elif self.kind == "poisson":
            if self.params.get("rate", 0) <= 0:
                raise ScenarioError("poisson rate must be > 0")
        else:
            p = self.params.get("p")
            if p is None or not 0 <= p <= 1:
                raise ScenarioError("bernoulli p must lie in [0, 1]")

    @classmethod
    def from_dict(cls, doc: Mapping) -> "DistributionSpec":
        return cls(kind=doc["kind"], params=dict(doc["params"]),
                   threshold=doc["threshold"])


def _flag(value) -> bool:
    """A scenario flag: 0, 1, true or false."""
    if type(value) not in (int, bool) or value not in (0, 1):
        raise ValueError(f"expected a flag, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class ScenarioTrace:
    """Exogenous flags: arrivals[mu-1][j-1] per service, departures[i-1][j-1]
    per slice, for timesteps j = 1..T."""

    seed: int
    arrivals: tuple[tuple[bool, ...], ...]
    departures: tuple[tuple[bool, ...], ...]

    def check_dimensions(self, config: NetworkConfig) -> None:
        if len(self.arrivals) != config.num_services:
            raise ScenarioError(
                f"scenario has {len(self.arrivals)} arrival rows, config has "
                f"{config.num_services} services"
            )
        if len(self.departures) != config.num_slices:
            raise ScenarioError(
                f"scenario has {len(self.departures)} departure rows, config "
                f"has {config.num_slices} slices"
            )
        rows = list(self.arrivals) + list(self.departures)
        if any(len(r) != config.horizon for r in rows):
            raise ScenarioError("scenario row length differs from horizon")

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "arrivals": [[int(f) for f in row] for row in self.arrivals],
                "departures": [[int(f) for f in row] for row in self.departures],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioTrace":
        try:
            doc = json.loads(text)
            return cls(
                seed=json_field(doc["seed"], int),
                arrivals=tuple(tuple(_flag(f) for f in row)
                               for row in doc["arrivals"]),
                departures=tuple(tuple(_flag(f) for f in row)
                                 for row in doc["departures"]),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ScenarioError(
                f"malformed scenario document: {exc!r}") from exc


@dataclass(frozen=True)
class ScenarioSpec:
    """Calibrated generation knobs: one distribution per service id plus the
    per-slice departure coin rate."""

    per_service: Mapping[int, DistributionSpec]
    departure_rate: float

    def __post_init__(self) -> None:
        if not 0 <= self.departure_rate <= 1:
            raise ScenarioError(f"departure_rate must lie in [0, 1], "
                                f"got {self.departure_rate!r}")

    def generate(self, config: NetworkConfig, seed: int) -> ScenarioTrace:
        """Generate a full admissible scenario for ``config``.

        Departure coins are drawn independently per slice at
        ``departure_rate`` and dropped whenever the replayed occupancy of the
        slice is zero, so the forward simulator can treat an empty-slice
        departure as a hard contract violation.
        """
        check_coverage(config, self.per_service)

        horizon = config.horizon
        arrivals = tuple(
            tuple(gen_arrivals(
                self.per_service[svc.service_id],
                _derive_seed(seed, _ARRIVAL_STREAM, svc.service_id), horizon))
            for svc in config.services
        )
        coins = []
        for sl in config.slices:
            rng = np.random.default_rng(
                _derive_seed(seed, _DEPARTURE_STREAM, sl.slice_id))
            coins.append(rng.random(horizon) < self.departure_rate)

        # Replay the allocation semantics step by step; a coin only becomes
        # a departure if the slice held at least one user at the previous
        # step.
        sim = ForwardSimulator(config)
        state = sim.initial_state()
        departures: list[list[bool]] = [[] for _ in range(config.num_slices)]
        for j in range(1, horizon + 1):
            step_arrivals = [row[j - 1] for row in arrivals]
            step_departs = []
            for idx in range(config.num_slices):
                fire = bool(coins[idx][j - 1]) and state.slices[idx].usr >= 1
                departures[idx].append(fire)
                step_departs.append(fire)
            state = sim.step(state, step_arrivals, step_departs)

        return ScenarioTrace(
            seed=seed,
            arrivals=arrivals,
            departures=tuple(tuple(row) for row in departures),
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            doc = json.loads(text)
            return cls(
                per_service={json_key(mu): DistributionSpec.from_dict(d)
                             for mu, d in doc["per_service"].items()},
                departure_rate=json_field(doc["departure_rate"],
                                          int, float),
            )
        except ScenarioError:
            raise
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ScenarioError(
                f"malformed scenario spec document: {exc!r}") from exc


def _derive_seed(master: int, stream: int, index: int) -> int:
    seq = np.random.SeedSequence([int(master), stream, index])
    return int(seq.generate_state(1)[0])


def gen_arrivals(spec: DistributionSpec, seed: int, horizon: int) -> list[bool]:
    """Draw ``horizon`` flags from the distribution, True when the density of
    the drawn value exceeds the threshold (bernoulli compares the value)."""
    if horizon < 1:
        raise ScenarioError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    if spec.kind == "lognormal":
        mu = float(spec.params.get("mu", 0.0))
        sigma = float(spec.params["sigma"])
        draws = rng.lognormal(mean=mu, sigma=sigma, size=horizon)
        z = (np.log(draws) - mu) / sigma
        dens = np.exp(-z * z / 2) / (draws * sigma * math.sqrt(2 * math.pi))
        flags = dens > spec.threshold
    elif spec.kind == "poisson":
        rate = float(spec.params["rate"])
        draws = rng.poisson(lam=rate, size=horizon)
        dens = np.exp([k * math.log(rate) - rate - math.lgamma(k + 1)
                       for k in draws.tolist()])
        flags = dens > spec.threshold
    else:
        p = float(spec.params["p"])
        draws = (rng.random(horizon) < p).astype(float)
        flags = draws > spec.threshold
    return [bool(f) for f in flags]


def check_coverage(config: NetworkConfig,
                   per_service: Mapping[int, DistributionSpec]) -> None:
    """Raise unless every service of ``config`` has a distribution."""
    missing = [s.service_id for s in config.services
               if s.service_id not in per_service]
    if missing:
        raise ScenarioError(f"no distribution spec for services {missing}")
