"""Dispatch objectives.

Four interchangeable scores for an assignment state: requests served,
platform income, and two fairness-regularized variants that subtract a
lambda-weighted population variance, either of neighborhood service rates
(serviced / requested, over neighborhoods with demand) or of driver incomes.
With lambda = 0 both fairness objectives coincide with platform income, bit
for bit: :func:`scored_as` names the spec every valid spec scores as, so a
sweep simulates each distinct scoring behaviour once.

Scoring an epoch calls :func:`delta_objective` once per candidate action, all
against one unchanged state. The variance before any action is therefore the
same for every call, and the variance after one depends only on the origin
labels it services (rider fairness, as a multiset) or on the driver and the
fare sum it adds (driver fairness). ``ObjectiveState.variances`` remembers
both per state, so each distinct effect is scored once. The remembered values
come from the same numpy calls on the same arrays, so every delta keeps its
bits. The memo is only valid while the state is not mutated: build a fresh
state with :meth:`ObjectiveState.from_fleet` or :meth:`ObjectiveState.copy`
(both start with an empty memo) instead of changing one that was scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .city import CityGraph
from .demand import RequestLog
from .fleet import FleetState

OBJECTIVES = ("requests", "income", "rider_fairness", "driver_fairness")

__all__ = [
    "OBJECTIVES",
    "ObjectiveSpec",
    "NeighborhoodTallies",
    "ObjectiveState",
    "scored_as",
    "population_variance",
    "eval_objective",
    "delta_objective",
]


@dataclass(frozen=True)
class ObjectiveSpec:
    name: str
    lam: float = 0.0  # variance weight; ignored by requests / income

    def __post_init__(self) -> None:
        if self.name not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.name!r}, expected one of {OBJECTIVES}")
        if not math.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam!r}")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")


def scored_as(spec: ObjectiveSpec) -> ObjectiveSpec:
    """The spec that scores every state and action exactly as `spec` does.

    `requests` and `income` ignore lambda, and a fairness objective with
    lambda == 0 (-0.0 too) is `income`: both scoring functions return the
    income term before they read a variance. Specs with the same answer give
    the same deltas and values bit for bit, so two runs whose specs have the
    same answer are the same run.
    """
    if spec.name in ("requests", "income"):
        return ObjectiveSpec(spec.name)
    if spec.lam == 0.0:
        return ObjectiveSpec("income")
    return spec


@dataclass
class NeighborhoodTallies:
    """Per-neighborhood request and service counts, indexed by label (1-based)."""

    requested: np.ndarray
    serviced: np.ndarray

    @classmethod
    def empty(cls, num_neighborhoods: int) -> "NeighborhoodTallies":
        return cls(
            requested=np.zeros(num_neighborhoods + 1, dtype=np.int64),
            serviced=np.zeros(num_neighborhoods + 1, dtype=np.int64),
        )

    @classmethod
    def from_log(cls, log: RequestLog, graph: CityGraph) -> "NeighborhoodTallies":
        tallies = cls.empty(graph.neighborhoods.num_neighborhoods)
        for req in log.all_requests:
            label = graph.neighborhoods.label(req.origin)
            tallies.requested[label] += 1
            if req.request_id in log.serviced_ids:
                tallies.serviced[label] += 1
        return tallies

    def add_requested(self, label: int) -> None:
        self.requested[label] += 1

    def add_serviced(self, label: int) -> None:
        self.serviced[label] += 1

    def copy(self) -> "NeighborhoodTallies":
        return NeighborhoodTallies(self.requested.copy(), self.serviced.copy())

    def service_rates(self) -> np.ndarray:
        """h_j / k_j over neighborhoods with at least one request."""
        mask = self.requested[1:] > 0
        return self.serviced[1:][mask] / self.requested[1:][mask]


@dataclass
class ObjectiveState:
    """The quantities an objective reads, detached from full fleet state."""

    incomes: np.ndarray  # per-driver income, order = driver index in the fleet
    rides: np.ndarray  # per-driver accepted request count (ongoing + finished)
    tallies: NeighborhoodTallies
    # variance memo of delta_objective; valid only while the state is unchanged
    variances: dict[object, float] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_fleet(cls, fleet: FleetState, tallies: NeighborhoodTallies) -> "ObjectiveState":
        return cls(
            incomes=np.array([d.income for d in fleet.drivers], dtype=float),
            rides=np.array([d.rides_count for d in fleet.drivers], dtype=np.int64),
            tallies=tallies,
        )

    def copy(self) -> "ObjectiveState":
        return ObjectiveState(self.incomes.copy(), self.rides.copy(), self.tallies.copy())


def population_variance(values: np.ndarray) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.var(values))


def eval_objective(spec: ObjectiveSpec, state: ObjectiveState) -> float:
    if spec.name == "requests":
        return float(state.rides.sum())
    total = float(state.incomes.sum())
    if spec.name == "income" or spec.lam == 0.0:
        return total
    if spec.name == "rider_fairness":
        return total - spec.lam * population_variance(state.tallies.service_rates())
    return total - spec.lam * population_variance(state.incomes)


def delta_objective(
    spec: ObjectiveSpec,
    state: ObjectiveState,
    driver_index: int,
    fares: list[float],
    origin_labels: list[int],
) -> float:
    """Objective change if the driver at `driver_index` accepts the given
    requests, scored against the current state. Matches
    eval_objective(after) - eval_objective(before) up to rounding.

    The fairness variances are memoised in `state.variances`, so the state
    must not be mutated between calls (see the module docstring)."""
    if spec.name == "requests":
        return float(len(fares))
    added = float(sum(fares))
    # no fares leave the variance as it was, and lam == 0 scales any finite
    # variance change to zero: either way the delta is exactly `added`
    if spec.name == "income" or not fares or spec.lam == 0.0:
        return added
    variances = state.variances
    if spec.name == "rider_fairness":
        before = variances.get("rider")
        if before is None:
            before = variances["rider"] = population_variance(state.tallies.service_rates())
        key: tuple = ("rider", *sorted(origin_labels))
        after = variances.get(key)
        if after is None:
            bumped = state.tallies.copy()
            for label in origin_labels:
                bumped.add_serviced(label)
            after = variances[key] = population_variance(bumped.service_rates())
        return added - spec.lam * (after - before)
    before = variances.get("driver")
    if before is None:
        before = variances["driver"] = population_variance(state.incomes)
    key = ("driver", driver_index, added)
    after = variances.get(key)
    if after is None:
        incomes = state.incomes.copy()
        incomes[driver_index] += added
        after = variances[key] = population_variance(incomes)
    return added - spec.lam * (after - before)
