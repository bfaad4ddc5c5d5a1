"""Dispatch objectives.

Four interchangeable scores for an assignment state: requests served,
platform income, and two fairness-regularized variants that subtract a
lambda-weighted population variance, either of neighborhood service rates
(serviced / requested, over neighborhoods with demand) or of driver incomes.
Requests served is the sum of the serviced tallies: each accepted request is
tallied once, in its origin's neighborhood, and sits in exactly one driver's
ongoing or finished rides, so the sum is the paper's sum of |p_i| + |s_i|.
With lambda = 0 both fairness objectives coincide with platform income, bit
for bit: :func:`scored_as` names the spec every valid spec scores as, so a
sweep simulates each distinct scoring behaviour once.

Scores are plain Python floats. :func:`pairwise_sum` and
:func:`population_variance` return exactly the bits of numpy's
``np.add.reduce`` and ``np.var`` on a float64 array, because they add in
numpy's pairwise order (Higham 1993): fewer than 8 values fold left to right
from 0.0; 8 to 128 values go into eight accumulators, one per position mod
8, which combine as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) before the tail of
fewer than 8 is added in order; longer runs split at half the length rounded
down to a multiple of 8 and recurse. The total is 0.0 plus that sum, so a
run of -0.0 sums to +0.0 as numpy's does. The variance is
pairwise((x-m)*(x-m))/n with m = pairwise(values)/n. Sums that are not a
numpy figure go through :func:`left_sum`, a fold left to right from 0.0, so
no result depends on the Python version's built-in ``sum`` (compensated
since 3.12).

Scoring an epoch calls :func:`delta_objective` once per candidate action, all
against one unchanged state. The variance before any action is therefore the
same for every call, and the variance after one depends only on the origin
labels it services (rider fairness, as a multiset) or on the driver and the
fare sum it adds (driver fairness). ``ObjectiveState.variances`` remembers
both per state, so each distinct effect is scored once; a remembered value is
the one the kernel would compute again, so every delta keeps its bits. The
memo is only valid while the state is not mutated: build a fresh state with
:meth:`ObjectiveState.from_fleet` or :meth:`ObjectiveState.copy` (both start
with an empty memo) instead of changing one that was scored.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .fleet import FleetState

OBJECTIVES = ("requests", "income", "rider_fairness", "driver_fairness")

__all__ = [
    "OBJECTIVES",
    "ObjectiveSpec",
    "NeighborhoodTallies",
    "ObjectiveState",
    "scored_as",
    "left_sum",
    "pairwise_sum",
    "population_variance",
    "eval_objective",
    "delta_objective",
]


class _ObjectiveSpec(NamedTuple):
    name: str
    lam: float  # variance weight; ignored by requests / income


class ObjectiveSpec(_ObjectiveSpec):
    __slots__ = ()

    def __new__(cls, name: str, lam: float = 0.0) -> ObjectiveSpec:
        if name not in OBJECTIVES:
            raise ValueError(f"unknown objective {name!r}, expected one of {OBJECTIVES}")
        if not math.isfinite(lam):
            raise ValueError(f"lambda must be finite, got {lam!r}")
        if lam < 0:
            raise ValueError("lambda must be nonnegative")
        return tuple.__new__(cls, (name, lam))


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


class NeighborhoodTallies:
    """Per-neighborhood request and service counts, indexed by label (1-based).

    A run keeps one, and its scoring and its report both read it."""

    __slots__ = ("requested", "serviced")

    def __init__(self, requested: list[int], serviced: list[int]) -> None:
        self.requested = requested
        self.serviced = serviced

    @classmethod
    def empty(cls, num_neighborhoods: int) -> "NeighborhoodTallies":
        return cls(requested=[0] * (num_neighborhoods + 1), serviced=[0] * (num_neighborhoods + 1))

    def add_requested(self, label: int) -> None:
        self.requested[label] += 1

    def add_serviced(self, label: int) -> None:
        self.serviced[label] += 1

    def copy(self) -> "NeighborhoodTallies":
        return NeighborhoodTallies(self.requested.copy(), self.serviced.copy())

    def service_rates(self) -> list[float]:
        """h_j / k_j over neighborhoods with at least one request."""
        return [h / k for h, k in zip(self.serviced[1:], self.requested[1:]) if k > 0]


class ObjectiveState:
    """The quantities an objective reads, detached from full fleet state.
    Each state starts with its own empty variance memo."""

    __slots__ = ("incomes", "tallies", "variances")

    def __init__(self, incomes: list[float], tallies: NeighborhoodTallies) -> None:
        self.incomes = incomes  # per-driver income, order = driver index in the fleet
        self.tallies = tallies
        # variance memo of delta_objective; valid only while the state is unchanged
        self.variances: dict[object, float] = {}

    @classmethod
    def from_fleet(cls, fleet: FleetState, tallies: NeighborhoodTallies) -> "ObjectiveState":
        return cls([d.income for d in fleet.drivers], tallies)

    def copy(self) -> "ObjectiveState":
        return ObjectiveState(list(self.incomes), self.tallies.copy())


def left_sum(values: Iterable[float]) -> float:
    """Sum left to right from 0.0, one rounding per term: the bits Python's
    built-in sum gave floats before 3.12."""
    total = 0.0
    for x in values:
        total += x
    return total


def _pairwise(values: Sequence[float]) -> float:
    n = len(values)
    if n < 8:
        return left_sum(values)
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        tail = n - n % 8
        for i in range(8, tail, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(tail, n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(values[:half]) + _pairwise(values[half:])


def pairwise_sum(values: Sequence[float]) -> float:
    """``np.add.reduce`` of the values as a float64 array, bit for bit (the
    order is in the module docstring)."""
    return 0.0 + _pairwise(values)


def population_variance(values: Sequence[float]) -> float:
    """``np.var`` of the values as a float64 array, bit for bit; 0.0 when
    there are none."""
    n = len(values)
    if n == 0:
        return 0.0
    mean = pairwise_sum(values) / n
    return pairwise_sum([(x - mean) * (x - mean) for x in values]) / n


def eval_objective(spec: ObjectiveSpec, state: ObjectiveState) -> float:
    if spec.name == "requests":
        return left_sum(state.tallies.serviced)
    total = pairwise_sum(state.incomes)
    if spec.name == "income" or spec.lam == 0.0:
        return total
    if spec.name == "rider_fairness":
        return total - spec.lam * population_variance(state.tallies.service_rates())
    return total - spec.lam * population_variance(state.incomes)


def delta_objective(
    spec: ObjectiveSpec,
    state: ObjectiveState,
    driver_index: int,
    fares: Sequence[float],
    origin_labels: Sequence[int],
) -> float:
    """Objective change if the driver at `driver_index` accepts the given
    requests, scored against the current state. Matches
    eval_objective(after) - eval_objective(before) up to rounding.

    The fairness variances are memoised in `state.variances`, so the state
    must not be mutated between calls (see the module docstring)."""
    if spec.name == "requests":
        return float(len(fares))
    added = left_sum(fares)
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
        incomes = list(state.incomes)
        incomes[driver_index] += added
        after = variances[key] = population_variance(incomes)
    return added - spec.lam * (after - before)
