"""Shapley income attribution and risk-parameterized redistribution.

A coalition oracle answers "what would this subset of drivers have earned
on the same demand"; Shapley values split the full fleet's income by average
marginal contribution (exactly for small fleets, by permutation sampling
otherwise). The payout step then blends each driver's own number with a
deficit-weighted share of a common pool, controlled by a risk knob r: at the
extremes the payout pins to one of the two vectors, in between low earners
with high attributed value are topped up.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Protocol, Sequence

from .city import CityGraph
from .csvio import read_rows
from .demand import RequestBatch
from .fleet import FleetState
from .matching import DelayConstraints, RouteMemo
from .objectives import ObjectiveSpec, left_sum
from .seeds import substream
from .simulate import coalition_incomes
from .value import ValueModel

PAYOUT_MODES = ("as_printed", "keep_income")
EXACT_SHAPLEY_CAP = 12

__all__ = [
    "PAYOUT_MODES",
    "EXACT_SHAPLEY_CAP",
    "CoalitionOracle",
    "TableOracle",
    "ResimulationOracle",
    "ShapleyEstimate",
    "RedistributionParams",
    "shapley_exact",
    "shapley_mc",
    "redistribute",
    "gain_metric",
    "mean_gain",
    "minimum_wage_bound",
    "load_coalition_table",
]


class CoalitionOracle(Protocol):
    def value(self, coalition: frozenset[int]) -> float:
        """Total income the coalition would earn operating alone."""
        ...


class TableOracle:
    """Explicit coalition-value map, mainly for tests and CSV input."""

    __slots__ = ("values",)

    def __init__(self, values: dict[frozenset[int], float]) -> None:
        self.values = values

    def __eq__(self, other: object) -> bool:
        return self.values == other.values if type(other) is TableOracle else NotImplemented

    def value(self, coalition: frozenset[int]) -> float:
        if not coalition:
            return self.values.get(frozenset(), 0.0)
        try:
            return self.values[coalition]
        except KeyError:
            raise ValueError(f"coalition {sorted(coalition)} missing from table") from None


class ResimulationOracle:
    """Reruns the matching simulation restricted to a coalition.

    Demand, seeds, and every driver's start position are identical across
    calls, so coalition values are well-defined; results are memoized because
    permutation prefixes repeat heavily. All resimulations share one route
    memo: a driver in the same state meets the same batch in many coalitions.
    """

    __slots__ = ("graph", "batches", "template", "spec", "constraints", "value_model", "_memo", "route_memo")

    def __init__(
        self,
        graph: CityGraph,
        batches: list[RequestBatch],
        template: FleetState,
        spec: ObjectiveSpec,
        constraints: DelayConstraints = DelayConstraints(),
        value_model: ValueModel | None = None,
    ) -> None:
        self.graph = graph
        self.batches = batches
        self.template = template
        self.spec = spec
        self.constraints = constraints
        self.value_model = value_model
        self._memo: dict[frozenset[int], dict[int, float]] = {}
        self.route_memo = RouteMemo()

    def incomes(self, coalition: frozenset[int]) -> dict[int, float]:
        if coalition not in self._memo:
            if not coalition:
                self._memo[coalition] = {}
            else:
                self._memo[coalition] = coalition_incomes(
                    self.graph,
                    self.batches,
                    self.template,
                    coalition,
                    self.spec,
                    self.constraints,
                    value_model=self.value_model,
                    route_memo=self.route_memo,
                )
        return self._memo[coalition]

    @property
    def coalitions(self) -> int:
        """Distinct non-empty coalitions resimulated so far."""
        return sum(1 for coalition in self._memo if coalition)

    def value(self, coalition: frozenset[int]) -> float:
        return left_sum(self.incomes(coalition).values())


class ShapleyEstimate(NamedTuple):
    driver_ids: tuple[int, ...]
    values: tuple[float, ...]
    method: str  # exact | monte_carlo
    samples: int = 0
    seed: int | None = None
    # monte_carlo only: per-driver standard error of the value, nan from a
    # single permutation
    std_errors: tuple[float, ...] = ()

    def by_driver(self) -> dict[int, float]:
        return dict(zip(self.driver_ids, self.values))


def shapley_exact(oracle: CoalitionOracle, driver_ids: Sequence[int]) -> ShapleyEstimate:
    """Exact Shapley values by full coalition enumeration (2^n evaluations),
    for at most EXACT_SHAPLEY_CAP drivers."""
    ids = tuple(driver_ids)
    n = len(ids)
    if n == 0:
        raise ValueError("need at least one driver")
    if n > EXACT_SHAPLEY_CAP:
        raise ValueError(
            f"{n} drivers need 2^{n} coalition evaluations; use shapley_mc instead"
        )
    coalition_of = [frozenset(ids[i] for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    vals = [oracle.value(c) for c in coalition_of]
    fact = [math.factorial(k) for k in range(n + 1)]
    # integer weights, one division at the end: on integer-valued tables the
    # accumulation is exact, so small examples come out correctly rounded
    weight = [float(fact[s] * fact[n - 1 - s]) for s in range(n)]
    denom = float(fact[n])
    shapley = []
    for i in range(n):
        bit = 1 << i
        acc = 0.0
        for mask in range(1 << n):
            if mask & bit:
                continue
            acc += weight[bin(mask).count("1")] * (vals[mask | bit] - vals[mask])
        shapley.append(acc / denom)
    return ShapleyEstimate(driver_ids=ids, values=tuple(shapley), method="exact")


def shapley_mc(
    oracle: CoalitionOracle,
    driver_ids: Sequence[int],
    num_permutations: int,
    seed: int,
) -> ShapleyEstimate:
    """Shapley values by uniform permutation sampling.

    Each permutation adds drivers one at a time and credits each with its
    marginal contribution to the prefix; coalition values are memoized, so a
    permutation costs at most n oracle calls and repeats cost none.

    Alongside the sums that make the values, each driver's marginal
    contributions feed a running (Welford) variance; the standard error of a
    value is the sample standard deviation over sqrt(num_permutations).
    """
    ids = tuple(driver_ids)
    n = len(ids)
    if n == 0:
        raise ValueError("need at least one driver")
    if num_permutations < 1:
        raise ValueError("need at least one permutation")
    rng = substream(seed, "mc-shapley")
    memo: dict[int, float] = {}

    def val(mask: int) -> float:
        if mask not in memo:
            memo[mask] = oracle.value(frozenset(ids[i] for i in range(n) if mask >> i & 1))
        return memo[mask]

    acc = [0.0] * n
    mean = [0.0] * n
    sq_dev = [0.0] * n  # sum of squared deviations from the running mean
    for k in range(1, num_permutations + 1):
        mask = 0
        prev = val(0)
        for i in rng.permutation(n):
            mask |= 1 << i
            cur = val(mask)
            gain = cur - prev
            acc[i] += gain
            step = gain - mean[i]
            mean[i] += step / k
            sq_dev[i] += step * (gain - mean[i])
            prev = cur
    values = tuple(a / num_permutations for a in acc)
    if num_permutations > 1:
        scale = (num_permutations - 1) * num_permutations
        std_errors = tuple(math.sqrt(s / scale) for s in sq_dev)
    else:
        std_errors = (math.nan,) * n
    return ShapleyEstimate(
        driver_ids=ids,
        values=values,
        method="monte_carlo",
        samples=num_permutations,
        seed=seed,
        std_errors=std_errors,
    )


class _RedistributionParams(NamedTuple):
    r: float
    mode: str


class RedistributionParams(_RedistributionParams):
    __slots__ = ()

    def __new__(cls, r: float, mode: str = "as_printed") -> RedistributionParams:
        if not 0.0 <= r <= 1.0:
            raise ValueError("risk parameter r must lie in [0, 1]")
        if mode not in PAYOUT_MODES:
            raise ValueError(f"unknown payout mode {mode!r}, expected one of {PAYOUT_MODES}")
        return tuple.__new__(cls, (r, mode))


def redistribute(
    pi: Sequence[float], v: Sequence[float], params: RedistributionParams
) -> list[float]:
    """Payouts after pooling: q_i = r*base_i + (deficit_i/d) * (1-r)*sum(base).

    The base vector is v in as_printed mode and pi in keep_income mode;
    deficit_i = max(0, v_i - r*pi_i) and d is the total deficit, with the pool
    share defined as 0 when nobody runs a deficit. Budget balance
    (sum(q) = sum(pi)) holds in keep_income mode whenever d > 0, and in both
    modes when sum(v) = sum(pi).
    """
    if len(pi) != len(v):
        raise ValueError(f"income and value vectors differ in length: {len(pi)} vs {len(v)}")
    for i, (p_i, v_i) in enumerate(zip(pi, v)):
        if p_i < 0 or v_i < 0:
            raise ValueError(f"negative input at driver index {i}")
    r = params.r
    base = v if params.mode == "as_printed" else pi
    deficits = [max(0.0, v_i - r * p_i) for p_i, v_i in zip(pi, v)]
    d = left_sum(deficits)
    if d == 0.0:
        return [r * b for b in base]
    # one scalar pool rate keeps the endpoint identities exact: at r=1 the
    # rate is 0, and at r=0 with matching totals it is exactly 1
    rate = (1.0 - r) * left_sum(base) / d
    return [r * b + df * rate for b, df in zip(base, deficits)]


def gain_metric(
    pi: Sequence[float], v: Sequence[float], params: RedistributionParams, i: int
) -> float:
    """Payout sensitivity to attributed value: how much q_i moves, per unit of
    v_i, when driver i's value doubles with everything else held fixed."""
    if not 0 <= i < len(v):
        raise ValueError(f"driver index {i} out of range")
    if v[i] == 0:
        raise ValueError("gain is undefined for a driver with zero value")
    doubled = list(v)
    doubled[i] = 2.0 * v[i]
    q = redistribute(pi, v, params)
    q_prime = redistribute(pi, doubled, params)
    return (q_prime[i] - q[i]) / v[i]


def mean_gain(pi: Sequence[float], v: Sequence[float], params: RedistributionParams) -> float:
    gains = [gain_metric(pi, v, params, i) for i in range(len(v))]
    return left_sum(gains) / len(gains)


def minimum_wage_bound(v_i: float, r: float) -> float:
    """Guaranteed payout floor for a driver with attributed value v_i."""
    if v_i < 0:
        raise ValueError("value must be nonnegative")
    return min(r * v_i, (1.0 - r) * v_i)


def load_coalition_table(path: str) -> tuple[TableOracle, int]:
    """Read a `coalition_bitmask,value` CSV; returns the oracle and the driver
    count inferred from the widest bitmask. Driver ids are bit positions."""
    values: dict[frozenset[int], float] = {}
    n = 0
    for line, (mask, val) in read_rows(path, (("coalition_bitmask", int), ("value", float))):
        if mask < 0:
            raise ValueError(f"{path}:{line}: bitmask must be nonnegative")
        coalition = frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)
        if coalition in values:
            raise ValueError(f"{path}:{line}: duplicate coalition {mask}")
        if not coalition and val != 0.0:
            raise ValueError(f"{path}:{line}: the empty coalition must have value 0")
        values[coalition] = val
        n = max(n, mask.bit_length())
    if n == 0:
        raise ValueError(f"{path}: no coalitions found")
    return TableOracle(values), n
