"""Shapley income attribution and risk-parameterized redistribution.

A coalition oracle answers "what would this subset of drivers have earned
on the same demand", the subset given as a bitmask over the oracle's drivers
(bit i is `oracle.driver_ids[i]`), the shape of a `coalition_bitmask,value`
file. Shapley values split the full fleet's income by average marginal
contribution (exactly for small fleets, by permutation sampling otherwise).
The payout step then blends each driver's own number with a
deficit-weighted share of a common pool, controlled by a risk knob r: at the
extremes the payout pins to one of the two vectors, in between low earners
with high attributed value are topped up.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

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


class TableOracle:
    """Explicit coalition values keyed by bitmask, bit i standing for
    driver_ids[i]; mainly for tests and CSV input."""

    __slots__ = ("values", "driver_ids")

    def __init__(self, values: dict[int, float], driver_ids: Sequence[int]) -> None:
        self.values = values
        self.driver_ids = driver_ids

    def value(self, mask: int) -> float:
        try:
            return self.values[mask]
        except KeyError:
            if not mask:
                return 0.0
            members = sorted(d for i, d in enumerate(self.driver_ids) if mask >> i & 1)
            raise ValueError(f"coalition {members} missing from table") from None


class ResimulationOracle:
    """Reruns the matching simulation restricted to a coalition, given as a
    bitmask over the template's drivers.

    Demand, seeds, and every driver's start position are identical across
    calls, so coalition values are well-defined; each coalition's incomes are
    memoized, as permutation prefixes repeat heavily, and its value is summed
    from them. All resimulations share one route memo: a driver in the same
    state meets the same batch in many coalitions.
    """

    __slots__ = (
        "graph", "batches", "template", "spec", "constraints", "value_model", "driver_ids",
        "_incomes", "route_memo",
    )

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
        self.driver_ids = tuple(d.driver_id for d in template.drivers)
        self._incomes: dict[int, dict[int, float]] = {0: {}}
        self.route_memo = RouteMemo()

    def incomes(self, mask: int) -> dict[int, float]:
        incomes = self._incomes.get(mask)
        if incomes is None:
            incomes = self._incomes[mask] = coalition_incomes(
                self.graph,
                self.batches,
                self.template,
                mask,
                self.spec,
                self.constraints,
                value_model=self.value_model,
                route_memo=self.route_memo,
            )
        return incomes

    @property
    def coalitions(self) -> int:
        """Distinct non-empty coalitions resimulated so far."""
        return len(self._incomes) - 1

    def value(self, mask: int) -> float:
        return left_sum(self.incomes(mask).values())


class ShapleyEstimate(NamedTuple):
    driver_ids: tuple[int, ...]
    values: tuple[float, ...]
    method: str  # exact | monte_carlo
    samples: int = 0
    seed: int | None = None
    # monte_carlo only: per-driver standard error of the value, nan from a
    # single permutation
    std_errors: tuple[float, ...] = ()


def shapley_exact(oracle: TableOracle | ResimulationOracle) -> ShapleyEstimate:
    """Exact Shapley values of the oracle's drivers by full coalition
    enumeration (2^n evaluations), for at most EXACT_SHAPLEY_CAP drivers."""
    ids = tuple(oracle.driver_ids)
    n = len(ids)
    if n == 0:
        raise ValueError("need at least one driver")
    if n > EXACT_SHAPLEY_CAP:
        raise ValueError(
            f"{n} drivers need 2^{n} coalition evaluations; use shapley_mc instead"
        )
    vals = [oracle.value(mask) for mask in range(1 << n)]
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
    oracle: TableOracle | ResimulationOracle, num_permutations: int, seed: int
) -> ShapleyEstimate:
    """Shapley values of the oracle's drivers by uniform permutation sampling.

    Each permutation adds drivers one at a time and credits each with its
    marginal contribution to the prefix; a permutation costs n oracle calls,
    and the resimulation oracle memoizes each coalition's incomes, so repeats
    cost no resimulation.

    Alongside the sums that make the values, each driver's marginal
    contributions feed a running (Welford) variance; the standard error of a
    value is the sample standard deviation over sqrt(num_permutations).
    """
    ids = tuple(oracle.driver_ids)
    n = len(ids)
    if n == 0:
        raise ValueError("need at least one driver")
    if num_permutations < 1:
        raise ValueError("need at least one permutation")
    rng = substream(seed, "mc-shapley")
    val = oracle.value
    empty = val(0)
    acc = [0.0] * n
    mean = [0.0] * n
    sq_dev = [0.0] * n  # sum of squared deviations from the running mean
    for k in range(1, num_permutations + 1):
        mask = 0
        prev = empty
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


def load_coalition_table(path: str) -> TableOracle:
    """Read a `coalition_bitmask,value` CSV into an oracle over drivers
    0..n-1, n the width of the widest bitmask: driver ids are bit positions."""
    values: dict[int, float] = {}
    for line, (mask, val) in read_rows(path, (("coalition_bitmask", int), ("value", float))):
        if mask < 0:
            raise ValueError(f"{path}:{line}: bitmask must be nonnegative")
        if mask in values:
            raise ValueError(f"{path}:{line}: duplicate coalition {mask}")
        if not mask and val != 0.0:
            raise ValueError(f"{path}:{line}: the empty coalition must have value 0")
        values[mask] = val
    n = max(values, default=0).bit_length()
    if n == 0:
        raise ValueError(f"{path}: no coalitions found")
    return TableOracle(values, range(n))
