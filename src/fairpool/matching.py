"""Batch assignment of ride requests to drivers.

Each epoch the new requests are pooled, every driver enumerates the request
subsets it could absorb without breaking the service guarantees (bounded
pickup wait, bounded dropoff detour, seat capacity), each candidate is scored
by its marginal objective gain plus a discounted value estimate of the state
it leads to, and the one-action-per-driver / one-driver-per-request problem
is solved to optimality.

Subset enumeration prunes upward: travel times form a shortest-path metric,
so dropping a rider from a feasible route never delays the remaining stops,
which means any feasible subset has all its sub-subsets feasible and sizes
can be grown level by level.

Before that search, an idle driver (no accepted riders) drops every request
whose direct pickup already breaks the wait bound. Its only possible first
stop is a pickup driven straight from where it is, and the filter evaluates
exactly the expression the route search applies to that stop, so such a
request's singleton is infeasible and so, by the lattice property, is every
set that contains it. The filter stops at idle drivers. For a busy driver it
would have to argue that no detour through other stops reaches a pickup
sooner than the direct leg, which rests on the triangle inequality holding
for the float sums along a route; fractional edge times in a CSV city can
break that by an ulp, and then the filter would drop a feasible set.

Coalition resimulations replay the same demand with subsets of the fleet, so
one driver meets the same batch in the same state many times over. A
:class:`RouteMemo` passed to :func:`enumerate_feasible` stores the feasible
(requests, route) pairs under everything route search reads and hands them
back on a repeat, which makes the repeat exact by construction.

The assignment solve is a two-pass branch and bound over drivers in index
order. Besides the per-driver-maxima bound it prunes by state dominance: two
partial assignments that have used the same requests before the same driver
face identical completions, and because round-to-nearest float addition is
monotone, the one with the smaller or equal prefix sum cannot end higher.
Remembering the best prefix seen per (driver, used-requests) state collapses
the tie plateaus that objectives with many equal weights produce, without
changing the optimum or the canonical argmax.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .city import CityGraph, fare
from .demand import RequestBatch, RequestLog, RideRequest
from .fleet import (
    DROPOFF,
    PICKUP,
    DriverState,
    FleetState,
    RoutePlan,
    Stop,
    apply_matching,
)
from .objectives import NeighborhoodTallies, ObjectiveSpec, ObjectiveState, delta_objective, eval_objective
from .value import StateKey, ValueModel, state_key

__all__ = [
    "DelayConstraints",
    "FeasibleAction",
    "RouteMemo",
    "AssignmentSolution",
    "EpochResult",
    "route_feasible",
    "enumerate_feasible",
    "solve_assignment",
    "run_epoch",
]


@dataclass(frozen=True)
class DelayConstraints:
    """Service guarantees, both strict inequalities in seconds."""

    max_pickup_delay: float = 300.0  # wait from request creation to pickup
    max_detour_delay: float = 60.0  # dropoff lateness versus a direct ride from pickup


@dataclass(frozen=True)
class FeasibleAction:
    driver_id: int
    requests: tuple[RideRequest, ...]  # sorted by request id; empty = keep current route
    route: RoutePlan | None  # None only for the empty action

    @property
    def request_ids(self) -> tuple[int, ...]:
        return tuple(req.request_id for req in self.requests)


@dataclass
class RouteMemo:
    """Feasible (requests, route) pairs of earlier enumerations on one graph.

    The key is everything route search reads: the driver's loc, secs_to_loc,
    capacity, active requests, onboard riders with their pickup times, the
    batch, the clock and the constraints. It leaves out the driver id, so
    drivers in the same state share an entry, and the graph, so a memo must
    serve a single graph.
    """

    entries: dict[tuple, tuple[tuple[tuple[RideRequest, ...], RoutePlan], ...]] = field(
        default_factory=dict
    )
    hits: int = 0


def route_feasible(
    graph: CityGraph,
    driver: DriverState,
    new_requests: tuple[RideRequest, ...],
    clock: float,
    constraints: DelayConstraints,
) -> RoutePlan | None:
    """Best stop ordering serving the driver's unfinished riders plus the new
    ones, or None when no ordering meets the guarantees.

    Riders already in the car only need a dropoff; accepted-but-waiting riders
    keep their original creation time, so taking on more work can never
    silently degrade an earlier promise. Among feasible orderings the one with
    the least total delay wins, ties broken by the stop key sequence, which
    pins the plan down deterministically.
    """
    requests: dict[int, RideRequest] = dict(driver.active)
    for req in new_requests:
        requests[req.request_id] = req
    if not requests:
        return RoutePlan(stops=())

    picked: dict[int, float] = dict(driver.onboard)
    onboard = set(driver.onboard)
    pending = set(requests) - onboard
    capacity = driver.capacity
    max_pickup = constraints.max_pickup_delay
    max_detour = constraints.max_detour_delay
    secs = graph.travel_secs

    best_delay = [float("inf")]
    best_keys: list[tuple[tuple[int, int], ...] | None] = [None]
    best_plan: list[tuple[Stop, ...] | None] = [None]

    seq: list[Stop] = []
    keys: list[tuple[int, int]] = []

    def reachable(loc: int, now: float) -> bool:
        # admissible lower bounds: direct travel can only underestimate arrival
        row = secs[loc]
        for rid in pending:
            req = requests[rid]
            if now + row[req.origin] - req.created_at >= max_pickup:
                return False
        for rid in onboard:
            req = requests[rid]
            direct = secs[req.origin][req.destination]
            if now + row[req.destination] - (picked[rid] + direct) >= max_detour:
                return False
        return True

    def dfs(loc: int, now: float, delay_sum: float) -> None:
        if not onboard and not pending:
            key_seq = tuple(keys)
            if delay_sum < best_delay[0] or (
                delay_sum == best_delay[0]
                and (best_keys[0] is None or key_seq < best_keys[0])
            ):
                best_delay[0] = delay_sum
                best_keys[0] = key_seq
                best_plan[0] = tuple(seq)
            return
        options = sorted([(rid, 0) for rid in pending] + [(rid, 1) for rid in onboard])
        row = secs[loc]
        for rid, kind_rank in options:
            req = requests[rid]
            if kind_rank == 0:
                if len(onboard) >= capacity:
                    continue
                arrival = now + row[req.origin]
                delay = arrival - req.created_at
                if delay >= max_pickup or delay_sum + delay > best_delay[0]:
                    continue
                picked[rid] = arrival
                pending.discard(rid)
                onboard.add(rid)
                if reachable(req.origin, arrival):
                    seq.append(Stop(PICKUP, rid, req.origin, arrival))
                    keys.append((rid, 0))
                    dfs(req.origin, arrival, delay_sum + delay)
                    seq.pop()
                    keys.pop()
                onboard.discard(rid)
                pending.add(rid)
                del picked[rid]
            else:
                arrival = now + row[req.destination]
                direct = secs[req.origin][req.destination]
                delay = arrival - (picked[rid] + direct)
                if delay >= max_detour or delay_sum + delay > best_delay[0]:
                    continue
                onboard.discard(rid)
                if reachable(req.destination, arrival):
                    seq.append(Stop(DROPOFF, rid, req.destination, arrival))
                    keys.append((rid, 1))
                    dfs(req.destination, arrival, delay_sum + delay)
                    seq.pop()
                    keys.pop()
                onboard.add(rid)

    dfs(driver.loc, clock + driver.secs_to_loc, 0.0)
    if best_plan[0] is None:
        return None
    return RoutePlan(stops=best_plan[0])


def enumerate_feasible(
    graph: CityGraph,
    driver: DriverState,
    batch: tuple[RideRequest, ...],
    clock: float,
    constraints: DelayConstraints,
    memo: RouteMemo | None = None,
) -> list[FeasibleAction]:
    """All request subsets the driver can take, each with its best route.

    The empty action (keep the current route) is always first. Subsets are
    grown level by level and a set is only attempted when every subset one
    smaller was feasible; an idle driver skips requests it cannot reach in
    time (see the module docstring). With a memo, a driver state already
    enumerated against this batch and clock gets the stored pairs back under
    its own id.
    """
    actions = [FeasibleAction(driver_id=driver.driver_id, requests=(), route=None)]
    seats_free = driver.capacity - driver.occupancy
    if seats_free <= 0 or not batch:
        return actions
    if memo is not None:
        key = (
            driver.loc,
            driver.secs_to_loc,
            driver.capacity,
            tuple(sorted(driver.active.items())),
            tuple(sorted(driver.onboard.items())),
            batch,
            clock,
            constraints,
        )
        stored = memo.entries.get(key)
        if stored is not None:
            memo.hits += 1
            actions.extend(
                FeasibleAction(driver_id=driver.driver_id, requests=combo, route=plan)
                for combo, plan in stored
            )
            return actions
    ordered = sorted(batch, key=lambda r: r.request_id)
    if not driver.active:
        # the route search's own first-pickup test, applied up front
        now = clock + driver.secs_to_loc
        row = graph.travel_secs[driver.loc]
        max_pickup = constraints.max_pickup_delay
        ordered = [r for r in ordered if not now + row[r.origin] - r.created_at >= max_pickup]
    prev_level: set[frozenset[int]] = {frozenset()}
    for size in range(1, min(seats_free, len(ordered)) + 1):
        level: set[frozenset[int]] = set()
        for combo in itertools.combinations(ordered, size):
            ids = frozenset(req.request_id for req in combo)
            if size > 1 and any(ids - {rid} not in prev_level for rid in ids):
                continue
            plan = route_feasible(graph, driver, combo, clock, constraints)
            if plan is None:
                continue
            level.add(ids)
            actions.append(
                FeasibleAction(driver_id=driver.driver_id, requests=combo, route=plan)
            )
        if not level:
            break
        prev_level = level
    if memo is not None:
        memo.entries[key] = tuple((action.requests, action.route) for action in actions[1:])
    return actions


@dataclass(frozen=True)
class AssignmentSolution:
    total_weight: float
    chosen: tuple[int, ...]  # index into each driver's action list
    nodes: int  # search nodes entered by both passes together


def solve_assignment(
    weights: list[list[float]],
    request_ids: list[list[tuple[int, ...]]],
) -> AssignmentSolution:
    """Exact maximum-weight assignment: one action per driver, no request in
    two actions.

    Branch and bound in two passes. The first finds the optimal value using a
    sum-of-per-driver-maxima bound; the second walks drivers in index order
    and actions in request-id order and returns the first assignment that
    attains the optimum, which makes the reported argmax independent of
    search heuristics.

    Both passes prune by state dominance. A search state is the next driver
    index plus the mask of requests already used, and the completions open
    from it do not depend on how it was reached. Totals are folded left to
    right in driver order, and IEEE-754 round-to-nearest addition is monotone
    (a <= b implies fl(a + c) <= fl(b + c)), so a prefix sum no larger than
    one already explored from the same state can neither fold to a larger
    total nor reach the optimum where the larger prefix could not. Pass one
    therefore skips a state whose prefix is at most the largest prefix it
    already searched from there, and pass two skips a state whose prefix is
    at most the largest one from which it already failed to reach the
    optimum. Both prunes are exact: the optimum and the canonical argmax are
    the ones an unpruned search returns, bit for bit.
    """
    n = len(weights)
    if n != len(request_ids):
        raise ValueError("weights and request_ids must align")
    all_ids = sorted({rid for per in request_ids for ids in per for rid in ids})
    bit = {rid: 1 << i for i, rid in enumerate(all_ids)}
    masks = [[0 for _ in per] for per in request_ids]
    for i, per in enumerate(request_ids):
        for j, ids in enumerate(per):
            m = 0
            for rid in ids:
                if m & bit[rid]:
                    raise ValueError(f"duplicate request {rid} inside one action")
                m |= bit[rid]
            masks[i][j] = m

    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        if not weights[i]:
            raise ValueError(f"driver {i} has no actions; include the empty action")
        suffix[i] = suffix[i + 1] + max(weights[i])

    # Bounds are float sums taken in a different order than leaf accumulation,
    # so at mathematical ties they can round a hair below an achievable total;
    # prune with slack so the true optimum always survives, and keep leaf
    # comparisons exact.
    slack = 1e-9 * (1.0 + sum(max(abs(w) for w in per) for per in weights))

    by_weight = [sorted(range(len(w)), key=lambda j: -w[j]) for w in weights]
    best = [float("-inf")]
    nodes = [0]
    # memo[i][used]: the dominating prefix sum recorded for state (i, used)
    memo: list[dict[int, float]] = [{} for _ in range(n)]

    def search_value(i: int, used: int, acc: float) -> None:
        nodes[0] += 1
        if i == n:
            if acc > best[0]:
                best[0] = acc
            return
        if acc + suffix[i] <= best[0] - slack:
            return
        seen = memo[i].get(used)
        if seen is not None and acc <= seen:
            return
        memo[i][used] = acc
        for j in by_weight[i]:
            if used & masks[i][j]:
                continue
            search_value(i + 1, used | masks[i][j], acc + weights[i][j])

    search_value(0, 0, 0.0)
    optimum = best[0]
    for level in memo:
        level.clear()

    canonical = [
        sorted(range(len(per)), key=lambda j: (per[j], j)) for per in request_ids
    ]

    def search_argmax(i: int, used: int, acc: float) -> tuple[int, ...] | None:
        nodes[0] += 1
        if i == n:
            return () if acc == optimum else None
        failed = memo[i].get(used)
        if failed is not None and acc <= failed:
            return None
        for j in canonical[i]:
            if used & masks[i][j]:
                continue
            if acc + weights[i][j] + suffix[i + 1] < optimum - slack:
                continue
            rest = search_argmax(i + 1, used | masks[i][j], acc + weights[i][j])
            if rest is not None:
                return (j,) + rest
        memo[i][used] = acc
        return None

    chosen = search_argmax(0, 0, 0.0)
    if chosen is None:
        raise RuntimeError("assignment search failed to reproduce its own optimum")
    return AssignmentSolution(total_weight=optimum, chosen=chosen, nodes=nodes[0])


@dataclass
class EpochResult:
    epoch_index: int
    clock: float
    batch_size: int
    assignments: dict[int, FeasibleAction]  # every driver, empty actions included
    deltas: dict[int, float]  # myopic objective gain of each chosen action
    pre_keys: dict[int, StateKey]  # driver state keys before the actions applied
    total_weight: float
    objective_value: float
    num_actions: int
    solver_nodes: int


def run_epoch(
    graph: CityGraph,
    fleet: FleetState,
    batch: RequestBatch,
    log: RequestLog,
    tallies: NeighborhoodTallies,
    spec: ObjectiveSpec,
    constraints: DelayConstraints,
    value_model: ValueModel | None = None,
    route_memo: RouteMemo | None = None,
) -> EpochResult:
    """Match one batch at the current fleet clock and commit the result."""
    log.add_batch(batch)
    for req in batch.requests:
        tallies.add_requested(graph.neighborhoods.label(req.origin))
    state = ObjectiveState.from_fleet(fleet, tallies)

    per_driver: list[list[FeasibleAction]] = []
    weights: list[list[float]] = []
    ids: list[list[tuple[int, ...]]] = []
    deltas: list[list[float]] = []
    pre_keys: dict[int, StateKey] = {}
    for di, driver in enumerate(fleet.drivers):
        actions = enumerate_feasible(
            graph, driver, batch.requests, fleet.clock, constraints, route_memo
        )
        pre_keys[driver.driver_id] = state_key(graph, driver, fleet.clock)
        row_w: list[float] = []
        row_ids: list[tuple[int, ...]] = []
        row_d: list[float] = []
        for action in actions:
            fares = [fare(graph, r.origin, r.destination) for r in action.requests]
            labels = [graph.neighborhoods.label(r.origin) for r in action.requests]
            delta = delta_objective(spec, state, di, fares, labels)
            weight = delta
            if value_model is not None:
                if action.route is not None and action.route.stops:
                    end = action.route.stops[-1].location
                else:
                    end = driver.route_end()
                weight += value_model.gamma * value_model.estimate(
                    state_key(graph, driver, fleet.clock, route_end=end)
                )
            row_w.append(weight)
            row_ids.append(action.request_ids)
            row_d.append(delta)
        per_driver.append(actions)
        weights.append(row_w)
        ids.append(row_ids)
        deltas.append(row_d)

    solution = solve_assignment(weights, ids)
    chosen: dict[int, FeasibleAction] = {}
    chosen_deltas: dict[int, float] = {}
    for di, driver in enumerate(fleet.drivers):
        action = per_driver[di][solution.chosen[di]]
        chosen[driver.driver_id] = action
        chosen_deltas[driver.driver_id] = deltas[di][solution.chosen[di]]

    apply_matching(fleet, chosen, graph)
    for driver_id, action in chosen.items():
        for req in action.requests:
            log.mark_serviced(req.request_id, driver_id)
            tallies.add_serviced(graph.neighborhoods.label(req.origin))

    after = eval_objective(spec, ObjectiveState.from_fleet(fleet, tallies))
    return EpochResult(
        epoch_index=batch.epoch_index,
        clock=fleet.clock,
        batch_size=len(batch.requests),
        assignments=chosen,
        deltas=chosen_deltas,
        pre_keys=pre_keys,
        total_weight=solution.total_weight,
        objective_value=after,
        num_actions=sum(len(a) for a in per_driver),
        solver_nodes=solution.nodes,
    )
