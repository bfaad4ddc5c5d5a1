"""Batch assignment of ride requests to drivers.

Each epoch the new requests are pooled, every driver enumerates the request
subsets it could absorb without breaking the service guarantees (bounded
pickup wait, bounded dropoff detour, seat capacity), each candidate is scored
by its marginal objective gain plus a discounted value estimate of the state
it leads to, and the one-action-per-driver / one-driver-per-request problem
is solved to optimality.

Subset enumeration prunes upward: travel times form a shortest-path metric,
so dropping a rider from a feasible route never delays the remaining stops,
which means any feasible subset has all its sub-subsets feasible. Level 1
finds each request a driver can take alone; larger sets grow level by level
from those feasible singles, a set being tried only when every subset one
smaller was feasible.

Before level 1, every driver drops the requests whose singleton would die at
the route search's first step; the caller guarantees it a free seat, as a
full car takes only the empty action. It lists its own possible first stops:
each pickup or dropoff of a rider it has already accepted that passes every
other search test not involving a new request (the stop's own wait or detour
bound, and direct reachability of its other riders). A request is dropped
when its direct pickup already breaks the wait bound and, from every one of
those stops, it fails the reachability test too. These are the expressions
the search itself evaluates at depth one, so with that request every first
stop is rejected before the search goes deeper: its singleton is infeasible,
and so is every set that contains it. Nothing rests on the triangle
inequality, which the float sums of a CSV city with fractional edge times
can break by an ulp, so the filter needs no rounding margin and its output
is bit-identical to an unfiltered enumeration. For an idle driver the stop
list is empty and the filter is the direct-pickup test alone.

A one-request route that carries one rider at a time needs no search. Such
are an idle driver's routes, whatever its capacity, and a single-seat
driver's with nobody aboard and one accepted rider waiting. After each
pickup the car is full or holds the route's only rider, so the next stop can
only be that rider's dropoff: the search tree is one chain of stops per
order of the riders, sharing only the root. A lone request has one chain,
root -> pickup -> dropoff (so has a request reusing the waiting rider's id,
which replaces that rider in the search's rider map); with a rider waiting
there are two, each serving both riders in turn, lower request id first and
then the other way round, the order of their first stop keys.

:func:`enumerate_feasible` has one walk for all these chains, and it uses
route_feasible's own expressions. A pickup tests the wait bound, the
best-delay prune delay_sum + delay > best_delay, and reachability of the
stops still open: its own dropoff and, first in a chain of two, the other
rider's pickup. Its dropoff tests the prune and that pickup's reach. It need
not repeat its own bound test: its detour delay (a + secs[o][d]) - (a +
direct), with a the pickup's arrival and direct = secs[o][d], is the
expression the pickup's reach test has just passed; likewise the second
pickup's wait is the first dropoff's reach test of it. The leaf accepts
delay_sum < best_delay, or an equal sum while no chain has been accepted:
the search's key-order tie-break, since the first chain's keys sort below
the second's. So the first chain's leaf prunes the second, as in the search.

The walk builds the winning chain's stops from its own arrival sums, which
the search's stop replay folds the same way, so the action is
bit-identical, and counts as the search it replaces: one call, and the root
plus every node its chains enter (3 for a lone request, or 1 when the reach
test fails at the root; at most 9 for two chains). Every other driver's
singles, and every set of two or more requests, go through the search.

Coalition resimulations replay the same demand with subsets of the fleet, so
one driver meets the same batch in the same state many times over. A
:class:`RouteMemo` passed to :func:`enumerate_feasible` stores the enumerated
action tuple under everything route search reads and hands it back on a
repeat, which makes the repeat exact by construction. Each action carries the
request ids, fares, origin labels and route end that scoring reads, so a
repeat also skips deriving them. The same memo, passed to :func:`run_epoch`,
stores each epoch's assignment solution under the solve's two arguments, the
weight rows and the request-id rows: coalitions that reach an epoch in the
same state score the same actions and pose the same solve, and
:func:`solve_assignment` is a pure function of its arguments.

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
import math
from typing import NamedTuple

from .city import CityGraph, fare
from .demand import RequestBatch, RequestLog, RideRequest
from .fleet import (
    DROPOFF,
    PICKUP,
    DriverState,
    FleetState,
    Stop,
    apply_matching,
)
from .objectives import (
    NeighborhoodTallies,
    ObjectiveSpec,
    ObjectiveState,
    delta_objective,
    eval_objective,
    left_sum,
)
from .value import StateKey, ValueModel, state_key

__all__ = [
    "DelayConstraints",
    "FeasibleAction",
    "RouteMemo",
    "RouteStats",
    "AssignmentSolution",
    "EpochResult",
    "route_feasible",
    "enumerate_feasible",
    "solve_assignment",
    "run_epoch",
]


class DelayConstraints(NamedTuple):
    """Service guarantees, both strict inequalities in seconds."""

    max_pickup_delay: float = 300.0  # wait from request creation to pickup
    max_detour_delay: float = 60.0  # dropoff lateness versus a direct ride from pickup


class FeasibleAction(NamedTuple):
    """A request subset a driver can take, its best route, and what an epoch
    reads to score it, derived once: by :meth:`build` for a set of two or
    more requests, and with the same bits by :func:`enumerate_feasible` for
    a single request, walked or searched."""

    requests: tuple[RideRequest, ...]  # sorted by request id; empty = keep current route
    route: tuple[Stop, ...]  # () only for the empty action
    request_ids: tuple[int, ...]
    fares: tuple[float, ...]  # fare(graph, origin, destination) per request
    origin_labels: tuple[int, ...]
    end: int | None  # the route's last stop; None for the empty action, which keeps the driver's

    @classmethod
    def build(cls, graph: CityGraph, requests: tuple[RideRequest, ...],
              route: tuple[Stop, ...]) -> FeasibleAction:
        fares = tuple(fare(graph, r.origin, r.destination) for r in requests)
        labels = tuple(graph.neighborhoods.labels[r.origin] for r in requests)
        ids = tuple(r.request_id for r in requests)
        return cls(requests, route, ids, fares, labels, route[-1].location if route else None)


# the empty action alone; every enumeration starts with this one shared action
_ONLY_EMPTY = (FeasibleAction((), (), (), (), (), None),)


class RouteMemo:
    """The action tuples of earlier enumerations on one graph, and the
    solutions of earlier assignment solves.

    An enumeration's key is everything route search reads: the driver's loc,
    secs_to_loc, capacity, active requests, onboard riders with their pickup
    times, the batch, the clock and the constraints. It leaves out the driver
    id, so drivers in the same state share an entry, and the graph, so a memo
    must serve a single graph.

    A solve's key is its two arguments as tuples: the weight rows and the
    request-id rows. Float keys compare by value, which differs from their
    bits in two ways only. 0.0 and -0.0 are equal, but a solve cannot tell
    them apart: every sum it folds starts at +0.0 and so is never -0.0, and
    x + 0.0 and x + -0.0 are both x for any other x; its sorts, maxima and
    comparisons treat the two zeros alike. So rows differing only in the
    sign of a zero get the same total_weight bits, chosen and nodes. A nan
    equals no other float, so a row holding one matches only a row holding
    the very same object, which has the same bits. `solves` and `solve_hits`
    are counted apart from the enumerations' `entries` and `hits`.
    """

    __slots__ = ("entries", "hits", "solves", "solve_hits")

    def __init__(self) -> None:
        self.entries: dict[tuple, tuple[FeasibleAction, ...]] = {}
        self.hits = 0
        self.solves: dict[tuple, AssignmentSolution] = {}
        self.solve_hits = 0


class RouteStats:
    """Route-search work: searches decided and their DFS nodes entered
    (roots included). A single request that :func:`enumerate_feasible`
    walks instead of searching (an idle driver's, or a single-seat driver's
    with one rider waiting) counts as the search it replaces: one call, and
    the root plus every node its chains of stops enter."""

    __slots__ = ("calls", "nodes")

    def __init__(self) -> None:
        self.calls = 0
        self.nodes = 0


def route_feasible(
    graph: CityGraph,
    driver: DriverState,
    new_requests: tuple[RideRequest, ...],
    clock: float,
    constraints: DelayConstraints,
    stats: RouteStats | None = None,
) -> tuple[Stop, ...] | None:
    """Best stop ordering serving the driver's unfinished riders plus the new
    ones, as a tuple of stops (() when there is no rider at all), or None
    when no ordering meets the guarantees.

    Riders already in the car only need a dropoff; accepted-but-waiting riders
    keep their original creation time, so taking on more work can never
    silently degrade an earlier promise. Among feasible orderings the one with
    the least total delay wins, ties broken by the stop key sequence, which
    pins the plan down deterministically.

    A depth-first search over stop orders. Rider i (in request-id order) is
    waiting, onboard or done; at each node its one open stop (pickup or
    dropoff) is tried in index order, which is the order of the stop keys
    (request id, 0 for pickup / 1 for dropoff), and a stop is entered only if
    its own bound holds, its delay does not push the running sum past the best
    plan, and every open stop is still directly reachable in time. Stop keys
    are kept as 2 * i + kind, which compares like the (request id, kind) pair,
    and only the winning plan's stops are built, replaying its keys with the
    same arrival sums the search took. `stats` counts the search and its
    nodes.

    The riders not yet done are one list in index order, each entry its open
    stop as (target, base, bound, key): a pickup's is (origin, creation time,
    wait bound), a dropoff's (destination, pickup time + direct ride, detour
    bound), the base summed once with the bits the search would sum it with
    at every test. A stop's delay is then arrival - base and its reach test
    arrival + travel - base >= bound, the same expressions for both kinds. A
    pickup swaps its entry for the dropoff's, a dropoff removes it, and both
    put it back on the way up.
    """
    requests: dict[int, RideRequest] = dict(driver.active)
    for req in new_requests:
        requests[req.request_id] = req
    if stats is not None:
        stats.calls += 1
    if not requests:
        return ()

    secs = graph.travel_secs
    max_pickup = constraints.max_pickup_delay
    max_detour = constraints.max_detour_delay
    capacity = driver.capacity
    picked_at = driver.onboard
    ids = sorted(requests)
    dest: list[int] = []
    direct: list[float] = []
    open_stops: list[tuple[int, float, float, int]] = []  # (target, base, bound, key)
    for i, rid in enumerate(ids):
        _, o, d, t = requests[rid]
        dest.append(d)
        direct.append(secs[o][d])
        if rid in picked_at:
            open_stops.append((d, picked_at[rid] + direct[i], max_detour, 2 * i + 1))
        else:
            open_stops.append((o, t, max_pickup, 2 * i))

    best_delay = float("inf")
    best_keys: list[int] | None = None
    keys: list[int] = []
    nodes = 0

    def dfs(loc: int, now: float, delay_sum: float, in_car: int) -> None:
        nonlocal best_delay, best_keys, nodes
        nodes += 1
        if not open_stops:
            if delay_sum < best_delay or (
                delay_sum == best_delay and (best_keys is None or keys < best_keys)
            ):
                best_delay = delay_sum
                best_keys = keys[:]
            return
        row = secs[loc]
        # a step edits open_stops and restores it before the loop moves on,
        # so the iteration is undisturbed
        for p, entry in enumerate(open_stops):
            stop, base, bound, key = entry
            dropoff = key & 1
            if not dropoff and in_car >= capacity:
                continue
            arrival = now + row[stop]
            delay = arrival - base
            if delay >= bound or delay_sum + delay > best_delay:
                continue
            if dropoff:
                del open_stops[p]
            else:
                i = key >> 1
                open_stops[p] = (dest[i], arrival + direct[i], max_detour, key + 1)
            # every open stop must stay reachable: direct travel is a lower bound
            here = secs[stop]
            for target, other_base, other_bound, _ in open_stops:
                if arrival + here[target] - other_base >= other_bound:
                    break
            else:
                keys.append(key)
                dfs(stop, arrival, delay_sum + delay, in_car - 1 if dropoff else in_car + 1)
                keys.pop()
            if dropoff:
                open_stops.insert(p, entry)
            else:
                open_stops[p] = entry

    dfs(driver.loc, clock + driver.secs_to_loc, 0.0, len(picked_at))
    del dfs  # it names itself through its closure cell: break the cycle
    if stats is not None:
        stats.nodes += nodes
    if best_keys is None:
        return None
    # replay the winning keys with the search's own arrival sums
    plan = []
    loc, now = driver.loc, clock + driver.secs_to_loc
    for key in best_keys:
        rid = ids[key >> 1]
        _, o, d, _ = requests[rid]
        stop = d if key & 1 else o
        now = now + secs[loc][stop]
        plan.append(Stop(DROPOFF if key & 1 else PICKUP, rid, stop, now))
        loc = stop
    return tuple(plan)


def _first_step_survivors(
    graph: CityGraph,
    driver: DriverState,
    batch: tuple[RideRequest, ...],
    clock: float,
    constraints: DelayConstraints,
) -> list[RideRequest]:
    """The batch in request-id order, less every request whose singleton
    route search rejects at its first step (see the module docstring).

    The caller guarantees a free seat. The driver's own first stops are the
    pickups and dropoffs of its riders that pass each other search test not
    involving a new request: the stop's own wait or detour bound, and
    reachability of its other riders. A request goes when its direct pickup
    breaks the wait bound and it is out of reach from every such stop. Every
    test is route_feasible's own expression at depth one."""
    secs = graph.travel_secs
    max_pickup = constraints.max_pickup_delay
    max_detour = constraints.max_detour_delay
    active = driver.active
    onboard = driver.onboard
    now = clock + driver.secs_to_loc
    row = secs[driver.loc]
    stops = []
    for rid, req in active.items():
        if rid in onboard:
            loc = req.destination
            arrival = now + row[loc]
            if arrival - (onboard[rid] + secs[req.origin][loc]) >= max_detour:
                continue
            riding = {oid: at for oid, at in onboard.items() if oid != rid}
        else:
            loc = req.origin
            arrival = now + row[loc]
            if arrival - req.created_at >= max_pickup:
                continue
            riding = {**onboard, rid: arrival}
        here = secs[loc]
        if any(
            arrival + here[other.origin] - other.created_at >= max_pickup
            for oid, other in active.items()
            if oid != rid and oid not in onboard
        ) or any(
            arrival + here[active[oid].destination]
            - (at + secs[active[oid].origin][active[oid].destination])
            >= max_detour
            for oid, at in riding.items()
        ):
            continue
        stops.append((loc, arrival))

    survivors = []
    for r in sorted(batch, key=lambda r: r.request_id):
        if now + row[r.origin] - r.created_at >= max_pickup:
            for loc, arrival in stops:
                if not arrival + secs[loc][r.origin] - r.created_at >= max_pickup:
                    break
            else:
                continue  # out of reach from every first stop
        survivors.append(r)
    return survivors


def enumerate_feasible(
    graph: CityGraph,
    driver: DriverState,
    batch: tuple[RideRequest, ...],
    clock: float,
    constraints: DelayConstraints,
    memo: RouteMemo | None = None,
    stats: RouteStats | None = None,
) -> tuple[FeasibleAction, ...]:
    """All request subsets the driver can take, each with its best route.

    The empty action (keep the current route) is always first, then the
    single requests in request-id order, then larger sets level by level,
    each grown from the feasible singles and attempted only when every
    subset one smaller was feasible. Requests whose single would fail the
    route search's first step are dropped up front. An idle driver's
    singles, and a single-seat driver's with one rider waiting, carry one
    rider at a time: their one or two forced chains of stops are walked
    instead of searched (see the module docstring). With a memo, a driver
    state already enumerated against this batch and clock gets the stored
    tuple back as is. `stats` counts the route searches decided, those
    walks included.
    """
    seats_free = driver.capacity - len(driver.onboard)
    if seats_free <= 0 or not batch:
        return _ONLY_EMPTY
    if memo is not None:
        key = (
            driver.loc,
            driver.secs_to_loc,
            driver.capacity,
            tuple(sorted(driver.active.items())) if driver.active else (),
            tuple(sorted(driver.onboard.items())) if driver.onboard else (),
            batch,
            clock,
            constraints,
        )
        stored = memo.entries.get(key)
        if stored is not None:
            memo.hits += 1
            return stored
    actions = list(_ONLY_EMPTY)
    secs, minutes, delta = graph.travel_secs, graph.travel_minutes, graph.delta
    labels = graph.neighborhoods.labels
    max_pickup, max_detour = constraints
    start, now = driver.loc, clock + driver.secs_to_loc
    active = driver.active
    # an idle driver, or a single seat with one rider waiting (a single free
    # seat means nobody aboard): each request's route carries one rider at a
    # time, so its chains of stops are walked instead of searched (module
    # docstring)
    walk = not active or (len(active) == 1 and driver.capacity == 1)
    waiting = next(iter(active.values())) if active else None
    new = tuple.__new__
    ordered = _first_step_survivors(graph, driver, batch, clock, constraints)
    singles = []
    nodes = 0
    for r in ordered:
        rid, o, d, _ = r
        if not walk:
            route = route_feasible(graph, driver, (r,), clock, constraints, stats)
        else:
            if waiting is None or waiting[0] == rid:
                # alone, or replacing the waiting rider in the search's map
                # of riders by id: one chain
                chains = ((r,),)
            else:  # both orders, lower request id first
                low, high = (waiting, r) if waiting[0] < rid else (r, waiting)
                chains = ((low, high), (high, low))
            best_delay = math.inf
            route = None
            nodes += 1  # the root
            for chain in chains:
                loc, at, delay_sum, stops = start, now, 0.0, ()
                # the rider still waiting, whose pickup (origin [1], creation
                # time [3]) must stay in reach
                after = chain[1:]
                for xid, xo, xd, created in chain:
                    picked = at + secs[loc][xo]
                    wait = picked - created
                    if wait >= max_pickup or delay_sum + wait > best_delay:
                        break
                    here = secs[xo]
                    dropped = picked + here[xd]
                    # the dropoff's detour delay, and its reach test at the pickup
                    late = dropped - (picked + here[xd])
                    if late >= max_detour or (
                        after and picked + here[after[0][1]] - after[0][3] >= max_pickup
                    ):
                        break
                    nodes += 1
                    delay_sum = delay_sum + wait
                    if delay_sum + late > best_delay or (
                        after and dropped + secs[xd][after[0][1]] - after[0][3] >= max_pickup
                    ):
                        break
                    nodes += 1
                    delay_sum = delay_sum + late
                    stops += (new(Stop, (PICKUP, xid, xo, picked)), new(Stop, (DROPOFF, xid, xd, dropped)))
                    loc, at, after = xd, dropped, ()
                else:  # the leaf: the first chain in key order wins a tie
                    if delay_sum < best_delay or (delay_sum == best_delay and route is None):
                        best_delay = delay_sum
                        route = stops
        if route is None:
            continue
        # FeasibleAction.build's fields, with the same bits
        actions.append(new(FeasibleAction, (
            (r,), route, (rid,), (minutes[o][d] + delta,), (labels[o],), route[-1][2]
        )))
        singles.append(r)
    if walk and stats is not None:  # each walk counts as the search it replaces
        stats.calls += len(ordered)
        stats.nodes += nodes
    # larger sets grow level by level from the feasible singles; a single
    # free seat takes one request at most, so it needs no level to grow from
    prev_level = {frozenset((r[0],)) for r in singles} if seats_free > 1 else set()
    for size in range(2, min(seats_free, len(singles)) + 1):
        level: set[frozenset[int]] = set()
        for combo in itertools.combinations(singles, size):
            ids = frozenset(req.request_id for req in combo)
            if any(ids - {rid} not in prev_level for rid in ids):
                continue
            plan = route_feasible(graph, driver, combo, clock, constraints, stats)
            if plan is None:
                continue
            level.add(ids)
            actions.append(FeasibleAction.build(graph, combo, plan))
        if not level:
            break
        prev_level = level
    result = tuple(actions)
    if memo is not None:
        memo.entries[key] = result
    return result


class AssignmentSolution(NamedTuple):
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
    # bits in first-seen order: masks are only tested for overlap and used
    # as memo keys, so any one-to-one choice of bits prunes the same way
    bit: dict[int, int] = {}
    masks = [[0] * len(per) for per in request_ids]
    for i, per in enumerate(request_ids):
        for j, ids in enumerate(per):
            m = 0
            for rid in ids:
                b = bit.setdefault(rid, 1 << len(bit))
                if m & b:
                    raise ValueError(f"duplicate request {rid} inside one action")
                m |= b
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
    slack = 1e-9 * (1.0 + left_sum(max(map(abs, per)) for per in weights))

    # by -w[j], not by w[j] reversed: the two orders differ when a weight is nan
    by_weight = [sorted(range(len(w)), key=[-x for x in w].__getitem__) if len(w) > 1 else (0,)
                 for w in weights]
    best = float("-inf")
    nodes = 0
    # memo[i][used]: the dominating prefix sum recorded for state (i, used)
    memo: list[dict[int, float]] = [{} for _ in range(n)]

    def search_value(i: int, used: int, acc: float) -> None:
        nonlocal best, nodes
        nodes += 1
        if i == n:
            if acc > best:
                best = acc
            return
        if acc + suffix[i] <= best - slack:
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
    del search_value  # both searches name themselves: break each cycle
    optimum = best
    for level in memo:
        level.clear()

    # stable: equal id tuples stay in index order
    canonical = [sorted(range(len(per)), key=per.__getitem__) if len(per) > 1 else (0,)
                 for per in request_ids]

    def search_argmax(i: int, used: int, acc: float) -> tuple[int, ...] | None:
        nonlocal nodes
        nodes += 1
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
    del search_argmax
    if chosen is None:
        raise RuntimeError("assignment search failed to reproduce its own optimum")
    return AssignmentSolution(optimum, chosen, nodes)


class EpochResult(NamedTuple):
    epoch_index: int
    clock: float
    batch_size: int
    assignments: dict[int, FeasibleAction]  # every driver, empty actions included
    deltas: dict[int, float]  # myopic objective gain of each chosen action
    pre_keys: dict[int, StateKey]  # driver state keys before the actions; {} without a value model
    total_weight: float
    objective_value: float
    num_actions: int
    solver_nodes: int
    route_calls: int  # route searches decided, the one-request walks included
    route_nodes: int  # their DFS nodes entered, roots included


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
    """Match one batch at the current fleet clock and commit the result.

    Actions come with their request ids, fares, origin labels and route end,
    so scoring one is a delta_objective call plus, under a model, the value
    of its end; the empty action's end (None) is the driver's own. A
    `route_memo` serves both the route enumerations and the solve (see
    :class:`RouteMemo`); the result is the same with or without one."""
    log.add_batch(batch)
    for req in batch.requests:
        tallies.add_requested(graph.neighborhoods.labels[req.origin])
    state = ObjectiveState.from_fleet(fleet, tallies)
    clock = fleet.clock

    per_driver: list[tuple[FeasibleAction, ...]] = []
    weights: list[list[float]] = []
    ids: list[list[tuple[int, ...]]] = []
    deltas: list[list[float]] = []
    pre_keys: dict[int, StateKey] = {}
    route_stats = RouteStats()
    for di, driver in enumerate(fleet.drivers):
        actions = enumerate_feasible(
            graph, driver, batch.requests, clock, constraints, route_memo, route_stats
        )
        if value_model is not None:
            pre_keys[driver.driver_id] = state_key(graph, driver, clock)
        row_w: list[float] = []
        row_ids: list[tuple[int, ...]] = []
        row_d: list[float] = []
        for _, _, request_ids, fares, labels, end in actions:
            delta = delta_objective(spec, state, di, fares, labels)
            weight = delta
            if value_model is not None:
                weight += value_model.gamma * value_model.estimate(state_key(graph, driver, clock, end))
            row_w.append(weight)
            row_ids.append(request_ids)
            row_d.append(delta)
        per_driver.append(actions)
        weights.append(row_w)
        ids.append(row_ids)
        deltas.append(row_d)

    if route_memo is None:
        solution = solve_assignment(weights, ids)
    else:
        key = (tuple(map(tuple, weights)), tuple(map(tuple, ids)))
        solution = route_memo.solves.get(key)
        if solution is None:
            solution = route_memo.solves[key] = solve_assignment(weights, ids)
        else:
            route_memo.solve_hits += 1
    chosen: dict[int, FeasibleAction] = {}
    chosen_deltas: dict[int, float] = {}
    for di, driver in enumerate(fleet.drivers):
        j = solution.chosen[di]
        chosen[driver.driver_id] = per_driver[di][j]
        chosen_deltas[driver.driver_id] = deltas[di][j]

    apply_matching(fleet, chosen)
    for driver_id, action in chosen.items():
        for rid, origin_label in zip(action.request_ids, action.origin_labels):
            log.mark_serviced(rid, driver_id)
            tallies.add_serviced(origin_label)

    after = eval_objective(spec, ObjectiveState.from_fleet(fleet, tallies))
    return EpochResult(
        epoch_index=batch.epoch_index,
        clock=clock,
        batch_size=len(batch.requests),
        assignments=chosen,
        deltas=chosen_deltas,
        pre_keys=pre_keys,
        total_weight=solution.total_weight,
        objective_value=after,
        num_actions=sum(len(a) for a in per_driver),
        solver_nodes=solution.nodes,
        route_calls=route_stats.calls,
        route_nodes=route_stats.nodes,
    )
