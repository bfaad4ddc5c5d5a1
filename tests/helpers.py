"""Shared scenario builders and independent oracles for the test suite.

Everything here is deliberately naive: brute force over full cross products,
textbook Floyd-Warshall, every simple path of a graph, deep-copied simulation
branching. The point is to check the optimized implementations against code
too simple to be wrong.
"""

from __future__ import annotations

import copy
import csv
import itertools

import numpy as np

from fairpool import cli
from fairpool.city import CityGraph, Location, build_city, fare
from fairpool.config import parse_config
from fairpool.demand import RequestBatch, RideRequest
from fairpool.fleet import (
    DROPOFF,
    PICKUP,
    DriverState,
    FleetState,
    Stop,
    advance_fleet,
    apply_matching,
)
from fairpool.matching import (
    AssignmentSolution,
    DelayConstraints,
    FeasibleAction,
    RouteStats,
    _first_step_survivors,
    enumerate_feasible,
    route_feasible,
)
from fairpool.objectives import ObjectiveSpec, ObjectiveState, left_sum
from fairpool.value import ValueModel


def line_city(minutes: list[float], delta: float = 5.0, num_neighborhoods: int = 1,
              seed: int = 0) -> CityGraph:
    """Path graph 0-1-...-n with the given consecutive edge times (minutes)."""
    n = len(minutes) + 1
    locations = [Location(id=i, lat=float(i), lon=0.0) for i in range(n)]
    edges = []
    for i, m in enumerate(minutes):
        edges.append((i, i + 1, float(m)))
        edges.append((i + 1, i, float(m)))
    return build_city(locations, edges, delta, num_neighborhoods, seed)


def star_city(arm_minutes: list[float], delta: float = 5.0, num_neighborhoods: int = 1,
              seed: int = 0) -> CityGraph:
    """Hub location 0 with one leaf per arm; arm i connects 0 and i+1."""
    locations = [Location(id=0, lat=0.0, lon=0.0)]
    edges = []
    for i, m in enumerate(arm_minutes):
        angle = 2 * np.pi * i / len(arm_minutes)
        locations.append(Location(id=i + 1, lat=float(np.cos(angle)), lon=float(np.sin(angle))))
        edges.append((0, i + 1, float(m)))
        edges.append((i + 1, 0, float(m)))
    return build_city(locations, edges, delta, num_neighborhoods, seed)


def place_fleet(graph: CityGraph, locs: list[int], capacity: int = 4) -> FleetState:
    """Fleet with drivers pinned to specific start locations."""
    drivers = [
        DriverState(driver_id=i, capacity=capacity, loc=loc) for i, loc in enumerate(locs)
    ]
    return FleetState(drivers=drivers, clock=0.0)


def driver_income(graph: CityGraph, driver: DriverState) -> float:
    """Income from first principles: fare of every accepted request, ongoing
    and finished."""
    total = 0.0
    for req in driver.active.values():
        total += fare(graph, req.origin, req.destination)
    for req in driver.completed.values():
        total += fare(graph, req.origin, req.destination)
    return total


def _numpy_seconds(graph: CityGraph, origin: int, destination: int) -> float:
    return float(graph.travel_minutes[origin][destination]) * 60.0


def route_feasible_reference(
    graph: CityGraph,
    driver: DriverState,
    new_requests: tuple[RideRequest, ...],
    clock: float,
    constraints: DelayConstraints,
) -> tuple[Stop, ...] | None:
    """The route search as it was before travel times were kept in seconds:
    every leg is read from the minutes closure and converted to seconds on
    the spot. Same DFS, same pruning, same tie-break, so the
    kernel in fairpool.matching must return the identical plan."""
    requests: dict[int, RideRequest] = dict(driver.active)
    for req in new_requests:
        requests[req.request_id] = req
    if not requests:
        return ()

    picked: dict[int, float] = dict(driver.onboard)
    onboard = set(driver.onboard)
    pending = set(requests) - onboard
    capacity = driver.capacity
    max_pickup = constraints.max_pickup_delay
    max_detour = constraints.max_detour_delay

    best_delay = [float("inf")]
    best_keys: list[tuple[tuple[int, int], ...] | None] = [None]
    best_plan: list[tuple[Stop, ...] | None] = [None]

    seq: list[Stop] = []
    keys: list[tuple[int, int]] = []

    def reachable(loc: int, now: float) -> bool:
        # admissible lower bounds: direct travel can only underestimate arrival
        for rid in pending:
            req = requests[rid]
            if now + _numpy_seconds(graph, loc, req.origin) - req.created_at >= max_pickup:
                return False
        for rid in onboard:
            req = requests[rid]
            direct = _numpy_seconds(graph, req.origin, req.destination)
            if now + _numpy_seconds(graph, loc, req.destination) - (picked[rid] + direct) >= max_detour:
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
        for rid, kind_rank in options:
            req = requests[rid]
            if kind_rank == 0:
                if len(onboard) >= capacity:
                    continue
                arrival = now + _numpy_seconds(graph, loc, req.origin)
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
                arrival = now + _numpy_seconds(graph, loc, req.destination)
                direct = _numpy_seconds(graph, req.origin, req.destination)
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
    return best_plan[0]


def enumerate_feasible_reference(
    graph: CityGraph,
    driver: DriverState,
    batch: tuple[RideRequest, ...],
    clock: float,
    constraints: DelayConstraints,
) -> list[FeasibleAction]:
    """Level-wise subset enumeration with no reach filter and no memo, every
    route from route_feasible_reference. Same order as enumerate_feasible:
    the empty action, then each level's sets in request-id order."""
    actions = [FeasibleAction.build(graph, (), ())]
    seats_free = driver.capacity - driver.occupancy
    if seats_free <= 0 or not batch:
        return actions
    ordered = sorted(batch, key=lambda r: r.request_id)
    prev_level: set[frozenset[int]] = {frozenset()}
    for size in range(1, min(seats_free, len(ordered)) + 1):
        level: set[frozenset[int]] = set()
        for combo in itertools.combinations(ordered, size):
            ids = frozenset(req.request_id for req in combo)
            if size > 1 and any(ids - {rid} not in prev_level for rid in ids):
                continue
            plan = route_feasible_reference(graph, driver, combo, clock, constraints)
            if plan is None:
                continue
            level.add(ids)
            actions.append(FeasibleAction.build(graph, combo, plan))
        if not level:
            break
        prev_level = level
    return actions


def enumerate_route_stats_reference(
    graph: CityGraph,
    driver: DriverState,
    batch: tuple[RideRequest, ...],
    clock: float,
    constraints: DelayConstraints,
) -> tuple[int, int]:
    """The (calls, nodes) route-search work of an enumeration that sends
    every subset, an idle driver's singletons included, through
    route_feasible: the level-wise loop over the first-step survivors, all
    searches counted by one RouteStats."""
    stats = RouteStats()
    seats_free = driver.capacity - driver.occupancy
    if seats_free <= 0 or not batch:
        return 0, 0
    ordered = _first_step_survivors(graph, driver, batch, clock, constraints)
    prev_level: set[frozenset[int]] = {frozenset()}
    for size in range(1, min(seats_free, len(ordered)) + 1):
        level: set[frozenset[int]] = set()
        for combo in itertools.combinations(ordered, size):
            ids = frozenset(req.request_id for req in combo)
            if size > 1 and any(ids - {rid} not in prev_level for rid in ids):
                continue
            if route_feasible(graph, driver, combo, clock, constraints, stats) is not None:
                level.add(ids)
        if not level:
            break
        prev_level = level
    return stats.calls, stats.nodes


def sum_reference(values) -> float:
    """numpy's float64 sum, the bits fairpool.objectives.pairwise_sum must
    reproduce."""
    return float(np.add.reduce(np.array(values, dtype=np.float64)))


def variance_reference(values) -> float:
    """numpy's population variance (0.0 for no values), the bits
    fairpool.objectives.population_variance must reproduce."""
    if len(values) == 0:
        return 0.0
    return float(np.var(np.array(values, dtype=np.float64)))


def delta_objective_reference(
    spec: ObjectiveSpec,
    state: ObjectiveState,
    driver_index: int,
    fares: list[float],
    origin_labels: list[int],
) -> float:
    """delta_objective as it was before its variance memo, on numpy's
    variance: both variances are recomputed from the state on every call,
    even for an empty action. The fares are added left to right from 0.0."""
    if spec.name == "requests":
        return float(len(fares))
    added = 0.0
    for f in fares:
        added += f
    if spec.name == "income":
        return added
    if spec.name == "rider_fairness":
        before = variance_reference(state.tallies.service_rates())
        bumped = state.tallies.copy()
        for label in origin_labels:
            bumped.add_serviced(label)
        after = variance_reference(bumped.service_rates())
        return added - spec.lam * (after - before)
    before = variance_reference(state.incomes)
    incomes = list(state.incomes)
    incomes[driver_index] += added
    after = variance_reference(incomes)
    return added - spec.lam * (after - before)


def floyd_warshall(n: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for src, dst, w in edges:
        dist[src, dst] = min(dist[src, dst], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist


def travel_closure_reference(n: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    """All-pairs minimum, over every simple path, of the path's edge times
    summed left to right from the origin; inf where no path exists. Each
    parallel edge is a path of its own, and self-loops are edges like any
    other (a simple path never takes one)."""
    dist = np.full((n, n), np.inf)
    for source in range(n):

        def walk(loc: int, total: float, seen: frozenset[int]) -> None:
            dist[source, loc] = min(dist[source, loc], total)
            for src, dst, w in edges:
                if src == loc and dst not in seen:
                    walk(dst, total + float(w), seen | {dst})

        walk(source, 0.0, frozenset([source]))
    return dist


def kmeans_labels_reference(points: list[tuple[float, float]], k: int, seed: int) -> tuple[int, ...]:
    """Neighborhood labels of fairpool.city.kmeans_neighborhoods as it was
    on numpy arrays and numpy's generator: farthest-point seeding, Lloyd
    iterations, labels renumbered by centroid (lat, lon)."""
    coords = np.array(points, dtype=float)
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(len(coords)))]
    min_d2 = np.sum((coords - coords[chosen[0]]) ** 2, axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        min_d2 = np.minimum(min_d2, np.sum((coords - coords[nxt]) ** 2, axis=1))
    centroids = coords[chosen].copy()
    assign = np.full(len(coords), -1, dtype=int)
    for _ in range(100):
        d2 = np.sum((coords[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = coords[assign == j]
            if len(members) > 0:
                centroids[j] = members.mean(axis=0)
            else:
                dist_own = np.sum((coords - centroids[assign]) ** 2, axis=1)
                centroids[j] = coords[int(np.argmax(dist_own))]
    order = sorted(range(k), key=lambda j: (centroids[j][0], centroids[j][1]))
    relabel = {old: new + 1 for new, old in enumerate(order)}
    return tuple(relabel[int(a)] for a in assign)


def solve_assignment_reference(
    weights: list[list[float]],
    request_ids: list[list[tuple[int, ...]]],
) -> AssignmentSolution:
    """fairpool.matching.solve_assignment before its set-up was trimmed, kept
    verbatim as the oracle for the same optimum, argmax and node count.

    Exact maximum-weight assignment: one action per driver, no request in
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
    slack = 1e-9 * (1.0 + left_sum(max(abs(w) for w in per) for per in weights))

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
    del search_value  # both searches name themselves: break each cycle
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
    del search_argmax
    if chosen is None:
        raise RuntimeError("assignment search failed to reproduce its own optimum")
    return AssignmentSolution(total_weight=optimum, chosen=chosen, nodes=nodes[0])


def brute_force_assignment(
    weights: list[list[float]], request_ids: list[list[tuple[int, ...]]]
) -> tuple[float, tuple[int, ...]]:
    """Exhaustive maximum over the full per-driver action cross product.

    Accumulates weights in driver index order (matching the solver's fold) and
    breaks ties toward the smallest per-driver (sorted request ids, index)
    sequence, so results are comparable float-for-float.
    """
    n = len(weights)
    best_total = float("-inf")
    best_key: tuple | None = None
    best_choice: tuple[int, ...] | None = None
    for combo in itertools.product(*[range(len(w)) for w in weights]):
        used: set[int] = set()
        ok = True
        for i, j in enumerate(combo):
            ids = request_ids[i][j]
            if any(rid in used for rid in ids):
                ok = False
                break
            used.update(ids)
        if not ok:
            continue
        total = 0.0
        for i, j in enumerate(combo):
            total += weights[i][j]
        key = tuple((request_ids[i][j], j) for i, j in enumerate(combo))
        if total > best_total or (total == best_total and key < best_key):
            best_total = total
            best_key = key
            best_choice = combo
    assert best_choice is not None, "instance admitted no assignment at all"
    return best_total, best_choice


def train_synthetic(
    graph: CityGraph, spec: ObjectiveSpec, **fields
) -> tuple[ValueModel, list[float]]:
    """`cli.train_synthetic` on `graph` with the default config updated by
    `fields` (RunConfig field names), on fresh `cli.training_episodes`: the
    trained model and each episode's absolute TD error."""
    config = parse_config("")._replace(**fields)
    episodes = cli.training_episodes(config, graph)
    return cli.train_synthetic(config, graph, spec, DelayConstraints(), episodes)


def exhaustive_episode_incomes(
    graph: CityGraph,
    batches: list[RequestBatch],
    fleet: FleetState,
    constraints: DelayConstraints = DelayConstraints(),
) -> list[tuple[tuple[tuple[int, ...], ...], float]]:
    """Every reachable sequence of per-epoch actions with its final income.

    Branches over the full cross product of feasible joint assignments at each
    epoch by deep-copying the fleet, so it is only usable on toy scenarios.
    Returns (per-epoch chosen request-id tuples, total income) pairs.
    """
    outcomes: list[tuple[tuple[tuple[int, ...], ...], float]] = []

    def joint_assignments(state: FleetState, batch: RequestBatch):
        per_driver = [
            enumerate_feasible(graph, d, batch.requests, state.clock, constraints)
            for d in state.drivers
        ]
        for combo in itertools.product(*[range(len(a)) for a in per_driver]):
            used: set[int] = set()
            ok = True
            for di, j in enumerate(combo):
                ids = per_driver[di][j].request_ids
                if any(rid in used for rid in ids):
                    ok = False
                    break
                used.update(ids)
            if ok:
                yield {
                    state.drivers[di].driver_id: per_driver[di][combo[di]]
                    for di in range(len(per_driver))
                }

    def walk(state: FleetState, k: int, trail: tuple[tuple[int, ...], ...]) -> None:
        if k == len(batches):
            outcomes.append((trail, sum(d.income for d in state.drivers)))
            return
        batch = batches[k]
        if batch.window_end > state.clock:
            advance_fleet(state, batch.window_end - state.clock)
        for assignment in joint_assignments(state, batch):
            branch = copy.deepcopy(state)
            apply_matching(branch, assignment)
            step = tuple(
                rid
                for d in sorted(assignment)
                for rid in assignment[d].request_ids
            )
            walk(branch, k + 1, trail + (step,))

    walk(copy.deepcopy(fleet), 0, ())
    return outcomes


def random_game(rng: np.random.Generator, n: int) -> dict[int, float]:
    """Random superadditive-leaning coalition table over drivers 0..n-1,
    keyed by bitmask as a `coalition_bitmask,value` file is."""
    base = rng.uniform(1.0, 10.0, size=n)
    synergy = rng.uniform(0.0, 2.0, size=(n, n))
    table: dict[int, float] = {0: 0.0}
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        value = float(sum(base[i] for i in members))
        for a, b in itertools.combinations(members, 2):
            value += float(synergy[a, b])
        table[mask] = value
    return table


def write_additive_table(path, n: int, value: float = 1.0) -> str:
    """coalition_bitmask,value CSV of the n-driver game where each driver
    adds `value`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coalition_bitmask", "value"])
        for mask in range(1 << n):
            writer.writerow([mask, repr(value * bin(mask).count("1"))])
    return str(path)


def balanced_instance(
    rng: np.random.Generator, n: int, positive: bool = False
) -> tuple[list[float], list[float]]:
    """Nonnegative integer-valued (pi, v) with float-exact equal sums.

    Integer totals keep every sum exact in doubles, which is what lets the
    endpoint identities of the payout formula be checked with ==. With
    positive=True every v_i is at least 1 so ratios q_i/v_i are defined.
    """
    pi = [float(x) for x in rng.integers(1, 21, size=n)]
    total = int(sum(pi))
    if positive:
        spread = rng.multinomial(total - n, [1.0 / n] * n)
        v = [float(x + 1) for x in spread]
    else:
        v = [float(x) for x in rng.multinomial(total, [1.0 / n] * n)]
    return pi, v
