"""Episode loop: advance the fleet, match each batch, drain open routes.

Each batch is matched when the clock reaches its window end, the dispatch
time `batch_requests` stamped on it. After the last batch the fleet runs
until every committed stop has executed, so completed runs leave no rider
mid-trip and the executed-stop journal is complete for auditing. Training
plays the same loop once per episode's batches, with a TD update after
every epoch.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .city import CityGraph
from .demand import RequestBatch, RequestLog
from .fleet import PICKUP, DriverState, FleetState, advance_fleet
from .matching import DelayConstraints, EpochResult, RouteMemo, run_epoch
from .objectives import NeighborhoodTallies, ObjectiveSpec
from .value import ValueModel, td_update

__all__ = [
    "SimResult",
    "run_simulation",
    "train_value_model",
    "coalition_incomes",
    "audit_journal",
]


class SimResult(NamedTuple):
    fleet: FleetState
    log: RequestLog
    tallies: NeighborhoodTallies

    def incomes(self) -> dict[int, float]:
        return {d.driver_id: d.income for d in self.fleet.drivers}


def run_simulation(
    graph: CityGraph,
    batches: Iterable[RequestBatch],
    fleet: FleetState,
    spec: ObjectiveSpec,
    constraints: DelayConstraints = DelayConstraints(),
    value_model: ValueModel | None = None,
    on_epoch: Callable[[EpochResult], None] | None = None,
    route_memo: RouteMemo | None = None,
) -> SimResult:
    """Play the day: match every batch, then drain the fleet.

    `on_epoch` sees each epoch's result right after it is committed, before
    the fleet moves on; the loop itself keeps no per-epoch records, so a
    caller that wants them (such as `epochs.jsonl` and `fleet.jsonl`) takes
    them there.
    `route_memo` is handed to every epoch's route enumerations and solve;
    pass one only when it is shared with other runs on the same graph, since
    a single run seldom repeats a driver state or a solve.
    """
    log = RequestLog()
    tallies = NeighborhoodTallies.empty(graph.neighborhoods.num_neighborhoods)
    for batch in batches:
        if batch.window_end > fleet.clock:
            advance_fleet(fleet, batch.window_end - fleet.clock)
        result = run_epoch(
            graph,
            fleet,
            batch,
            log,
            tallies,
            spec,
            constraints,
            value_model=value_model,
            route_memo=route_memo,
        )
        if on_epoch is not None:
            on_epoch(result)
    horizon = fleet.clock
    for driver in fleet.drivers:
        if driver.route:
            horizon = max(horizon, driver.route[-1].arrival)
    if horizon > fleet.clock:
        advance_fleet(fleet, horizon - fleet.clock)
    return SimResult(fleet=fleet, log=log, tallies=tallies)


def train_value_model(
    graph: CityGraph,
    episodes: Iterable[list[RequestBatch]],
    fleet_factory: Callable[[], FleetState],
    spec: ObjectiveSpec,
    model: ValueModel,
    constraints: DelayConstraints = DelayConstraints(),
) -> list[float]:
    """On-policy one-step TD, one episode per batch list in `episodes`, each
    on a fresh fleet from `fleet_factory`.

    Each epoch's reward is the myopic objective gain of the action the driver
    was assigned; the next decision point's state key provides the bootstrap,
    with the episode end treated as terminal. Returns the summed absolute TD
    error per episode, which should shrink as the table settles. `episodes`
    is consumed lazily, so its streams can be drawn one at a time.
    """
    errors: list[float] = []
    for batches in episodes:
        prev: EpochResult | None = None
        total_error = 0.0

        def update(result: EpochResult | None) -> None:
            nonlocal prev, total_error
            if prev is not None:
                next_keys = dict.fromkeys(prev.pre_keys) if result is None else result.pre_keys
                for d, key in prev.pre_keys.items():
                    total_error += abs(td_update(model, key, prev.deltas[d], next_keys[d]))
            prev = result

        run_simulation(
            graph,
            batches,
            fleet_factory(),
            spec,
            constraints,
            value_model=model,
            on_epoch=update,
        )
        update(None)
        errors.append(total_error)
    return errors


def coalition_incomes(
    graph: CityGraph,
    batches: list[RequestBatch],
    template: FleetState,
    mask: int,
    spec: ObjectiveSpec,
    constraints: DelayConstraints = DelayConstraints(),
    value_model: ValueModel | None = None,
    route_memo: RouteMemo | None = None,
) -> dict[int, float]:
    """Incomes each coalition member earns when only the coalition operates.

    The coalition is a bitmask, bit i standing for `template.drivers[i]`;
    each member starts afresh from its seeded start position. Coalitions of
    one scenario replay the same demand, so a `route_memo` shared across
    calls skips the route searches and solves they have in common.
    """
    drivers = template.drivers
    if not mask:
        raise ValueError("coalition must contain at least one driver")
    if mask >> len(drivers):
        raise ValueError(f"coalition bitmask {mask} names drivers past the fleet's {len(drivers)}")
    fleet = FleetState([
        DriverState(driver_id=d.driver_id, capacity=d.capacity, loc=d.loc)
        for i, d in enumerate(drivers)
        if mask >> i & 1
    ])
    result = run_simulation(
        graph,
        batches,
        fleet,
        spec,
        constraints,
        value_model=value_model,
        route_memo=route_memo,
    )
    return result.incomes()


def audit_journal(
    graph: CityGraph,
    fleet: FleetState,
    log: RequestLog,
    constraints: DelayConstraints,
) -> list[str]:
    """Check an executed run against every service guarantee.

    Returns human-readable violation strings; an empty list means the run
    honored all of: each serviced request picked up then dropped off exactly
    once by its assigned driver, strict pickup-wait and dropoff-detour bounds,
    and seat capacity at every moment.
    """
    violations: list[str] = []
    requests = {req.request_id: req for req in log.all_requests}
    capacities = {d.driver_id: d.capacity for d in fleet.drivers}

    pickups: dict[int, tuple[int, float]] = {}
    dropoffs: dict[int, tuple[int, float]] = {}
    occupancy: dict[int, int] = {d.driver_id: 0 for d in fleet.drivers}
    for driver_id, stop in fleet.journal:
        rid = stop.request_id
        if rid not in requests:
            violations.append(f"stop for unknown request {rid}")
            continue
        assigned = log.assigned_driver.get(rid)
        if assigned is None:
            violations.append(f"request {rid} executed but never marked serviced")
        if assigned != driver_id:
            violations.append(
                f"request {rid} executed by driver {driver_id}, assigned to {assigned}"
            )
        if stop.kind == PICKUP:
            if rid in pickups:
                violations.append(f"request {rid} picked up twice")
            pickups[rid] = (driver_id, stop.arrival)
            occupancy[driver_id] += 1
            if occupancy[driver_id] > capacities[driver_id]:
                violations.append(
                    f"driver {driver_id} over capacity at t={stop.arrival:.1f}"
                )
            delay = stop.arrival - requests[rid].created_at
            if not delay < constraints.max_pickup_delay:
                violations.append(
                    f"request {rid} pickup wait {delay:.1f}s breaches "
                    f"{constraints.max_pickup_delay:.0f}s"
                )
        else:
            if rid in dropoffs:
                violations.append(f"request {rid} dropped off twice")
            if rid not in pickups:
                violations.append(f"request {rid} dropped off before pickup")
                continue
            dropoffs[rid] = (driver_id, stop.arrival)
            occupancy[driver_id] -= 1
            req = requests[rid]
            direct = graph.travel_secs[req.origin][req.destination]
            detour = stop.arrival - (pickups[rid][1] + direct)
            if not detour < constraints.max_detour_delay:
                violations.append(
                    f"request {rid} dropoff detour {detour:.1f}s breaches "
                    f"{constraints.max_detour_delay:.0f}s"
                )
    for rid in sorted(log.assigned_driver):
        if rid not in pickups:
            violations.append(f"serviced request {rid} never picked up")
        if rid not in dropoffs:
            violations.append(f"serviced request {rid} never dropped off")
    return violations
