"""Driver state and route execution.

A driver's position is its committed next location plus the seconds remaining
to reach it; stops carry absolute scheduled arrivals, so advancing the clock
by a+b seconds is identical to advancing by a and then by b. Income accrues
when a request is accepted, at the fare its action was scored with, not when
it completes, because a driver's earnings span both ongoing and finished
rides.
"""

from __future__ import annotations

from typing import NamedTuple

from .city import CityGraph
from .demand import RideRequest
from .seeds import substream

__all__ = [
    "Stop",
    "DriverState",
    "FleetState",
    "init_fleet",
    "apply_matching",
    "advance_fleet",
]

PICKUP = "pickup"
DROPOFF = "dropoff"


class Stop(NamedTuple):
    kind: str  # PICKUP or DROPOFF
    request_id: int
    location: int
    arrival: float  # absolute seconds on the simulation clock


class DriverState:
    __slots__ = ("driver_id", "capacity", "loc", "secs_to_loc", "active", "onboard", "completed",
                 "route", "income")

    def __init__(
        self,
        driver_id: int,
        capacity: int,
        loc: int,
        secs_to_loc: float = 0.0,
        active: dict[int, RideRequest] | None = None,
        onboard: dict[int, float] | None = None,
    ) -> None:
        self.driver_id = driver_id
        self.capacity = capacity
        self.loc = loc  # committed next location (current location when stationary)
        self.secs_to_loc = secs_to_loc
        self.active = {} if active is None else active  # p_i
        self.onboard = {} if onboard is None else onboard  # request_id -> pickup time
        self.completed: dict[int, RideRequest] = {}  # s_i
        self.route: tuple[Stop, ...] = ()  # committed stops; () when idle
        self.income = 0.0

    @property
    def occupancy(self) -> int:
        return len(self.onboard)

    def route_end(self) -> int:
        """Location where the driver will be free: last stop, or here if idle."""
        return self.route[-1].location if self.route else self.loc


class FleetState:
    __slots__ = ("drivers", "clock", "journal")

    def __init__(
        self, drivers: list[DriverState], clock: float = 0.0, journal: list[tuple[int, Stop]] | None = None
    ) -> None:
        self.drivers = drivers
        self.clock = clock
        # Every executed stop is appended as (driver_id, stop) so a run can be
        # audited against the service guarantees after the fact.
        self.journal = [] if journal is None else journal


def init_fleet(graph: CityGraph, num_drivers: int, capacity: int, seed: int) -> FleetState:
    """Drivers placed uniformly at random over locations, deterministic per seed."""
    if num_drivers < 1:
        raise ValueError("need at least one driver")
    if capacity < 1:
        raise ValueError("capacity must be positive")
    rng = substream(seed, "fleet")
    positions = rng.integers(graph.num_locations, size=num_drivers)
    drivers = [
        DriverState(driver_id=i, capacity=capacity, loc=positions[i])
        for i in range(num_drivers)
    ]
    return FleetState(drivers=drivers, clock=0.0)


def apply_matching(fleet: FleetState, assignments: dict) -> None:
    """Commit chosen actions: extend p_i, accrue fares, install the new routes.

    `assignments` maps driver_id to an action carrying `requests` (tuple of
    RideRequest), `fares` (the fare of each request, as the action was
    scored) and `route` (tuple of Stop, () for the empty action). Raises if
    any request is assigned twice or was already being serviced.
    """
    seen: set[int] = set()
    for driver_id, action in assignments.items():
        for req in action.requests:
            rid = req.request_id
            for driver in fleet.drivers:
                if rid in driver.active or rid in driver.completed:
                    raise ValueError(f"request {rid} is already assigned and cannot go to driver {driver_id}")
            if rid in seen:
                raise ValueError(f"request {rid} assigned to two drivers")
            seen.add(rid)

    by_id = {driver.driver_id: driver for driver in fleet.drivers}
    for driver_id, action in assignments.items():
        if not action.requests:
            continue
        driver = by_id[driver_id]
        if not action.route:
            raise ValueError(f"driver {driver_id}: non-empty action without a route plan")
        for req, fare in zip(action.requests, action.fares):
            driver.active[req.request_id] = req
            driver.income += fare
        driver.route = action.route
        first = action.route[0]
        driver.loc = first.location
        driver.secs_to_loc = first.arrival - fleet.clock


def advance_fleet(fleet: FleetState, dt_seconds: float) -> None:
    """Move every driver dt seconds along its route; idle drivers stay put."""
    if dt_seconds <= 0:
        raise ValueError("dt must be positive")
    new_clock = fleet.clock + dt_seconds
    for driver in fleet.drivers:
        stops = driver.route
        if not stops:
            continue
        idx = 0
        while idx < len(stops) and stops[idx].arrival <= new_clock:
            stop = stops[idx]
            fleet.journal.append((driver.driver_id, stop))
            if stop.kind == PICKUP:
                if stop.request_id not in driver.active or stop.request_id in driver.onboard:
                    raise RuntimeError(
                        f"driver {driver.driver_id}: pickup for request {stop.request_id} out of order"
                    )
                driver.onboard[stop.request_id] = stop.arrival
                if driver.occupancy > driver.capacity:
                    raise RuntimeError(
                        f"driver {driver.driver_id}: occupancy exceeded capacity at t={stop.arrival}"
                    )
            else:
                if stop.request_id not in driver.onboard:
                    raise RuntimeError(
                        f"driver {driver.driver_id}: dropoff before pickup for request {stop.request_id}"
                    )
                driver.completed[stop.request_id] = driver.active.pop(stop.request_id)
                del driver.onboard[stop.request_id]
            idx += 1
        if idx == len(stops):
            driver.loc = stops[-1].location
            driver.secs_to_loc = 0.0
            driver.route = ()
        else:
            driver.route = stops[idx:]
            driver.loc = stops[idx].location
            driver.secs_to_loc = stops[idx].arrival - new_clock
    fleet.clock = new_clock

