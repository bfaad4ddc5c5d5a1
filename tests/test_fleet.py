"""Driver state transitions: matching commits, route execution, journaling."""

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from fairpool.city import build_city, fare, Location
from fairpool.demand import RideRequest
from fairpool.fleet import (
    DROPOFF,
    PICKUP,
    DriverState,
    FleetState,
    Stop,
    advance_fleet,
    apply_matching,
    init_fleet,
)
from fairpool.matching import DelayConstraints, FeasibleAction, route_feasible


def single_request_action(graph, driver, request, clock=0.0):
    plan = route_feasible(graph, driver, (request,), clock, DelayConstraints())
    assert plan is not None
    return FeasibleAction.build(graph, (request,), plan)


def fleet_fields(fleet):
    """Every field of the fleet and of each of its drivers, to compare two fleets by value."""
    drivers = [[getattr(d, name) for name in DriverState.__slots__] for d in fleet.drivers]
    return fleet.clock, fleet.journal, drivers


def test_init_fleet_deterministic():
    graph = helpers.line_city([1.0, 1.0, 1.0])
    a = init_fleet(graph, num_drivers=6, capacity=4, seed=21)
    b = init_fleet(graph, num_drivers=6, capacity=4, seed=21)
    assert [d.loc for d in a.drivers] == [d.loc for d in b.drivers]
    assert all(0 <= d.loc < 4 for d in a.drivers)
    assert [d.driver_id for d in a.drivers] == list(range(6))


def test_init_fleet_single_location():
    locations = [Location(id=0, lat=0.0, lon=0.0)]
    graph = build_city(locations, [], 5.0, 1, 0)
    fleet = init_fleet(graph, num_drivers=3, capacity=2, seed=0)
    assert [d.loc for d in fleet.drivers] == [0, 0, 0]


def test_init_fleet_validation():
    graph = helpers.line_city([1.0])
    with pytest.raises(ValueError):
        init_fleet(graph, num_drivers=0, capacity=4, seed=0)
    with pytest.raises(ValueError):
        init_fleet(graph, num_drivers=1, capacity=0, seed=0)


def test_apply_matching_accrues_fare_and_installs_route():
    graph = helpers.line_city([1.0, 1.0], delta=5.0)
    fleet = helpers.place_fleet(graph, [0])
    driver = fleet.drivers[0]
    request = RideRequest(request_id=0, origin=1, destination=2, created_at=0.0)
    action = single_request_action(graph, driver, request)
    apply_matching(fleet, {0: action})
    assert driver.income == 6.0  # one minute of travel plus the flag drop
    assert set(driver.active) == {0}
    assert driver.route is action.route
    assert driver.loc == action.route[0].location
    assert driver.secs_to_loc == 60.0


def test_apply_matching_accrues_the_fares_the_action_carries():
    """Income is the fares the action was scored with, added in request
    order, not a fresh pricing of its trips."""
    graph = helpers.line_city([1.0, 1.0], delta=5.0)
    fleet = helpers.place_fleet(graph, [0])
    driver = fleet.drivers[0]
    pair = (
        RideRequest(request_id=0, origin=0, destination=2, created_at=0.0),
        RideRequest(request_id=1, origin=1, destination=2, created_at=0.0),
    )
    plan = route_feasible(graph, driver, pair, 0.0, DelayConstraints())
    action = FeasibleAction.build(graph, pair, plan)._replace(fares=(0.1, 0.2))
    assert action.fares != tuple(fare(graph, r.origin, r.destination) for r in pair)
    apply_matching(fleet, {0: action})
    assert driver.income == 0.0 + 0.1 + 0.2
    assert set(driver.active) == {0, 1}


def test_apply_matching_empty_assignment_is_identity():
    graph = helpers.line_city([1.0])
    fleet = helpers.place_fleet(graph, [0, 1])
    before = copy.deepcopy(fleet)
    empty = {d.driver_id: FeasibleAction.build(graph, (), ()) for d in fleet.drivers}
    apply_matching(fleet, empty)
    assert fleet_fields(fleet) == fleet_fields(before)


def test_apply_matching_rejects_duplicate_assignment():
    graph = helpers.line_city([1.0])
    fleet = helpers.place_fleet(graph, [0, 0])
    request = RideRequest(request_id=7, origin=0, destination=1, created_at=0.0)
    actions = {
        d.driver_id: single_request_action(graph, d, request) for d in fleet.drivers
    }
    with pytest.raises(ValueError, match="two drivers"):
        apply_matching(fleet, actions)


def test_apply_matching_rejects_already_serviced_request():
    graph = helpers.line_city([1.0])
    fleet = helpers.place_fleet(graph, [0])
    driver = fleet.drivers[0]
    request = RideRequest(request_id=7, origin=0, destination=1, created_at=0.0)
    apply_matching(fleet, {0: single_request_action(graph, driver, request)})
    advance_fleet(fleet, 120.0)
    again = single_request_action(graph, driver, request, clock=fleet.clock)
    with pytest.raises(ValueError, match="already assigned"):
        apply_matching(fleet, {0: again})


def test_apply_matching_requires_route_for_nonempty_action():
    graph = helpers.line_city([1.0])
    fleet = helpers.place_fleet(graph, [0])
    request = RideRequest(request_id=0, origin=0, destination=1, created_at=0.0)
    bogus = FeasibleAction.build(graph, (request,), ())
    with pytest.raises(ValueError, match="without a route"):
        apply_matching(fleet, {0: bogus})


def test_advance_executes_stop_lifecycle():
    graph = helpers.line_city([1.0], delta=5.0)
    fleet = helpers.place_fleet(graph, [0])
    fleet.journal = []
    driver = fleet.drivers[0]
    request = RideRequest(request_id=0, origin=0, destination=1, created_at=0.0)
    apply_matching(fleet, {0: single_request_action(graph, driver, request)})
    income_at_accept = driver.income

    advance_fleet(fleet, 30.0)
    assert set(driver.onboard) == {0}
    assert driver.occupancy == 1
    assert set(driver.active) == {0}

    advance_fleet(fleet, 30.0)
    assert driver.onboard == {}
    assert driver.active == {}
    assert set(driver.completed) == {0}
    assert driver.route == ()
    assert driver.loc == 1
    # completing the ride moves it between ledgers but earns nothing new
    assert driver.income == income_at_accept
    assert [(d, s.kind) for d, s in fleet.journal] == [(0, PICKUP), (0, DROPOFF)]


def test_advance_rejects_nonpositive_dt():
    graph = helpers.line_city([1.0])
    fleet = helpers.place_fleet(graph, [0])
    with pytest.raises(ValueError):
        advance_fleet(fleet, 0.0)


def test_advance_detects_capacity_breach():
    graph = helpers.line_city([1.0, 1.0])
    fleet = helpers.place_fleet(graph, [0], capacity=1)
    driver = fleet.drivers[0]
    r0 = RideRequest(request_id=0, origin=0, destination=2, created_at=0.0)
    r1 = RideRequest(request_id=1, origin=1, destination=2, created_at=0.0)
    driver.active = {0: r0, 1: r1}
    driver.route = (
        Stop(PICKUP, 0, 0, 0.0),
        Stop(PICKUP, 1, 1, 60.0),
        Stop(DROPOFF, 0, 2, 120.0),
        Stop(DROPOFF, 1, 2, 120.0),
    )
    with pytest.raises(RuntimeError, match="capacity"):
        advance_fleet(fleet, 200.0)


def test_advance_detects_dropoff_before_pickup():
    graph = helpers.line_city([1.0])
    fleet = helpers.place_fleet(graph, [0])
    driver = fleet.drivers[0]
    r0 = RideRequest(request_id=0, origin=0, destination=1, created_at=0.0)
    driver.active = {0: r0}
    driver.route = (Stop(DROPOFF, 0, 1, 60.0),)
    with pytest.raises(RuntimeError, match="dropoff before pickup"):
        advance_fleet(fleet, 100.0)


def test_partial_advance_keeps_absolute_arrivals():
    graph = helpers.line_city([1.0, 1.0, 1.0])
    fleet = helpers.place_fleet(graph, [0])
    driver = fleet.drivers[0]
    request = RideRequest(request_id=0, origin=1, destination=3, created_at=0.0)
    apply_matching(fleet, {0: single_request_action(graph, driver, request)})
    advance_fleet(fleet, 90.0)  # past the pickup at t=60, mid-leg to the dropoff
    assert set(driver.onboard) == {0}
    assert driver.route
    assert driver.route[0].arrival == 180.0
    assert driver.loc == 3
    assert driver.secs_to_loc == 90.0


@given(split=st.floats(min_value=1.0, max_value=199.0))
def test_advance_composes(split):
    """Advancing by a then b lands in exactly the state of advancing by a+b."""
    graph = helpers.line_city([1.0, 1.0, 1.0])

    def fresh():
        fleet = helpers.place_fleet(graph, [0])
        fleet.journal = []
        driver = fleet.drivers[0]
        request = RideRequest(request_id=0, origin=1, destination=3, created_at=0.0)
        apply_matching(fleet, {0: single_request_action(graph, driver, request)})
        return fleet

    stepped = fresh()
    advance_fleet(stepped, split)
    advance_fleet(stepped, 200.0 - split)
    direct = fresh()
    advance_fleet(direct, 200.0)
    assert fleet_fields(stepped) == fleet_fields(direct)


def test_route_end_points_to_last_stop():
    graph = helpers.line_city([1.0, 1.0])
    fleet = helpers.place_fleet(graph, [0])
    driver = fleet.drivers[0]
    assert driver.route_end() == 0
    request = RideRequest(request_id=0, origin=0, destination=2, created_at=0.0)
    apply_matching(fleet, {0: single_request_action(graph, driver, request)})
    assert driver.route_end() == 2
