"""Route feasibility, action enumeration, and the exact assignment solver."""

import copy
import gc
import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fairpool.city import fare
from fairpool.demand import RequestBatch, RequestLog, RideRequest
from fairpool.fleet import DROPOFF, DriverState, FleetState, Stop, advance_fleet, apply_matching
from fairpool.matching import (
    DelayConstraints,
    FeasibleAction,
    RouteMemo,
    RouteStats,
    enumerate_feasible,
    route_feasible,
    run_epoch,
    solve_assignment,
)
from fairpool.objectives import NeighborhoodTallies, ObjectiveSpec
from fairpool.value import ValueModel, state_key

C = DelayConstraints()


def req(i, origin, destination, t=0.0):
    return RideRequest(request_id=i, origin=origin, destination=destination, created_at=t)


def test_route_feasible_empty_task_set_is_idle_plan():
    graph = helpers.line_city([1.0])
    fleet = helpers.place_fleet(graph, [0])
    plan = route_feasible(graph, fleet.drivers[0], (), 0.0, C)
    assert plan == ()


def test_route_feasible_single_request_schedule():
    graph = helpers.line_city([1.0, 1.0, 1.0])
    fleet = helpers.place_fleet(graph, [0])
    plan = route_feasible(graph, fleet.drivers[0], (req(0, 1, 3),), 0.0, C)
    assert plan is not None
    kinds = [(s.kind, s.request_id, s.location, s.arrival) for s in plan]
    assert kinds == [("pickup", 0, 1, 60.0), ("dropoff", 0, 3, 180.0)]


def test_pickup_delay_bound_is_strict():
    slow = helpers.line_city([5.0, 1.0])  # first hop takes exactly the deadline
    fleet = helpers.place_fleet(slow, [0])
    assert route_feasible(slow, fleet.drivers[0], (req(0, 1, 2),), 0.0, C) is None

    fast = helpers.line_city([4.9, 1.0])
    fleet = helpers.place_fleet(fast, [0])
    plan = route_feasible(fast, fleet.drivers[0], (req(0, 1, 2),), 0.0, C)
    assert plan is not None
    assert plan[0].arrival == 294.0


def test_detour_bound_is_strict_when_pooling():
    # hub 0; both riders board at the end of arm 1 and ride to arms 2 and 3.
    # Arms 1 and 3 are long enough that serving the riders one at a time blows
    # the second pickup deadline, so the shared route is the only candidate,
    # and dropping rider 0 first costs rider 1 exactly twice arm 2 as detour.
    at_cap = helpers.star_city([3.0, 0.5, 6.0])
    fleet = helpers.place_fleet(at_cap, [1], capacity=2)
    pair = (req(0, 1, 2), req(1, 1, 3))
    assert route_feasible(at_cap, fleet.drivers[0], pair, 0.0, C) is None

    under_cap = helpers.star_city([3.0, 0.4, 6.0])
    fleet = helpers.place_fleet(under_cap, [1], capacity=2)
    plan = route_feasible(under_cap, fleet.drivers[0], pair, 0.0, C)
    assert plan is not None
    arrivals = {(s.kind, s.request_id): s.arrival for s in plan}
    direct_b = under_cap.travel_minutes[1][3] * 60.0
    detour_b = arrivals[("dropoff", 1)] - (arrivals[("pickup", 1)] + direct_b)
    assert detour_b == 48.0


def test_new_work_cannot_break_existing_promises():
    graph = helpers.line_city([1.0] * 5)
    fleet = helpers.place_fleet(graph, [1])
    driver = fleet.drivers[0]
    advance_fleet(fleet, 60.0)
    committed = req(9, 4, 5, t=0.0)
    plan = route_feasible(graph, driver, (committed,), fleet.clock, C)
    apply_matching(
        fleet,
        {0: FeasibleAction.build(graph, (committed,), plan)},
    )
    advance_fleet(fleet, 60.0)  # clock 120, en route; pickup promised for t=240

    # same origin and destination pools cleanly
    rider_ok = req(10, 4, 5, t=115.0)
    assert route_feasible(graph, driver, (rider_ok,), fleet.clock, C) is not None
    # a rider headed the other way can only be served after the committed
    # dropoff; the plan must still honor the original pickup and detour
    rider_after = req(11, 4, 3, t=115.0)
    plan = route_feasible(graph, driver, (rider_after,), fleet.clock, C)
    assert plan is not None
    arrivals = {(s.kind, s.request_id): s.arrival for s in plan}
    assert arrivals[("pickup", 9)] == 240.0
    assert arrivals[("dropoff", 9)] == 300.0
    # a pickup behind the driver cannot be reached without breaking a promise:
    # first serving rider 9 leaves the new pickup 365 s late, and any route
    # that detours first pushes rider 9 past its own deadline or detour cap
    rider_behind = req(12, 2, 1, t=115.0)
    assert route_feasible(graph, driver, (rider_behind,), fleet.clock, C) is None
    # and the committed rider alone remains feasible
    assert route_feasible(graph, driver, (), fleet.clock, C) is not None


def test_enumerate_empty_batch_keeps_current_plan():
    graph = helpers.line_city([1.0])
    fleet = helpers.place_fleet(graph, [0])
    actions = enumerate_feasible(graph, fleet.drivers[0], (), 0.0, C)
    assert len(actions) == 1
    assert actions[0].requests == ()
    assert actions[0].route == ()


def test_enumerate_full_car_only_empty_action():
    graph = helpers.line_city([1.0, 1.0])
    fleet = helpers.place_fleet(graph, [0], capacity=2)
    driver = fleet.drivers[0]
    riders = {100: req(100, 0, 2), 101: req(101, 0, 2)}
    driver.active = dict(riders)
    driver.onboard = {100: 0.0, 101: 0.0}
    actions = enumerate_feasible(graph, driver, (req(0, 0, 1),), 0.0, C)
    assert len(actions) == 1
    assert actions[0].requests == ()


def test_enumerate_compatible_triple_yields_full_lattice():
    graph = helpers.line_city([1.0, 1.0])
    fleet = helpers.place_fleet(graph, [0], capacity=4)
    batch = tuple(req(i, 0, 2) for i in range(3))
    actions = enumerate_feasible(graph, fleet.drivers[0], batch, 0.0, C)
    subsets = {a.request_ids for a in actions}
    assert len(actions) == 8
    expected = set()
    for size in range(4):
        for combo in itertools.combinations(range(3), size):
            expected.add(tuple(combo))
    assert subsets == expected
    assert actions[0].requests == ()


def test_enumerate_respects_free_seats():
    graph = helpers.line_city([1.0, 1.0])
    fleet = helpers.place_fleet(graph, [0], capacity=2)
    batch = tuple(req(i, 0, 2) for i in range(3))
    actions = enumerate_feasible(graph, fleet.drivers[0], batch, 0.0, C)
    assert max(len(a.requests) for a in actions) == 2
    assert len(actions) == 1 + 3 + 3


@settings(max_examples=60)
@given(data=st.data())
def test_enumerate_matches_exhaustive_subset_scan(data):
    """Level-wise pruning returns exactly the feasible subsets.

    Soundness of the pruning rests on feasibility being downward closed, so
    this doubles as a check of that property on random small scenarios.
    """
    minutes = data.draw(
        st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=2, max_size=4)
    )
    graph = helpers.line_city(minutes)
    n_locs = len(minutes) + 1
    driver_loc = data.draw(st.integers(min_value=0, max_value=n_locs - 1))
    capacity = data.draw(st.integers(min_value=1, max_value=4))
    fleet = helpers.place_fleet(graph, [driver_loc], capacity=capacity)
    driver = fleet.drivers[0]
    n_req = data.draw(st.integers(min_value=1, max_value=4))
    batch = []
    for i in range(n_req):
        origin = data.draw(st.integers(min_value=0, max_value=n_locs - 1))
        dest_options = [x for x in range(n_locs) if x != origin]
        destination = data.draw(st.sampled_from(dest_options))
        t = data.draw(st.floats(min_value=0.0, max_value=60.0))
        batch.append(req(i, origin, destination, t=t))
    clock = 60.0

    actions = enumerate_feasible(graph, driver, tuple(batch), clock, C)
    got = {frozenset(a.request_ids) for a in actions}

    expected = {frozenset()}
    for size in range(1, min(capacity, n_req) + 1):
        for combo in itertools.combinations(batch, size):
            if route_feasible(graph, driver, combo, clock, C) is not None:
                expected.add(frozenset(r.request_id for r in combo))
    assert got == expected

    # feasibility is downward closed: drop any rider from a feasible set and
    # the smaller set must still be feasible
    for ids in expected:
        for rid in ids:
            assert ids - {rid} in expected


def plan_bits(plan):
    """A route plan with every arrival as its exact bit pattern."""
    if plan is None:
        return None
    return tuple((s.kind, s.request_id, s.location, s.arrival.hex()) for s in plan)


def action_bits(actions):
    return [(a.request_ids, plan_bits(a.route)) for a in actions]


def driver_state(driver_id=0, loc=0, secs_to_loc=0.0, capacity=2, active=(), onboard=None):
    return DriverState(
        driver_id=driver_id,
        capacity=capacity,
        loc=loc,
        secs_to_loc=secs_to_loc,
        active={r.request_id: r for r in active},
        onboard=dict(onboard or {}),
    )


def replaced(driver, **changes):
    """A shallow copy of `driver` with the given attributes changed."""
    twin = copy.copy(driver)
    for name, value in changes.items():
        setattr(twin, name, value)
    return twin


def assert_memo_is_exact(graph, first, second):
    """Enumerate the `first` then the `second` (driver, batch, clock,
    constraints) call into one shared memo: each answer must equal a memo-free
    enumeration, bit for bit. Returns the memo."""
    memo = RouteMemo()
    for call in (first, second):
        assert action_bits(enumerate_feasible(graph, *call, memo)) == action_bits(
            enumerate_feasible(graph, *call)
        )
    return memo


@st.composite
def driver_states(draw, legs=(0.1, 0.5, 0.7, 1.0, 2.0)):
    """A driver mid-route on a line city with legs drawn from `legs` (by
    default fractional ones too): waiting and onboard riders, time left to
    its next location, capacity 1-4."""
    minutes = draw(st.lists(st.sampled_from(legs), min_size=2, max_size=5))
    graph = helpers.line_city(minutes)
    n_locs = len(minutes) + 1
    clock = draw(st.sampled_from([60.0, 120.0, 300.0]))

    def ride(rid, earliest):
        origin = draw(st.integers(min_value=0, max_value=n_locs - 1))
        destination = draw(st.sampled_from([x for x in range(n_locs) if x != origin]))
        t = draw(st.floats(min_value=earliest, max_value=clock))
        return req(rid, origin, destination, t=t)

    capacity = draw(st.integers(min_value=1, max_value=4))
    n_onboard = draw(st.integers(min_value=0, max_value=capacity))
    n_waiting = draw(st.integers(min_value=0, max_value=2))
    onboard = {}
    active = []
    for k in range(n_onboard):
        rider = ride(100 + k, max(0.0, clock - 240.0))
        active.append(rider)
        onboard[rider.request_id] = draw(st.floats(min_value=rider.created_at, max_value=clock))
    for k in range(n_waiting):
        active.append(ride(200 + k, max(0.0, clock - 240.0)))
    driver = driver_state(
        loc=draw(st.integers(min_value=0, max_value=n_locs - 1)),
        secs_to_loc=draw(st.sampled_from([0.0, 6.0, 6.7, 42.0])),
        capacity=capacity,
        active=active,
        onboard=onboard,
    )
    batch = tuple(ride(i, clock - 60.0) for i in range(draw(st.integers(min_value=1, max_value=4))))
    return graph, driver, batch, clock


@settings(max_examples=80)
@given(state=driver_states(), data=st.data())
def test_route_memo_matches_fresh_enumeration(state, data):
    """A shared memo returns exactly what a fresh enumeration returns: for the
    state itself, for the same state under another driver id (a hit, which
    hands back the stored tuple itself), and for a state that differs in one
    key field (a miss)."""
    graph, driver, batch, clock = state
    fresh = enumerate_feasible(graph, driver, batch, clock, C)
    memo = RouteMemo()
    first = enumerate_feasible(graph, driver, batch, clock, C, memo)
    twin = replaced(driver, driver_id=7)
    again = enumerate_feasible(graph, twin, batch, clock, C, memo)
    assert action_bits(first) == action_bits(fresh)
    assert again is first
    if driver.capacity > driver.occupancy:
        assert (len(memo.entries), memo.hits) == (1, 1)

    # the kernel on seconds rows matches the minutes-lookup reference
    seats = driver.capacity - driver.occupancy
    for size in range(0, min(seats, len(batch)) + 1):
        for combo in itertools.combinations(batch, size):
            assert plan_bits(route_feasible(graph, driver, combo, clock, C)) == plan_bits(
                helpers.route_feasible_reference(graph, driver, combo, clock, C)
            )

    field = data.draw(st.sampled_from(["secs_to_loc", "pickup", "capacity", "active", "clock", "loc"]))
    variant, variant_clock = driver, clock
    if field == "secs_to_loc":
        variant = replaced(driver, secs_to_loc=driver.secs_to_loc + 13.5)
    elif field == "pickup" and driver.onboard:
        rid = min(driver.onboard)
        variant = replaced(driver, onboard={**driver.onboard, rid: driver.onboard[rid] - 25.0})
    elif field == "capacity":
        variant = replaced(driver, capacity=driver.capacity + 1)
    elif field == "active":
        extra = req(300, batch[0].origin, batch[0].destination, t=clock - 30.0)
        variant = replaced(driver, active={**driver.active, 300: extra})
    elif field == "clock":
        variant_clock = clock + 9.0
    elif field == "loc":
        variant = replaced(driver, loc=(driver.loc + 1) % graph.num_locations)
    assert_memo_is_exact(graph, (driver, batch, clock, C), (variant, batch, variant_clock, C))


@settings(max_examples=120)
@given(
    state=st.one_of(driver_states(), driver_states(legs=(1.0, 2.0, 3.0))),
    idle=st.booleans(),
)
def test_enumerate_matches_filter_free_reference(state, idle):
    """The first-step reach filter changes no answer: busy and idle drivers
    on fractional and integer line cities get exactly the actions of a
    filter-free enumeration on the reference route search, and the route
    search work counted, walks included, is that of every set of the
    filter's survivors searched level by level."""
    graph, driver, batch, clock = state
    if idle:
        driver = replaced(driver, active={}, onboard={})
    stats = RouteStats()
    assert action_bits(enumerate_feasible(graph, driver, batch, clock, C, stats=stats)) == action_bits(
        helpers.enumerate_feasible_reference(graph, driver, batch, clock, C)
    )
    assert (stats.calls, stats.nodes) == helpers.enumerate_route_stats_reference(
        graph, driver, batch, clock, C
    )


def at_wait_bound(draw, arrival, bound):
    """A creation time putting a pickup at `arrival` at the wait bound, one
    ulp either side of it, or well inside it."""
    at_bound = arrival - bound
    return draw(st.sampled_from([
        at_bound,
        math.nextafter(at_bound, -math.inf),
        math.nextafter(at_bound, math.inf),
        arrival - 30.0,
    ]))


@st.composite
def idle_states(draw):
    """An idle driver on a fractional line city, time left to its next
    location 0 or fractional, capacity 1-4, and a batch whose creation times
    put the direct pickup at, or an ulp either side of, the wait bound (or
    well inside it), under detour bounds of 60 s, one ulp, 0 and -1."""
    minutes = draw(st.lists(st.sampled_from((0.1, 0.5, 0.7, 1.0, 2.0)), min_size=2, max_size=5))
    graph = helpers.line_city(minutes)
    n_locs = len(minutes) + 1
    clock = draw(st.sampled_from([301.5, 330.25, 420.0]))
    driver = driver_state(
        loc=draw(st.integers(min_value=0, max_value=n_locs - 1)),
        secs_to_loc=draw(st.sampled_from([0.0, 0.1, 6.7])),
        capacity=draw(st.integers(min_value=1, max_value=4)),
    )
    constraints = DelayConstraints(
        max_detour_delay=draw(st.sampled_from([60.0, math.ulp(0.0), 0.0, -1.0]))
    )
    now = clock + driver.secs_to_loc
    batch = []
    for rid in range(draw(st.integers(min_value=1, max_value=5))):
        origin = draw(st.integers(min_value=0, max_value=n_locs - 1))
        destination = draw(st.sampled_from([x for x in range(n_locs) if x != origin]))
        arrival = now + graph.travel_secs[driver.loc][origin]
        t = at_wait_bound(draw, arrival, constraints.max_pickup_delay)
        batch.append(req(rid, origin, destination, t=t))
    return graph, driver, tuple(batch), clock, constraints


@st.composite
def single_seat_states(draw):
    """A capacity-1 driver with nobody aboard and one accepted rider waiting,
    whose id is below, above or equal to the batch's, on a fractional line
    city at a fractional clock. Creation times put each direct pickup at, or
    an ulp either side of, the wait bound, or well inside it; a request may
    copy the waiting rider's trip and time, so the two stop orders tie in
    delay. Detour bounds are 60 s, one ulp, 0 and -1."""
    minutes = draw(st.lists(st.sampled_from((0.1, 0.5, 0.7, 1.0, 2.0)), min_size=2, max_size=5))
    graph = helpers.line_city(minutes)
    secs = graph.travel_secs
    n_locs = len(minutes) + 1
    clock = draw(st.sampled_from([301.5, 330.25, 420.0]))
    loc = draw(st.integers(min_value=0, max_value=n_locs - 1))
    secs_to_loc = draw(st.sampled_from([0.0, 0.1, 6.7]))
    # half the draws at 60 s: a bound of 0 or less rejects every plan at the root
    detour = st.one_of(st.just(60.0), st.sampled_from([math.ulp(0.0), 0.0, -1.0]))
    constraints = DelayConstraints(max_detour_delay=draw(detour))
    bound = constraints.max_pickup_delay
    now = clock + secs_to_loc

    def trip():
        origin = draw(st.integers(min_value=0, max_value=n_locs - 1))
        return origin, draw(st.sampled_from([x for x in range(n_locs) if x != origin]))

    o, d = trip()
    n_batch = draw(st.integers(min_value=1, max_value=4))
    waiting_id = draw(st.sampled_from([5, 10 + n_batch, 10 + draw(st.integers(0, n_batch - 1))]))
    waiting = req(waiting_id, o, d, t=at_wait_bound(draw, now + secs[loc][o], bound))
    batch = []
    for rid in range(10, 10 + n_batch):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            batch.append(req(rid, waiting.origin, waiting.destination, t=waiting.created_at))
            continue
        o, d = trip()
        # at the bound directly, or after serving the waiting rider first
        leg_from = draw(st.sampled_from([(loc, now), (
            waiting.destination,
            now + secs[loc][waiting.origin] + secs[waiting.origin][waiting.destination],
        )]))
        batch.append(req(rid, o, d, t=at_wait_bound(draw, leg_from[1] + secs[leg_from[0]][o], bound)))
    driver = driver_state(loc=loc, secs_to_loc=secs_to_loc, capacity=1, active=(waiting,))
    return graph, driver, tuple(batch), clock, constraints


@settings(max_examples=500)
@given(state=st.one_of(idle_states(), single_seat_states()))
def test_walked_singletons_match_the_route_search(state):
    """An idle driver's one-request actions, and a single-seat driver's with
    one rider waiting, are walked without the route search: they and every
    larger set equal the reference enumeration's field for field, and the
    work counted is that of sending each first-step survivor through
    route_feasible."""
    graph, driver, batch, clock, constraints = state
    stats = RouteStats()
    with pytest.MonkeyPatch.context() as patch:
        searched = search_spy(patch)
        actions = enumerate_feasible(graph, driver, batch, clock, constraints, stats=stats)
    assert all(len(ids) > 1 for ids in searched)
    reference = helpers.enumerate_feasible_reference(graph, driver, batch, clock, constraints)
    assert action_bits(actions) == action_bits(reference)
    assert [(a.requests, a.fares, a.origin_labels, a.end) for a in actions] == [
        (a.requests, a.fares, a.origin_labels, a.end) for a in reference
    ]
    assert all(type(a) is FeasibleAction for a in actions)
    assert all(type(s) is Stop for a in actions for s in a.route)
    assert (stats.calls, stats.nodes) == helpers.enumerate_route_stats_reference(
        graph, driver, batch, clock, constraints
    )


def search_spy(monkeypatch):
    """Record the request ids of every route search enumerate_feasible runs."""
    searched = []

    def spy(graph, driver, combo, *rest):
        searched.append(tuple(r.request_id for r in combo))
        return route_feasible(graph, driver, combo, *rest)

    monkeypatch.setattr("fairpool.matching.route_feasible", spy)
    return searched


def test_idle_reach_filter_boundary_is_the_route_search_test(monkeypatch):
    """Request 0's direct pickup delay is exactly the bound, so the route
    search rejects it and the filter must drop it; request 1's is one ulp
    below the bound and must survive. An idle driver's singleton is its
    forced path, walked without the route search."""
    graph = helpers.line_city([1.0, 1.0])
    clock = 300.0  # the pickup at location 1 is reached at 360 s
    bound = C.max_pickup_delay
    at_bound = req(0, 1, 2, t=clock + 60.0 - bound)
    below = req(1, 1, 2, t=clock + 60.0 - math.nextafter(bound, 0.0))
    assert clock + 60.0 - at_bound.created_at == bound
    assert clock + 60.0 - below.created_at == math.nextafter(bound, 0.0)
    batch = (at_bound, below)

    searched = search_spy(monkeypatch)
    idle = driver_state(loc=0)
    actions = enumerate_feasible(graph, idle, batch, clock, C)
    assert action_bits(actions) == action_bits(
        helpers.enumerate_feasible_reference(graph, idle, batch, clock, C)
    )
    assert [a.request_ids for a in actions] == [(), (1,)]
    assert searched == []


def test_first_step_filter_boundary_is_the_route_search_test(monkeypatch):
    """A busy driver's first stops count as well as its direct leg.

    Line 0-1-2 with 66 s and 78 s legs; the driver is at 0 at t = 60 and its
    one rider waits at 1, so its only first stop of its own is that pickup at
    126 s. The travel closure gives 0 -> 2 as 144.00000000000003 s, an ulp
    above 66 + 78, so location 2 is reached an ulp sooner through the stop
    than directly. Request 0 waits at 1 and is exactly at the wait bound both
    directly and from the stop: the search dies at its first step, so it is
    never searched. Request 1 waits at 2 and is over the bound directly but
    one ulp below it from the stop: it must be searched, and it is feasible.
    """
    graph = helpers.line_city([1.1, 1.3])
    secs = graph.travel_secs
    clock = 60.0
    constraints = DelayConstraints(max_pickup_delay=100.0)
    bound = constraints.max_pickup_delay
    stop_arrival = clock + secs[0][1]
    assert (stop_arrival, secs[1][2], secs[0][2]) == (126.0, 78.0, 144.00000000000003)
    at_bound = req(0, 1, 2, t=stop_arrival - bound)
    below = req(1, 2, 1, t=104.00000000000001)
    assert clock + secs[0][1] - at_bound.created_at == bound
    assert stop_arrival + secs[1][1] - at_bound.created_at == bound
    assert clock + secs[0][2] - below.created_at > bound
    assert stop_arrival + secs[1][2] - below.created_at == math.nextafter(bound, 0.0)
    batch = (at_bound, below)

    searched = search_spy(monkeypatch)
    busy = driver_state(loc=0, capacity=3, active=(req(100, 1, 2, t=clock),))
    actions = enumerate_feasible(graph, busy, batch, clock, constraints)
    assert action_bits(actions) == action_bits(
        helpers.enumerate_feasible_reference(graph, busy, batch, clock, constraints)
    )
    assert [a.request_ids for a in actions] == [(), (1,)]
    assert searched == [(1,)]


def stop_keys(plan):
    return [(s.request_id, 0 if s.kind == "pickup" else 1) for s in plan]


# States on integer-leg line cities (60 s legs) where stops share a location
# and an arrival, so several stop orders have the same total delay and only
# the (request id, kind) key sequence decides: (driver, new requests, clock,
# the winning key sequence).
TIE_CASES = {
    # two riders with one origin, one destination and one creation time,
    # passed out of id order
    "twin_requests": (
        driver_state(loc=0, capacity=2),
        (req(5, 1, 2, t=60.0), req(2, 1, 2, t=60.0)),
        60.0,
        [(2, 0), (5, 0), (2, 1), (5, 1)],
    ),
    # an accepted rider waits where the new ones do; its id falls between theirs
    "waiting_rider_between": (
        driver_state(loc=0, capacity=4, active=(req(3, 1, 2, t=30.0),)),
        (req(5, 1, 2, t=60.0), req(2, 1, 2, t=50.0)),
        60.0,
        [(2, 0), (3, 0), (5, 0), (2, 1), (3, 1), (5, 1)],
    ),
    # dropping rider 4 and picking up rider 1 at location 1 commute; the
    # pickup's smaller id goes first
    "pickup_before_dropoff": (
        driver_state(loc=0, capacity=2, active=(req(4, 0, 1, t=30.0),), onboard={4: 60.0}),
        (req(1, 1, 2, t=60.0),),
        60.0,
        [(1, 0), (4, 1), (1, 1)],
    ),
    # the same commuting pair with the ids swapped: the dropoff goes first
    "dropoff_before_pickup": (
        driver_state(loc=0, capacity=2, active=(req(2, 0, 1, t=30.0),), onboard={2: 60.0}),
        (req(3, 1, 2, t=60.0),),
        60.0,
        [(2, 1), (3, 0), (3, 1)],
    ),
}


@pytest.mark.parametrize("case", sorted(TIE_CASES))
def test_route_search_breaks_delay_ties_by_stop_keys(case):
    """On a tie plateau the smallest (request id, kind) key sequence wins, as
    in the reference search; the kernel keeps keys in its own form, and only
    ties exercise that form."""
    driver, new_requests, clock, expected = TIE_CASES[case]
    graph = helpers.line_city([1.0, 1.0, 1.0])
    plan = route_feasible(graph, driver, new_requests, clock, C)
    assert plan_bits(plan) == plan_bits(
        helpers.route_feasible_reference(graph, driver, new_requests, clock, C)
    )
    assert stop_keys(plan) == expected


@st.composite
def busy_capacity4_states(draw):
    """A capacity-4 driver with one to three riders aboard and up to two
    waiting, on a line city of fractional legs (so sums of legs can break
    the triangle inequality by an ulp), time left to its next location 0 or
    fractional, and one to three new requests made within the last minute:
    deep search trees, where the bounds and the best-delay prune cut many
    branches at different depths."""
    minutes = draw(st.lists(st.sampled_from((0.1, 0.3, 0.5, 0.7, 1.1)), min_size=2, max_size=5))
    graph = helpers.line_city(minutes)
    n_locs = len(minutes) + 1
    clock = draw(st.sampled_from([120.0, 301.5, 330.25]))

    def ride(rid, earliest):
        origin = draw(st.integers(min_value=0, max_value=n_locs - 1))
        destination = draw(st.sampled_from([x for x in range(n_locs) if x != origin]))
        return req(rid, origin, destination, t=draw(st.floats(min_value=earliest, max_value=clock)))

    active, onboard = [], {}
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        rider = ride(100 + k, clock - 120.0)
        active.append(rider)
        onboard[rider.request_id] = draw(st.floats(min_value=rider.created_at, max_value=clock))
    active += [ride(200 + k, clock - 120.0) for k in range(draw(st.integers(min_value=0, max_value=2)))]
    driver = driver_state(
        loc=draw(st.integers(min_value=0, max_value=n_locs - 1)),
        secs_to_loc=draw(st.sampled_from([0.0, 6.7, 13.3])),
        capacity=4,
        active=active,
        onboard=onboard,
    )
    batch = tuple(ride(i, clock - 60.0) for i in range(draw(st.integers(min_value=1, max_value=3))))
    return graph, driver, batch, clock


@settings(max_examples=300)
@given(state=busy_capacity4_states())
def test_route_search_counts_the_reference_nodes_on_busy_states(state):
    """Every request subset of a busy capacity-4 driver gets the reference
    search's plan, bit for bit, and the same work: one call and the same
    DFS nodes entered, each search counted on its own."""
    graph, driver, batch, clock = state
    for size in range(1, len(batch) + 1):
        for combo in itertools.combinations(batch, size):
            stats, reference = RouteStats(), RouteStats()
            plan = route_feasible(graph, driver, combo, clock, C, stats)
            assert plan_bits(plan) == plan_bits(
                helpers.route_feasible_reference(graph, driver, combo, clock, C, reference)
            )
            assert stats.calls == 1
            assert (stats.calls, stats.nodes) == (reference.calls, reference.nodes)


@settings(max_examples=150)
@given(data=st.data())
def test_route_search_matches_reference_on_tie_plateaus(data):
    """Integer legs, two busy locations and whole-minute creation times give
    many stop orders of equal total delay: every subset's plan must equal the
    reference search's, bit for bit."""
    minutes = data.draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=2, max_size=4))
    graph = helpers.line_city(minutes)
    n_locs = len(minutes) + 1
    hubs = data.draw(st.lists(st.integers(0, n_locs - 1), min_size=2, max_size=2, unique=True))
    clock = 120.0
    minute = st.sampled_from([0.0, 60.0, 120.0])

    def ride(rid):
        origin, destination = data.draw(st.permutations(hubs))
        return req(rid, origin, destination, t=data.draw(minute))

    capacity = data.draw(st.integers(min_value=1, max_value=4))
    onboard_ids = data.draw(st.lists(st.sampled_from([7, 8]), max_size=capacity, unique=True))
    waiting_ids = data.draw(st.lists(st.sampled_from([1, 4, 6]), max_size=2, unique=True))
    active = [ride(rid) for rid in onboard_ids + waiting_ids]
    onboard = {rid: data.draw(st.sampled_from([60.0, 120.0])) for rid in onboard_ids}
    driver = driver_state(
        loc=data.draw(st.sampled_from(hubs)), capacity=capacity, active=active, onboard=onboard
    )
    new_ids = data.draw(st.lists(st.sampled_from([0, 2, 3, 5]), min_size=1, max_size=3, unique=True))
    batch = tuple(ride(rid) for rid in new_ids)
    for size in range(1, len(batch) + 1):
        for combo in itertools.combinations(batch, size):
            assert plan_bits(route_feasible(graph, driver, combo, clock, C)) == plan_bits(
                helpers.route_feasible_reference(graph, driver, combo, clock, C)
            )


# One base state and, per key field, a state that differs in that field alone
# and has a different set of actions or arrivals. Line 0-1-2-3 with a 12 s
# first leg; rider 100 rode from 1 and is headed to 3. Fetching request 0 at
# location 0 first delays rider 100 by 24 s, inside the 60 s detour cap only
# when the pickup was recent enough.
PAIR_GRAPH_MINUTES = [0.2, 1.0, 1.0]
PAIR_BATCH = (req(0, 0, 1, t=60.0), req(1, 2, 3, t=100.0))
PAIR_RIDER = req(100, 1, 3, t=60.0)


def pair_base(**changes):
    fields = dict(loc=1, secs_to_loc=0.0, capacity=2, active=(PAIR_RIDER,), onboard={100: 120.0})
    fields.update(changes)
    return driver_state(**fields)


KEY_FIELD_PAIRS = {
    "secs_to_loc": dict(driver=pair_base(secs_to_loc=10.0)),
    "pickup_time": dict(driver=pair_base(onboard={100: 80.0})),
    "capacity": dict(driver=pair_base(capacity=3)),
    "active": dict(driver=pair_base(active=(PAIR_RIDER, req(101, 3, 2, t=110.0)))),
    "onboard": dict(driver=pair_base(onboard={})),
    "clock": dict(clock=130.0),
    "loc": dict(driver=pair_base(loc=2)),
    "batch": dict(batch=PAIR_BATCH[:1]),
    "constraints": dict(constraints=DelayConstraints(max_detour_delay=20.0)),
}


@pytest.mark.parametrize("field", sorted(KEY_FIELD_PAIRS))
def test_route_memo_key_separates_states_differing_in_one_field(field):
    graph = helpers.line_city(PAIR_GRAPH_MINUTES)
    base = pair_base()
    pair = KEY_FIELD_PAIRS[field]
    other = replaced(pair.get("driver", base), driver_id=1)
    batch = pair.get("batch", PAIR_BATCH)
    clock = pair.get("clock", 120.0)
    constraints = pair.get("constraints", C)
    # the pair is only a witness if its answers really differ
    assert action_bits(enumerate_feasible(graph, base, PAIR_BATCH, 120.0, C)) != action_bits(
        enumerate_feasible(graph, other, batch, clock, constraints)
    )
    memo = assert_memo_is_exact(graph, (base, PAIR_BATCH, 120.0, C), (other, batch, clock, constraints))
    assert (len(memo.entries), memo.hits) == (2, 0)


def row_bits(actions):
    """What an epoch reads to score each action, floats as exact bits."""
    return [
        (a.request_ids, tuple(f.hex() for f in a.fares), a.origin_labels, a.end) for a in actions
    ]


@settings(max_examples=60)
@given(state=driver_states(), labels=st.integers(min_value=1, max_value=3))
def test_memo_hit_hands_back_the_row_a_fresh_enumeration_derives(state, labels):
    """On a hit the stored actions carry, bit for bit, the request ids, fares,
    origin labels and route end that a memo-free enumeration derives, and
    those are the requests' own: fare(graph, o, d), the origin's label, the
    last stop of a non-empty route and None for the empty action."""
    graph, driver, batch, clock = state
    minutes = [graph.travel_minutes[i][i + 1] for i in range(graph.num_locations - 1)]
    graph = helpers.line_city(minutes, num_neighborhoods=min(labels, graph.num_locations))
    fresh = enumerate_feasible(graph, driver, batch, clock, C)
    memo = RouteMemo()
    enumerate_feasible(graph, driver, batch, clock, C, memo)
    hit = enumerate_feasible(graph, replaced(driver, driver_id=5), batch, clock, C, memo)
    assert row_bits(hit) == row_bits(fresh)
    for action in hit:
        for value in (action.requests, action.route, action.request_ids, action.fares,
                      action.origin_labels):
            assert type(value) is tuple  # a shared row nobody can change
        assert action.request_ids == tuple(r.request_id for r in action.requests)
        assert [f.hex() for f in action.fares] == [
            fare(graph, r.origin, r.destination).hex() for r in action.requests
        ]
        assert action.origin_labels == tuple(graph.neighborhoods.labels[r.origin] for r in action.requests)
        assert action.end == (action.route[-1].location if action.requests else None)


def twin_drivers_with_different_route_ends():
    """Two drivers in one memo-key state, both riders onboard with a seat to
    spare, whose committed routes drop the riders in opposite orders, so one
    route ends at location 0 and the other at location 4."""
    to_0, to_4 = req(1, 2, 0, t=500.0), req(2, 2, 4, t=500.0)
    twins = []
    for driver_id, order in ((0, (to_0, to_4)), (1, (to_4, to_0))):
        driver = driver_state(driver_id, loc=2, capacity=3, active=(to_0, to_4),
                              onboard={1: 540.0, 2: 540.0})
        driver.route = tuple(
            Stop(DROPOFF, r.request_id, r.destination, 600.0 + 60.0 * k) for k, r in enumerate(order, 1)
        )
        twins.append(driver)
    return twins


def test_memo_hit_scores_the_empty_action_with_the_drivers_own_route_end():
    """The route end of the empty action is not in the memo key: two drivers
    can share a stored row but not their committed routes. Each driver's
    empty action must score with its own route end, hit or not."""
    graph = helpers.line_city([1.0] * 4, num_neighborhoods=2)
    ends = twin_drivers_with_different_route_ends()
    assert [d.route_end() for d in ends] == [4, 0]
    model = ValueModel(gamma=0.5)
    for driver, value in zip(ends, (10.0, -10.0)):
        model.table[state_key(graph, driver, 600.0)] = value
    # a request waiting since t=100 is past its pickup bound: only the empty action remains
    batch = RequestBatch(epoch_index=0, requests=(req(3, 2, 3, t=100.0),), window_end=600.0)

    def epoch(driver, memo):
        fleet = FleetState(drivers=[copy.deepcopy(driver)], clock=600.0)
        return run_epoch(graph, fleet, batch, *fresh_epoch_inputs(graph), ObjectiveSpec("income"), C,
                         value_model=model, route_memo=memo)

    memo = RouteMemo()
    shared = [epoch(driver, memo) for driver in ends]
    assert (len(memo.entries), memo.hits) == (1, 1)
    assert [r.total_weight for r in shared] == [5.0, -5.0]
    assert [r.total_weight for r in shared] == [epoch(driver, None).total_weight for driver in ends]


def test_pre_keys_only_under_a_value_model():
    """TD training reads pre_keys and always runs with a model; a myopic
    epoch leaves them empty."""
    graph = helpers.line_city([1.0, 1.0, 1.0], num_neighborhoods=2)
    batch = RequestBatch(epoch_index=0, requests=(req(0, 0, 2, 50.0),), window_end=60.0)
    for model in (None, ValueModel()):
        fleet = helpers.place_fleet(graph, [0, 3])
        advance_fleet(fleet, 60.0)
        before = {d.driver_id: state_key(graph, d, 60.0) for d in fleet.drivers}
        result = run_epoch(graph, fleet, batch, *fresh_epoch_inputs(graph), ObjectiveSpec("income"), C,
                           value_model=model)
        assert result.pre_keys == ({} if model is None else before)
        assert len(before) == 2


def test_solver_single_driver_picks_heavier_action():
    solution = solve_assignment([[1.0, 2.0]], [[(), (0,)]])
    assert solution.total_weight == 2.0
    assert solution.chosen == (1,)


def test_solver_gives_contested_request_to_heavier_driver():
    weights = [[0.0, 3.0], [0.0, 5.0]]
    ids = [[(), (0,)], [(), (0,)]]
    solution = solve_assignment(weights, ids)
    assert solution.total_weight == 5.0
    assert solution.chosen == (0, 1)


def test_solver_resolves_ties_canonically():
    weights = [[0.0, 5.0], [0.0, 5.0]]
    ids = [[(), (0,)], [(), (0,)]]
    solution = solve_assignment(weights, ids)
    # both assignments score 5; the canonical pick gives driver 0 the empty
    # action because () sorts before (0,)
    assert solution.chosen == (0, 1)

    # re-ordering a driver's action list must not change which requests win
    weights_shuffled = [[5.0, 0.0], [0.0, 5.0]]
    ids_shuffled = [[(0,), ()], [(), (0,)]]
    again = solve_assignment(weights_shuffled, ids_shuffled)
    assert again.chosen == (1, 1)


def test_solver_rejects_duplicate_request_inside_action():
    with pytest.raises(ValueError, match="duplicate request"):
        solve_assignment([[1.0]], [[(3, 3)]])


def test_solver_requires_actions_for_every_driver():
    with pytest.raises(ValueError, match="no actions"):
        solve_assignment([[1.0], []], [[()], []])


def test_solver_handles_negative_weights():
    weights = [[-1.0, -3.0]]
    ids = [[(), (0,)]]
    solution = solve_assignment(weights, ids)
    assert solution.total_weight == -1.0
    assert solution.chosen == (0,)


@settings(max_examples=80)
@given(data=st.data())
def test_solver_matches_brute_force(data):
    n_drivers = data.draw(st.integers(min_value=1, max_value=4))
    n_requests = data.draw(st.integers(min_value=1, max_value=5))
    weights = []
    ids = []
    for _ in range(n_drivers):
        row_w = [data.draw(st.floats(min_value=-2.0, max_value=2.0))]
        row_ids = [()]
        n_actions = data.draw(st.integers(min_value=0, max_value=4))
        for _ in range(n_actions):
            size = data.draw(st.integers(min_value=1, max_value=min(3, n_requests)))
            subset = data.draw(
                st.permutations(range(n_requests)).map(lambda p: tuple(sorted(p[:size])))
            )
            row_ids.append(subset)
            row_w.append(data.draw(st.floats(min_value=-5.0, max_value=10.0)))
        weights.append(row_w)
        ids.append(row_ids)
    solution = solve_assignment(weights, ids)
    best_total, best_choice = helpers.brute_force_assignment(weights, ids)
    assert solution.total_weight == best_total
    assert solution.chosen == best_choice


# Weight pools where many assignments tie exactly, or tie mathematically but
# round apart (0.1 + 0.2 != 0.3; 1e16 swallows small addends), which is where
# the solver's dominance prune and canonical tie-break have work to do.
TIE_POOLS = [(0.0, 1.0, 2.0, 3.0), (0.1, 0.2, 0.3, 0.7, 1e16, -0.1)]


@settings(max_examples=150)
@given(data=st.data())
def test_solver_matches_brute_force_on_tie_plateaus(data):
    pool = data.draw(st.sampled_from(TIE_POOLS))
    n_drivers = data.draw(st.integers(min_value=1, max_value=6))
    # few requests per driver make partial assignments collide on the same
    # used-request set, so the dominance memo is exercised
    n_requests = data.draw(st.integers(min_value=1, max_value=4))
    weights = []
    ids = []
    for _ in range(n_drivers):
        row_w = [data.draw(st.sampled_from(pool))]
        row_ids = [()]
        n_actions = data.draw(st.integers(min_value=0, max_value=4))
        for _ in range(n_actions):
            size = data.draw(st.integers(min_value=1, max_value=min(3, n_requests)))
            subset = data.draw(
                st.permutations(range(n_requests)).map(lambda p: tuple(sorted(p[:size])))
            )
            row_ids.append(subset)
            row_w.append(data.draw(st.sampled_from(pool)))
        weights.append(row_w)
        ids.append(row_ids)
    solution = solve_assignment(weights, ids)
    best_total, best_choice = helpers.brute_force_assignment(weights, ids)
    assert solution.total_weight == best_total
    assert solution.chosen == best_choice


@pytest.mark.parametrize(
    "weights, ids",
    [
        # pass one meets state (2, {0}) first at 0.3, then at 0.1 + 0.2, one
        # ulp higher: the later prefix must not be pruned as dominated
        ([[0.1, 0.3], [0.0, 0.2], [0.0]], [[(), (0,)], [(), (0,)], [()]]),
        # pass two fails from (2, {0, 1}) at 0.3 before the canonical order
        # reaches the same state one ulp higher, where the optimum lies
        ([[0.3, 0.1], [0.0, 0.2], [0.0]], [[(0,), (1,)], [(1,), (0,)], [()]]),
    ],
)
def test_solver_dominance_prune_is_exact_to_the_ulp(weights, ids):
    solution = solve_assignment(weights, ids)
    assert solution.total_weight == 0.1 + 0.2 != 0.3
    assert (solution.total_weight, solution.chosen) == helpers.brute_force_assignment(weights, ids)


def test_solver_contended_epoch_is_pinned():
    """Epoch 0 of a contended 20-driver income day (10x10 grid, 10 requests
    per epoch, config seed 0). Its weights tie so heavily that the branch and
    bound needs about ten million nodes without the dominance prune, and
    about 38,000 (against 26,185) without the pass-2 failure memo."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", "contended_epoch0.json")
    with open(path) as fh:
        instance = json.load(fh)
    ids = [[tuple(action) for action in per] for per in instance["request_ids"]]
    solution = solve_assignment(instance["weights"], ids)
    assert solution.total_weight == 123.0
    assert solution.chosen == (0, 0, 0, 0, 0, 0, 0, 8, 0, 2, 0, 2, 3, 0, 4, 0, 5, 3, 0, 1)
    assert solution.nodes < 30_000


def solve_outcome(solve, weights, ids):
    """What a solve returns, with the total as its repr (so -0.0 and nan
    compare), or the error it raises."""
    try:
        solution = solve(weights, ids)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return repr(solution.total_weight), solution.chosen, solution.nodes


# weights that tie, cancel, vanish, or sort specially under -w (inf, nan)
ORACLE_WEIGHTS = (
    TIE_POOLS[0] + TIE_POOLS[1] + (-0.0, -1.0, -2.5, float("inf"), float("-inf"), float("nan"))
)


@settings(max_examples=400)
@given(data=st.data())
def test_solver_matches_its_reference_node_for_node(data):
    """The solver searches exactly as the one it replaced (kept in
    helpers): the same total weight bits, argmax and node count, which
    epochs.jsonl records as solver_nodes, or the same error. Instances mix
    tie plateaus, zero, negative, infinite and nan weights, requests shared
    across drivers, drivers with one action (the empty one or another),
    request ids far from contiguous and, now and then, malformed input."""
    pool = data.draw(
        st.lists(st.integers(min_value=-40, max_value=10**9), min_size=1, max_size=6, unique=True)
    )
    weight = st.one_of(st.sampled_from(ORACLE_WEIGHTS), st.floats(min_value=-5.0, max_value=10.0))
    weights = []
    ids = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        shape = data.draw(st.sampled_from(["empty-first", "empty-first", "empty-first", "one", "none"]))
        if shape == "none":  # no action at all: rejected
            weights.append([])
            ids.append([])
            continue
        row_ids = [()] if shape == "empty-first" else []
        n_more = 1 if shape == "one" else data.draw(st.integers(min_value=0, max_value=4))
        for _ in range(n_more):
            size = data.draw(st.integers(min_value=1, max_value=min(3, len(pool))))
            action = data.draw(st.permutations(pool).map(lambda p: tuple(sorted(p[:size]))))
            if data.draw(st.integers(min_value=0, max_value=30)) == 0:
                action = action + action[:1]  # a duplicate inside one action: rejected
            row_ids.append(action)
        weights.append([data.draw(weight) for _ in row_ids])
        ids.append(row_ids)
    if len(ids) > 1 and data.draw(st.integers(min_value=0, max_value=30)) == 0:
        ids.pop()  # misaligned driver lists: rejected
    assert solve_outcome(solve_assignment, weights, ids) == solve_outcome(
        helpers.solve_assignment_reference, weights, ids
    )


@settings(max_examples=200)
@given(data=st.data())
def test_solver_cannot_tell_the_sign_of_a_zero_weight(data):
    """A shared memo keys each solve by its weight rows, where 0.0 == -0.0:
    rows that differ only in the sign of their zeros must give the same
    total weight bits, argmax and node count, so a hit hands back what the
    solve itself would return."""
    pool = (0.0, 0.0, 0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 2.0, -2.5, 1e16)
    weights, flipped, ids = [], [], []
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        row_ids = [()]
        for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
            size = data.draw(st.integers(min_value=1, max_value=3))
            row_ids.append(data.draw(st.permutations(range(4)).map(lambda p: tuple(sorted(p[:size])))))
        row = [data.draw(st.sampled_from(pool)) for _ in row_ids]
        weights.append(row)
        flipped.append([-w if w == 0.0 and data.draw(st.booleans()) else w for w in row])
        ids.append(row_ids)
    assert tuple(map(tuple, flipped)) == tuple(map(tuple, weights))  # one memo key
    a, b = solve_assignment(weights, ids), solve_assignment(flipped, ids)
    assert (a.total_weight.hex(), a.chosen, a.nodes) == (b.total_weight.hex(), b.chosen, b.nodes)


def test_solver_orders_nan_weights_as_the_negated_key_does():
    """Pass one tries a driver's actions by the key -w[j]. With a nan weight,
    sorting by w[j] with reverse=True gives another order, which the node
    count recorded in epochs.jsonl would show (12 nodes here, not 11)."""
    weights = [[-1.0, math.inf, math.nan, 0.0], [math.inf]]
    ids = [[(), (0,), (0,), (0,)], [()]]
    assert solve_outcome(solve_assignment, weights, ids) == ("inf", (0, 0), 11)
    assert solve_outcome(helpers.solve_assignment_reference, weights, ids) == ("inf", (0, 0), 11)


def test_route_search_and_solve_leave_no_reference_cycles():
    """Each search's state is freed by reference counting alone. A recursive
    inner function that reaches itself through its closure cell would leave
    a cycle per call for the cyclic collector."""
    graph = helpers.line_city([1.0, 1.0, 1.0])
    driver = helpers.place_fleet(graph, [0]).drivers[0]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert route_feasible(graph, driver, (req(0, 1, 3), req(1, 2, 3)), 0.0, C) is not None
        assert gc.collect() == 0
        solution = solve_assignment([[0.0, 1.0], [0.0, 2.0]], [[(), (0,)], [(), (0,)]])
        assert solution.chosen == (0, 1)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def fresh_epoch_inputs(graph):
    return RequestLog(), NeighborhoodTallies.empty(graph.neighborhoods.num_neighborhoods)


def test_run_epoch_empty_batch_is_a_no_op():
    graph = helpers.line_city([1.0, 1.0])
    fleet = helpers.place_fleet(graph, [0, 2])
    log, tallies = fresh_epoch_inputs(graph)
    advance_fleet(fleet, 60.0)
    result = run_epoch(
        graph, fleet, RequestBatch(epoch_index=0, requests=(), window_end=60.0), log, tallies,
        ObjectiveSpec(name="income"), C,
    )
    assert all(a.requests == () for a in result.assignments.values())
    assert result.total_weight == 0.0
    assert result.batch_size == 0
    assert [d.income for d in fleet.drivers] == [0.0, 0.0]


def test_run_epoch_requests_objective_maximizes_serviced_count():
    # one driver, capacity 2: two short shared rides beat one long solo ride
    graph = helpers.line_city([1.0] * 6)
    fleet = helpers.place_fleet(graph, [0], capacity=2)
    advance_fleet(fleet, 60.0)
    batch = RequestBatch(
        epoch_index=0,
        requests=(req(0, 0, 1, 5.0), req(1, 0, 1, 6.0), req(2, 0, 6, 7.0)),
        window_end=60.0,
    )
    log, tallies = fresh_epoch_inputs(graph)
    result = run_epoch(graph, fleet, batch, log, tallies, ObjectiveSpec(name="requests"), C)
    assert result.total_weight == 2.0
    assert sorted(log.assigned_driver) == [0, 1]


def test_run_epoch_income_matches_myopic_brute_force():
    graph = helpers.line_city([1.0, 2.0, 1.0])
    fleet = helpers.place_fleet(graph, [0, 3], capacity=2)
    advance_fleet(fleet, 60.0)
    batch = RequestBatch(
        epoch_index=0,
        requests=(req(0, 0, 1, 5.0), req(1, 3, 2, 12.0), req(2, 1, 3, 30.0)),
        window_end=60.0,
    )
    weights = []
    ids = []
    for driver in fleet.drivers:
        actions = enumerate_feasible(graph, driver, batch.requests, fleet.clock, C)
        row_w = []
        row_ids = []
        for action in actions:
            total = 0.0
            for r in action.requests:
                total += graph.travel_minutes[r.origin][r.destination] + graph.delta
            row_w.append(total)
            row_ids.append(action.request_ids)
        weights.append(row_w)
        ids.append(row_ids)
    oracle_total, _ = helpers.brute_force_assignment(weights, ids)

    log, tallies = fresh_epoch_inputs(graph)
    result = run_epoch(graph, fleet, batch, log, tallies, ObjectiveSpec(name="income"), C)
    assert result.total_weight == oracle_total
    assert sum(d.income for d in fleet.drivers) == oracle_total


def test_run_epoch_weight_includes_discounted_continuation():
    graph = helpers.line_city([1.0], num_neighborhoods=2)
    fleet = helpers.place_fleet(graph, [0], capacity=2)
    advance_fleet(fleet, 60.0)
    model = ValueModel(gamma=0.5, alpha=0.1)
    key_stay = state_key(graph, fleet.drivers[0], 60.0)
    key_move = state_key(graph, fleet.drivers[0], 60.0, route_end=1)
    model.table[key_stay] = 2.0
    model.table[key_move] = 10.0

    batch = RequestBatch(epoch_index=0, requests=(req(0, 0, 1, 5.0),), window_end=60.0)
    log, tallies = fresh_epoch_inputs(graph)
    result = run_epoch(
        graph, fleet, batch, log, tallies, ObjectiveSpec(name="income"), C,
        value_model=model,
    )
    # taking the ride scores fare + gamma * V(end at 1); recompute by hand
    assert result.total_weight == 6.0 + 0.5 * 10.0
    assert sorted(log.assigned_driver) == [0]


def test_run_epoch_counts_demand_before_matching():
    graph = helpers.line_city([1.0], num_neighborhoods=1)
    fleet = helpers.place_fleet(graph, [0])
    advance_fleet(fleet, 60.0)
    log, tallies = fresh_epoch_inputs(graph)
    batch = RequestBatch(
        epoch_index=0, requests=(req(0, 0, 1, 5.0), req(1, 1, 0, 6.0)), window_end=60.0
    )
    run_epoch(graph, fleet, batch, log, tallies, ObjectiveSpec(name="income"), C)
    assert tallies.requested[1] == 2
    assert tallies.serviced[1] == len(log.assigned_driver)
