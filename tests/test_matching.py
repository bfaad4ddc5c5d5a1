"""Route feasibility, action enumeration, and the exact assignment solver."""

import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fairpool.demand import RequestBatch, RequestLog, RideRequest
from fairpool.fleet import advance_fleet, apply_matching
from fairpool.matching import (
    DelayConstraints,
    FeasibleAction,
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
    assert plan == type(plan)(stops=())


def test_route_feasible_single_request_schedule():
    graph = helpers.line_city([1.0, 1.0, 1.0])
    fleet = helpers.place_fleet(graph, [0])
    plan = route_feasible(graph, fleet.drivers[0], (req(0, 1, 3),), 0.0, C)
    assert plan is not None
    kinds = [(s.kind, s.request_id, s.location, s.arrival) for s in plan.stops]
    assert kinds == [("pickup", 0, 1, 60.0), ("dropoff", 0, 3, 180.0)]


def test_pickup_delay_bound_is_strict():
    slow = helpers.line_city([5.0, 1.0])  # first hop takes exactly the deadline
    fleet = helpers.place_fleet(slow, [0])
    assert route_feasible(slow, fleet.drivers[0], (req(0, 1, 2),), 0.0, C) is None

    fast = helpers.line_city([4.9, 1.0])
    fleet = helpers.place_fleet(fast, [0])
    plan = route_feasible(fast, fleet.drivers[0], (req(0, 1, 2),), 0.0, C)
    assert plan is not None
    assert plan.stops[0].arrival == 294.0


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
    arrivals = {(s.kind, s.request_id): s.arrival for s in plan.stops}
    direct_b = under_cap.travel_minutes[1, 3] * 60.0
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
        {0: FeasibleAction(driver_id=0, requests=(committed,), route=plan)},
        graph,
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
    arrivals = {(s.kind, s.request_id): s.arrival for s in plan.stops}
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
    assert actions[0].route is None


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
    bound needs about ten million nodes without the dominance prune."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", "contended_epoch0.json")
    with open(path) as fh:
        instance = json.load(fh)
    ids = [[tuple(action) for action in per] for per in instance["request_ids"]]
    solution = solve_assignment(instance["weights"], ids)
    assert solution.total_weight == 123.0
    assert solution.chosen == (0, 0, 0, 0, 0, 0, 0, 8, 0, 2, 0, 2, 3, 0, 4, 0, 5, 3, 0, 1)
    assert solution.nodes < 100_000


def fresh_epoch_inputs(graph):
    return RequestLog(), NeighborhoodTallies.empty(graph.neighborhoods.num_neighborhoods)


def test_run_epoch_empty_batch_is_a_no_op():
    graph = helpers.line_city([1.0, 1.0])
    fleet = helpers.place_fleet(graph, [0, 2])
    log, tallies = fresh_epoch_inputs(graph)
    advance_fleet(fleet, 60.0)
    result = run_epoch(
        graph, fleet, RequestBatch(epoch_index=0, requests=()), log, tallies,
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
    )
    log, tallies = fresh_epoch_inputs(graph)
    result = run_epoch(graph, fleet, batch, log, tallies, ObjectiveSpec(name="requests"), C)
    assert result.total_weight == 2.0
    assert sorted(log.serviced_ids) == [0, 1]


def test_run_epoch_income_matches_myopic_brute_force():
    graph = helpers.line_city([1.0, 2.0, 1.0])
    fleet = helpers.place_fleet(graph, [0, 3], capacity=2)
    advance_fleet(fleet, 60.0)
    batch = RequestBatch(
        epoch_index=0,
        requests=(req(0, 0, 1, 5.0), req(1, 3, 2, 12.0), req(2, 1, 3, 30.0)),
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
                total += graph.travel_minutes[r.origin, r.destination] + graph.delta
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
    model = ValueModel(mode="tabular", gamma=0.5, alpha=0.1)
    key_stay = state_key(graph, fleet.drivers[0], 60.0)
    key_move = state_key(graph, fleet.drivers[0], 60.0, route_end=1)
    model.table[key_stay] = 2.0
    model.table[key_move] = 10.0

    batch = RequestBatch(epoch_index=0, requests=(req(0, 0, 1, 5.0),))
    log, tallies = fresh_epoch_inputs(graph)
    result = run_epoch(
        graph, fleet, batch, log, tallies, ObjectiveSpec(name="income"), C,
        value_model=model,
    )
    # taking the ride scores fare + gamma * V(end at 1); recompute by hand
    assert result.total_weight == 6.0 + 0.5 * 10.0
    assert sorted(log.serviced_ids) == [0]


def test_run_epoch_counts_demand_before_matching():
    graph = helpers.line_city([1.0], num_neighborhoods=1)
    fleet = helpers.place_fleet(graph, [0])
    advance_fleet(fleet, 60.0)
    log, tallies = fresh_epoch_inputs(graph)
    batch = RequestBatch(epoch_index=0, requests=(req(0, 0, 1, 5.0), req(1, 1, 0, 6.0)))
    run_epoch(graph, fleet, batch, log, tallies, ObjectiveSpec(name="income"), C)
    assert tallies.requested[1] == 2
    assert tallies.serviced[1] == len(log.serviced_ids)
