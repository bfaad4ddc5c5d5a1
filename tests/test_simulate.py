"""End-to-end episode loop: batching, draining, audits, coalition reruns."""

import copy

import pytest

import helpers
from fairpool.city import fare
from fairpool.demand import RequestLog, RideRequest, batch_requests, synth_demand
from fairpool.fleet import DROPOFF, PICKUP, DriverState, FleetState, Stop, init_fleet
from fairpool.matching import DelayConstraints, RouteMemo
from fairpool.objectives import ObjectiveSpec
from fairpool.simulate import audit_journal, coalition_incomes, run_simulation
from fairpool.value import ValueModel

C = DelayConstraints()


def small_run(graph, seed=2, objective="income", num_drivers=4, on_epoch=None):
    stream = synth_demand(graph, rate_per_epoch=3.0, num_epochs=25, hotspot_skew=0.5, seed=seed)
    batches = batch_requests(stream)
    fleet = init_fleet(graph, num_drivers=num_drivers, capacity=4, seed=seed)
    result = run_simulation(graph, batches, fleet, ObjectiveSpec(name=objective), on_epoch=on_epoch)
    return batches, result


def test_epochs_are_matched_at_window_end(grid55):
    epochs = []
    batches, _ = small_run(grid55, on_epoch=epochs.append)
    assert [e.epoch_index for e in epochs] == [b.epoch_index for b in batches]
    for epoch in epochs:
        assert epoch.clock == (epoch.epoch_index + 1) * 60.0


def test_batches_cut_at_30s_dispatch_at_their_window_end(grid55):
    stream = synth_demand(grid55, 3.0, 25, 0.5, seed=2, epoch_len_seconds=30.0)
    batches = batch_requests(stream, 30.0)
    assert [b.window_end for b in batches] == [(b.epoch_index + 1) * 30.0 for b in batches]
    fleet = init_fleet(grid55, num_drivers=4, capacity=4, seed=2)
    epochs = []
    run_simulation(grid55, batches, fleet, ObjectiveSpec(name="income"), on_epoch=epochs.append)
    assert [e.epoch_index for e in epochs] == list(range(25))
    for epoch in epochs:
        assert epoch.clock == (epoch.epoch_index + 1) * 30.0


def test_drain_leaves_no_open_work(grid55):
    _, result = small_run(grid55)
    assert result.log.assigned_driver, "expected some service at this demand rate"
    for driver in result.fleet.drivers:
        assert driver.route == ()
        assert driver.onboard == {}
        assert driver.active == {}


def test_serviced_requests_partition_into_driver_ledgers(grid55):
    _, result = small_run(grid55)
    completed_by = {}
    for driver in result.fleet.drivers:
        for rid in driver.completed:
            assert rid not in completed_by, "request finished by two drivers"
            completed_by[rid] = driver.driver_id
    assert set(completed_by) == set(result.log.assigned_driver)
    for rid, driver_id in completed_by.items():
        assert result.log.assigned_driver[rid] == driver_id


def test_income_equals_fares_of_serviced_requests(grid55):
    _, result = small_run(grid55)
    total = sum(result.incomes().values())
    fares = sum(
        fare(grid55, req.origin, req.destination)
        for req in result.log.all_requests
        if req.request_id in result.log.assigned_driver
    )
    assert total == pytest.approx(fares, abs=1e-9)
    assert total > 0.0
    for driver in result.fleet.drivers:
        assert driver.income == pytest.approx(helpers.driver_income(grid55, driver), abs=1e-9)


def test_on_epoch_sees_each_epoch_once_committed(grid55):
    stream = synth_demand(grid55, rate_per_epoch=3.0, num_epochs=25, hotspot_skew=0.5, seed=2)
    batches = batch_requests(stream)
    fleet = init_fleet(grid55, num_drivers=4, capacity=4, seed=2)
    seen = []

    def check(epoch):
        # called after the commit and before the fleet moves on: every new
        # ride is ongoing and already paid for
        assert fleet.clock == epoch.clock
        for driver in fleet.drivers:
            assert set(epoch.assignments[driver.driver_id].request_ids) <= set(driver.active)
            assert driver.income == pytest.approx(helpers.driver_income(grid55, driver), abs=1e-9)
        seen.append(epoch)

    run_simulation(grid55, batches, fleet, ObjectiveSpec(name="income"), on_epoch=check)
    assert [e.epoch_index for e in seen] == [b.epoch_index for b in batches]
    assert any(action.requests for epoch in seen for action in epoch.assignments.values())


def test_tallies_match_log(grid55):
    _, result = small_run(grid55)
    assert sum(result.tallies.requested) == len(result.log.all_requests)
    assert sum(result.tallies.serviced) == len(result.log.assigned_driver)
    # the requests objective reads the serviced tallies as the sum of |p_i| + |s_i|
    rides = sum(len(d.active) + len(d.completed) for d in result.fleet.drivers)
    assert rides == sum(result.tallies.serviced)


def test_honest_run_passes_audit(grid55):
    _, result = small_run(grid55)
    assert audit_journal(grid55, result.fleet, result.log, C) == []


def test_audit_flags_tampered_journal(grid55):
    _, result = small_run(grid55)
    rid = min(result.log.assigned_driver)
    driver_id = result.log.assigned_driver[rid]
    req = next(r for r in result.log.all_requests if r.request_id == rid)

    forged = copy.deepcopy(result.fleet)
    forged.journal.append((driver_id, Stop("pickup", rid, req.origin, 10.0)))
    violations = audit_journal(grid55, forged, result.log, C)
    assert any("picked up twice" in v for v in violations)

    forged = copy.deepcopy(result.fleet)
    forged.journal.append((driver_id, Stop("pickup", 10_000, req.origin, 10.0)))
    violations = audit_journal(grid55, forged, result.log, C)
    assert any("unknown request" in v for v in violations)


def test_audit_flags_broken_promises(grid55):
    _, result = small_run(grid55)
    rid = min(result.log.assigned_driver)
    driver_id = result.log.assigned_driver[rid]
    req = next(r for r in result.log.all_requests if r.request_id == rid)
    # rebuild the journal with this request picked up past its deadline
    forged = copy.deepcopy(result.fleet)
    late = req.created_at + C.max_pickup_delay
    forged.journal = [
        (d, Stop(s.kind, s.request_id, s.location, late) if s.request_id == rid and s.kind == "pickup" else s)
        for d, s in forged.journal
    ]
    violations = audit_journal(grid55, forged, result.log, C)
    assert any("pickup wait" in v for v in violations)


def pickup(rid, at):
    """Driver 0 picks request `rid` up at location 0 at time `at`."""
    return 0, Stop(PICKUP, rid, 0, at)


def dropoff(rid, at):
    """Driver 0 drops request `rid` off at its destination at time `at`."""
    return 0, Stop(DROPOFF, rid, (2, 4)[rid], at)


@pytest.mark.parametrize(
    "journal, assigned, expected",
    [
        ([pickup(0, 10.0), dropoff(0, 130.0)], {0: 0}, []),
        (
            [pickup(0, 10.0), dropoff(0, 130.0)],
            {},
            ["request 0 executed but never marked serviced",
             "request 0 executed by driver 0, assigned to None"] * 2,
        ),
        (
            [pickup(0, 10.0), dropoff(0, 130.0)],
            {0: 1},
            ["request 0 executed by driver 0, assigned to 1"] * 2,
        ),
        (
            [pickup(0, 10.0), pickup(1, 10.0), dropoff(0, 130.0), dropoff(1, 250.0)],
            {0: 0, 1: 0},
            ["driver 0 over capacity at t=10.0"],
        ),
        (
            [pickup(0, 10.0), dropoff(0, 130.0), dropoff(0, 130.0)],
            {0: 0},
            ["request 0 dropped off twice"],
        ),
        (
            [dropoff(0, 5.0), pickup(0, 10.0), dropoff(0, 130.0)],
            {0: 0},
            ["request 0 dropped off before pickup"],
        ),
        (
            [pickup(0, 10.0), dropoff(0, 190.0)],
            {0: 0},
            ["request 0 dropoff detour 60.0s breaches 60s"],
        ),
        (
            [pickup(0, 10.0), dropoff(0, 130.0)],
            {0: 0, 1: 1},
            ["serviced request 1 never picked up", "serviced request 1 never dropped off"],
        ),
        ([pickup(0, 10.0)], {0: 0}, ["serviced request 0 never dropped off"]),
    ],
    ids=[
        "clean", "never_marked_serviced", "wrong_driver", "over_capacity", "dropped_off_twice",
        "dropped_off_before_pickup", "detour_breach", "never_picked_up", "never_dropped_off",
    ],
)
def test_audit_names_each_violation(grid55, journal, assigned, expected):
    """A hand-built journal on the 60 s grid: two one-seat drivers, request 0
    from location 0 to 2 (120 s direct) and request 1 from 0 to 4 (240 s),
    both made at t=0."""
    assert [grid55.travel_secs[0][2], grid55.travel_secs[0][4]] == [120.0, 240.0]
    fleet = FleetState([DriverState(0, 1, 0), DriverState(1, 1, 0)], journal=journal)
    log = RequestLog()
    log.all_requests = [RideRequest(0, 0, 2, 0.0), RideRequest(1, 0, 4, 0.0)]
    log.assigned_driver = dict(assigned)
    assert audit_journal(grid55, fleet, log, C) == expected


def test_zero_model_run_is_exactly_myopic(grid55):
    stream = synth_demand(grid55, rate_per_epoch=3.0, num_epochs=15, hotspot_skew=0.5, seed=4)
    batches = batch_requests(stream)
    spec = ObjectiveSpec(name="income")
    plain_epochs, zeroed_epochs = [], []
    plain = run_simulation(
        grid55, batches, init_fleet(grid55, 4, 4, seed=4), spec, on_epoch=plain_epochs.append,
    )
    zeroed = run_simulation(
        grid55, batches, init_fleet(grid55, 4, 4, seed=4), spec,
        value_model=ValueModel(),  # untrained: every state is worth 0
        on_epoch=zeroed_epochs.append,
    )
    assert plain.log.assigned_driver.keys() == zeroed.log.assigned_driver.keys()
    assert plain.incomes() == zeroed.incomes()
    assert [e.total_weight for e in plain_epochs] == [e.total_weight for e in zeroed_epochs]


def test_coalition_run_resets_state(grid55):
    batches = batch_requests(synth_demand(grid55, 2.0, 15, 0.5, seed=9))
    spec = ObjectiveSpec(name="income")
    template = init_fleet(grid55, num_drivers=5, capacity=3, seed=9)
    template.drivers[2].income = 99.0
    # bits 2 and 4: drivers 2 and 4, fresh from the template's start positions
    incomes = coalition_incomes(grid55, batches, template, 0b10100, spec)
    fresh = init_fleet(grid55, num_drivers=5, capacity=3, seed=9)
    assert incomes == coalition_incomes(grid55, batches, fresh, 0b10100, spec)
    assert sorted(incomes) == [2, 4]
    with pytest.raises(ValueError, match="past the fleet"):
        coalition_incomes(grid55, batches, template, 1 << 5, spec)
    with pytest.raises(ValueError, match="at least one"):
        coalition_incomes(grid55, batches, template, 0, spec)


def test_full_coalition_matches_plain_run(grid55):
    stream = synth_demand(grid55, rate_per_epoch=2.0, num_epochs=15, hotspot_skew=0.5, seed=6)
    batches = batch_requests(stream)
    template = init_fleet(grid55, num_drivers=3, capacity=4, seed=6)
    spec = ObjectiveSpec(name="income")
    fresh = init_fleet(grid55, num_drivers=3, capacity=4, seed=6)
    direct = run_simulation(grid55, batches, fresh, spec)
    via_coalition = coalition_incomes(grid55, batches, template, 0b111, spec)
    assert via_coalition == direct.incomes()


def test_subcoalition_run_is_consistent(grid55):
    stream = synth_demand(grid55, rate_per_epoch=2.0, num_epochs=15, hotspot_skew=0.5, seed=6)
    batches = batch_requests(stream)
    template = init_fleet(grid55, num_drivers=3, capacity=4, seed=6)
    spec = ObjectiveSpec(name="income")
    solo = coalition_incomes(grid55, batches, template, 0b010, spec)  # driver 1
    assert set(solo) == {1}
    assert solo[1] >= 0.0
    # rerunning the same coalition reproduces the same incomes
    assert solo == coalition_incomes(grid55, batches, template, 0b010, spec)


def test_training_is_deterministic(grid55):
    spec = ObjectiveSpec(name="income")
    fields = dict(
        num_drivers=3, capacity=4, demand_rate_per_epoch=2.0, demand_num_epochs=10,
        demand_hotspot_skew=0.6, train_episodes=3, seed=13, gamma=0.9, value_alpha=0.2,
    )
    model_a, errors_a = helpers.train_synthetic(grid55, spec, **fields)
    model_b, errors_b = helpers.train_synthetic(grid55, spec, **fields)
    assert model_a.table == model_b.table
    assert errors_a == errors_b
    assert model_a.table, "training should have touched some states"


def test_zero_episodes_leave_model_untouched(grid55):
    model, errors = helpers.train_synthetic(
        grid55, ObjectiveSpec(name="income"),
        num_drivers=2, capacity=4, demand_rate_per_epoch=2.0, demand_num_epochs=5,
        demand_hotspot_skew=0.5, train_episodes=0, seed=1,
    )
    assert errors == []
    assert model.table == {}


@pytest.mark.parametrize("objective", ["income", "driver_fairness"])
def test_shared_memo_runs_match_memo_free_runs_epoch_for_epoch(grid55, objective):
    """Coalitions of a contended 5-driver day share one memo, which hands
    back route enumerations and assignment solves met before: every epoch
    of every run keeps the total weight bits, assignments and solver nodes
    of the same run without a memo."""
    batches = batch_requests(synth_demand(grid55, 6.0, 20, 0.6, seed=7))
    template = init_fleet(grid55, num_drivers=5, capacity=4, seed=7)
    spec = ObjectiveSpec(name=objective, lam=1.0)
    memo = RouteMemo()

    def epochs(mask, route_memo):
        fleet = FleetState([
            DriverState(driver_id=d.driver_id, capacity=d.capacity, loc=d.loc)
            for i, d in enumerate(template.drivers) if mask >> i & 1
        ])
        seen = []
        run_simulation(grid55, batches, fleet, spec, route_memo=route_memo, on_epoch=lambda e: seen.append((
            e.total_weight.hex(),
            {d: a.request_ids for d, a in e.assignments.items()},
            e.solver_nodes,
        )))
        return seen

    # the full fleet twice (the second run hits every epoch's solve), then
    # every coalition, which meets solves of the others
    for mask in [31, 31] + list(range(1, 31)):
        assert epochs(mask, memo) == epochs(mask, None)
    assert memo.solve_hits > len(batches)

