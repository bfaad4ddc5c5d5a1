"""Objective evaluation, per-action deltas, and the fairness penalties."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fairpool.objectives import (
    OBJECTIVES,
    NeighborhoodTallies,
    ObjectiveSpec,
    ObjectiveState,
    delta_objective,
    eval_objective,
    pairwise_sum,
    population_variance,
    scored_as,
)


def state_of(incomes, h=None, k=None):
    incomes = [float(x) for x in incomes]
    n = len(k) if k is not None else 1
    tallies = NeighborhoodTallies.empty(n)
    if k is not None:
        for j, kj in enumerate(k, start=1):
            tallies.requested[j] = kj
        for j, hj in enumerate(h, start=1):
            tallies.serviced[j] = hj
    return ObjectiveState(incomes=incomes, tallies=tallies)


def test_objective_spec_validation():
    with pytest.raises(ValueError, match="unknown objective"):
        ObjectiveSpec(name="profit")
    with pytest.raises(ValueError, match="nonnegative"):
        ObjectiveSpec(name="income", lam=-1.0)
    assert set(OBJECTIVES) == {"requests", "income", "rider_fairness", "driver_fairness"}


@pytest.mark.parametrize("lam", [float("inf"), float("nan"), float("-inf")])
def test_objective_spec_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="finite"):
        ObjectiveSpec(name="driver_fairness", lam=lam)


def test_population_variance_edges():
    assert population_variance(np.array([])) == 0.0
    assert population_variance(np.array([3.0])) == 0.0
    assert population_variance(np.array([10.0, 5.0])) == 6.25


SPECIAL_FLOATS = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e308, -1e308, 5e-324, -5e-324]


def float_bits(x):
    # which NaN an operation on two NaNs returns follows the machine code's
    # operand order, not the summation order, and no artifact shows it
    return "nan" if math.isnan(x) else bits(x)


def kernel_bits_match_numpy(values):
    with np.errstate(all="ignore"):
        want_sum = helpers.sum_reference(values)
        want_var = helpers.variance_reference(values)
    assert float_bits(pairwise_sum(values)) == float_bits(want_sum)
    assert float_bits(population_variance(values)) == float_bits(want_var)


@settings(max_examples=400)
@given(data=st.data())
def test_pairwise_kernel_matches_numpy_bit_for_bit(data):
    """pairwise_sum and population_variance give np.add.reduce's and np.var's
    bits at every length up to 300: the left fold below 8 values, the eight
    accumulators and their tail up to 128, and the split above."""
    n = data.draw(st.integers(min_value=0, max_value=300))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)).tolist()
    special = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
    for _ in range(data.draw(st.integers(min_value=0, max_value=6)) if n else 0):
        values[data.draw(st.integers(min_value=0, max_value=n - 1))] = data.draw(special)
    kernel_bits_match_numpy(values)


def test_pairwise_kernel_matches_numpy_at_block_boundaries():
    """Lengths on either side of the kernel's 8 and 128 thresholds and of
    numpy's 8,192-element buffer, then the longest with every special value."""
    rng = np.random.default_rng(9)
    values = (rng.standard_normal(10_007) * 10.0 ** rng.integers(-8, 8, size=10_007)).tolist()
    for n in (7, 8, 9, 127, 128, 129, 256, 257, 8_191, 8_192, 8_193, 10_007):
        kernel_bits_match_numpy(values[:n])
    for i, special in enumerate(SPECIAL_FLOATS):
        values[1_000 * i + 3] = special
    kernel_bits_match_numpy(values)


def test_pairwise_sum_of_negative_zeros_is_positive_zero():
    for n in (1, 7, 8, 9, 200):
        assert float_bits(pairwise_sum([-0.0] * n)) == float_bits(0.0)


def test_service_rates_skip_neighborhoods_without_demand():
    tallies = NeighborhoodTallies.empty(3)
    tallies.requested[2] = 4
    tallies.serviced[2] = 1
    assert tallies.service_rates() == [0.25]


def test_eval_requests_counts_accepted_rides():
    state = state_of([0.0, 0.0], h=[5, 1], k=[7, 1])
    assert eval_objective(ObjectiveSpec(name="requests"), state) == 6.0


def test_eval_driver_fairness_hand_value():
    state = state_of([10.0, 5.0])
    assert eval_objective(ObjectiveSpec(name="driver_fairness", lam=1.0), state) == 8.75


def test_eval_rider_fairness_hand_value():
    state = state_of([12.0], h=[1, 0], k=[2, 1])
    # rates are 0.5 and 0.0, population variance 0.0625
    spec = ObjectiveSpec(name="rider_fairness", lam=2.0)
    assert eval_objective(spec, state) == 12.0 - 2.0 * 0.0625


def test_lambda_zero_collapses_to_income():
    state = state_of([3.0, 9.0, 1.0], h=[1], k=[4])
    income = eval_objective(ObjectiveSpec(name="income"), state)
    assert eval_objective(ObjectiveSpec(name="rider_fairness", lam=0.0), state) == income
    assert eval_objective(ObjectiveSpec(name="driver_fairness", lam=0.0), state) == income


def test_driver_fairness_never_exceeds_income():
    spec = ObjectiveSpec(name="driver_fairness", lam=0.7)
    unequal = state_of([10.0, 5.0])
    equal = state_of([7.5, 7.5])
    assert eval_objective(spec, unequal) < eval_objective(ObjectiveSpec(name="income"), unequal)
    assert eval_objective(spec, equal) == eval_objective(ObjectiveSpec(name="income"), equal)


def test_delta_empty_action_is_zero_for_every_objective():
    state = state_of([10.0, 5.0], h=[1], k=[3])
    for name in OBJECTIVES:
        spec = ObjectiveSpec(name=name, lam=0.5)
        assert delta_objective(spec, state, 0, [], []) == 0.0


def test_delta_requests_counts_new_rides():
    state = state_of([0.0])
    assert delta_objective(ObjectiveSpec(name="requests"), state, 0, [6.0, 8.0], [1, 1]) == 2.0


def test_delta_income_sums_fares():
    state = state_of([0.0])
    assert delta_objective(ObjectiveSpec(name="income"), state, 0, [6.0, 8.0], [1, 1]) == 14.0


def test_delta_driver_fairness_rewards_the_poorer_driver():
    # giving the poorer driver a 5 fare equalizes incomes: variance drops from
    # 6.25 to 0, so the delta is the fare plus the full variance relief
    state = state_of([10.0, 5.0])
    spec = ObjectiveSpec(name="driver_fairness", lam=1.0)
    assert delta_objective(spec, state, 1, [5.0], [1]) == 11.25
    # the same fare to the richer driver widens the gap instead
    assert delta_objective(spec, state, 0, [5.0], [1]) < 5.0


def test_delta_matches_eval_difference_exactly_for_linear_objectives():
    state = state_of([4.0, 2.0], h=[1], k=[2])
    for name in ("requests", "income"):
        spec = ObjectiveSpec(name=name)
        delta = delta_objective(spec, state, 0, [7.0], [1])
        after = state.copy()
        after.incomes[0] += 7.0
        after.tallies.add_serviced(1)
        assert delta == eval_objective(spec, after) - eval_objective(spec, state)


@settings(max_examples=100)
@given(data=st.data())
def test_delta_consistent_with_eval_on_random_states(data):
    """delta_objective equals the eval difference for every objective kind."""
    n_drivers = data.draw(st.integers(min_value=1, max_value=6))
    incomes = [
        data.draw(st.floats(min_value=0.0, max_value=50.0)) for _ in range(n_drivers)
    ]
    n_nbhd = data.draw(st.integers(min_value=1, max_value=4))
    k = [data.draw(st.integers(min_value=0, max_value=12)) for _ in range(n_nbhd)]
    h = [data.draw(st.integers(min_value=0, max_value=kj)) for kj in k]
    state = state_of(incomes, h=h, k=k)

    driver_index = data.draw(st.integers(min_value=0, max_value=n_drivers - 1))
    n_new = data.draw(st.integers(min_value=0, max_value=3))
    # labels must have headroom so the serviced bump stays a valid tally
    open_labels = [j + 1 for j in range(n_nbhd) if k[j] - h[j] >= n_new and k[j] > 0]
    if not open_labels:
        return
    fares = [data.draw(st.floats(min_value=1.0, max_value=20.0)) for _ in range(n_new)]
    labels = [data.draw(st.sampled_from(open_labels)) for _ in range(n_new)]

    kind = data.draw(st.sampled_from(OBJECTIVES))
    lam = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    spec = ObjectiveSpec(name=kind, lam=lam)

    delta = delta_objective(spec, state, driver_index, fares, labels)
    after = state.copy()
    after.incomes[driver_index] += float(sum(fares))
    for label in labels:
        after.tallies.add_serviced(label)
    diff = eval_objective(spec, after) - eval_objective(spec, state)
    assert delta == pytest.approx(diff, abs=1e-9)


def test_delta_additive_for_linear_objectives_across_drivers():
    state = state_of([1.0, 2.0, 3.0])
    spec = ObjectiveSpec(name="income")
    parts = [
        delta_objective(spec, state, 0, [4.0], [1]),
        delta_objective(spec, state, 1, [2.5], [1]),
    ]
    after = state.copy()
    after.incomes[0] += 4.0
    after.incomes[1] += 2.5
    joint = eval_objective(spec, after) - eval_objective(spec, state)
    assert joint == sum(parts)


@settings(max_examples=150)
@given(data=st.data())
def test_delta_memo_matches_reference_over_call_sequences(data):
    """One state scored many times in a row, as run_epoch does, gives each
    call exactly the reference's answer on a fresh copy. Fares come from a
    small set so equal fare sums recur under different drivers, repeats
    reverse the label order, and a commit step moves to a mutated copy the
    way the next epoch does."""
    n_drivers = data.draw(st.integers(min_value=2, max_value=5))
    incomes = [data.draw(st.sampled_from([0.0, 3.5, 8.0, 12.25, 20.0])) for _ in range(n_drivers)]
    n_nbhd = data.draw(st.integers(min_value=1, max_value=4))
    k = [data.draw(st.integers(min_value=4, max_value=12)) for _ in range(n_nbhd)]
    h = [data.draw(st.integers(min_value=0, max_value=2)) for _ in range(n_nbhd)]
    state = state_of(incomes, h=h, k=k)

    scored = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=25))):
        step = data.draw(st.sampled_from(["score", "score", "repeat", "commit"]))
        if step == "commit" and scored:
            _, _, driver_index, fares, labels = scored[-1]
            state = state.copy()
            state.incomes[driver_index] += float(sum(fares))
            for label in labels:
                state.tallies.add_serviced(label)
            continue
        if step == "repeat" and scored:
            kind, lam, _, fares, labels = data.draw(st.sampled_from(scored))
            fares, labels = fares[::-1], labels[::-1]
        else:
            kind = data.draw(st.sampled_from(["rider_fairness", "driver_fairness"]))
            lam = data.draw(st.sampled_from([0.0, 0.5, 3000.0]))
            count = data.draw(st.integers(min_value=0, max_value=2))
            fares = [data.draw(st.sampled_from([4.0, 7.5, 12.0])) for _ in range(count)]
            labels = [data.draw(st.integers(min_value=1, max_value=n_nbhd)) for _ in range(count)]
        driver_index = data.draw(st.integers(min_value=0, max_value=n_drivers - 1))
        scored.append((kind, lam, driver_index, fares, labels))
        spec = ObjectiveSpec(name=kind, lam=lam)
        got = delta_objective(spec, state, driver_index, fares, labels)
        want = helpers.delta_objective_reference(spec, state.copy(), driver_index, fares, labels)
        assert got == want
        assert got.hex() == want.hex()


def test_objective_states_start_with_an_empty_variance_memo():
    state = state_of([10.0, 5.0], h=[1], k=[3])
    delta_objective(ObjectiveSpec(name="driver_fairness", lam=1.0), state, 1, [5.0], [1])
    delta_objective(ObjectiveSpec(name="rider_fairness", lam=1.0), state, 1, [5.0], [1])
    assert state.variances
    assert state.copy().variances == {}


def test_scored_as_names_the_scoring_class():
    for lam in (0.0, -0.0, 0.5, 3000.0):
        assert scored_as(ObjectiveSpec("requests", lam)) == ObjectiveSpec("requests")
        assert scored_as(ObjectiveSpec("income", lam)) == ObjectiveSpec("income")
    for name in ("rider_fairness", "driver_fairness"):
        assert scored_as(ObjectiveSpec(name, 0.0)) == ObjectiveSpec("income")
        assert scored_as(ObjectiveSpec(name, -0.0)) == ObjectiveSpec("income")
        assert scored_as(ObjectiveSpec(name, 0.5)) == ObjectiveSpec(name, 0.5)


def bits(x):
    return struct.pack("<d", x)


@settings(max_examples=200)
@given(data=st.data())
def test_scored_as_scores_bit_for_bit_like_the_spec(data):
    """A spec and its scoring class give every state the same value and every
    action the same delta, to the bit: requests and income at any lambda,
    and a fairness objective at lambda 0.0 or -0.0, over any finite incomes
    (negative zero and variances that overflow included)."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    n_drivers = data.draw(st.integers(min_value=1, max_value=5))
    incomes = [data.draw(finite) for _ in range(n_drivers)]
    n_nbhd = data.draw(st.integers(min_value=1, max_value=4))
    k = [data.draw(st.integers(min_value=0, max_value=12)) for _ in range(n_nbhd)]
    h = [data.draw(st.integers(min_value=0, max_value=kj)) for kj in k]
    state = state_of(incomes, h=h, k=k)
    driver_index = data.draw(st.integers(min_value=0, max_value=n_drivers - 1))
    count = data.draw(st.integers(min_value=0, max_value=3))
    fares = [data.draw(finite) for _ in range(count)]
    labels = [data.draw(st.integers(min_value=1, max_value=n_nbhd)) for _ in range(count)]

    name = data.draw(st.sampled_from(OBJECTIVES))
    lams = [st.just(0.0), st.just(-0.0)]
    if name in ("requests", "income"):
        lams.append(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    spec = ObjectiveSpec(name, data.draw(st.one_of(*lams)))
    scoring = scored_as(spec)
    with np.errstate(over="ignore"):  # huge incomes overflow their sum to inf
        assert bits(eval_objective(spec, state)) == bits(eval_objective(scoring, state))
        got = delta_objective(spec, state, driver_index, fares, labels)
        want = delta_objective(scoring, state.copy(), driver_index, fares, labels)
    assert bits(got) == bits(want)
