"""Shapley attribution and the risk-blended payout scheme."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fairpool.demand import batch_requests, synth_demand
from fairpool.fleet import init_fleet
from fairpool.matching import DelayConstraints
from fairpool.objectives import ObjectiveSpec
from fairpool.redistribution import (
    EXACT_SHAPLEY_CAP,
    RedistributionParams,
    ResimulationOracle,
    TableOracle,
    gain_metric,
    load_coalition_table,
    mean_gain,
    minimum_wage_bound,
    redistribute,
    shapley_exact,
    shapley_mc,
)
from fairpool.simulate import coalition_incomes

# worked three-driver pooling economy: drivers 1 and 2 are interchangeable,
# driver 3 brings less and adds nothing once both of the others are present;
# bits 0, 1 and 2 stand for drivers 1, 2 and 3
WORKED_TABLE = {
    0b000: 0.0,
    0b001: 10.0,  # {1}
    0b010: 10.0,  # {2}
    0b100: 5.0,  # {3}
    0b011: 15.0,  # {1, 2}
    0b101: 15.0,  # {1, 3}
    0b110: 15.0,  # {2, 3}
    0b111: 15.0,  # {1, 2, 3}
}


def test_worked_example_values_are_exact():
    estimate = shapley_exact(TableOracle(WORKED_TABLE, (1, 2, 3)))
    assert estimate.values == (float(35.0 / 6.0), float(35.0 / 6.0), float(10.0 / 3.0))
    assert sum(estimate.values) == 15.0
    assert estimate.method == "exact"


def test_single_driver_gets_its_own_value():
    oracle = TableOracle({0: 0.0, 0b1: 12.5}, (4,))  # bit 0 is driver 4
    estimate = shapley_exact(oracle)
    assert estimate.values == (12.5,)
    assert dict(zip(estimate.driver_ids, estimate.values)) == {4: 12.5}


def test_symmetric_drivers_get_equal_values():
    rng = np.random.default_rng(0)
    for _ in range(5):
        # integer table that depends only on how many of drivers {0, 1} are
        # present, never on which, so those two must come out identical
        profile_value = {
            (size_01, has_2): float(rng.integers(0, 50)) for size_01 in range(3)
            for has_2 in (False, True)
        }
        profile_value[(0, False)] = 0.0
        table = {}
        for mask in range(8):
            size_01 = (mask & 1 > 0) + (mask & 2 > 0)
            has_2 = mask & 4 > 0
            table[mask] = profile_value[(size_01, has_2)]
        estimate = shapley_exact(TableOracle(table, (0, 1, 2)))
        assert estimate.values[0] == estimate.values[1]


def test_dummy_driver_gets_zero():
    # driver 9 never changes any coalition's value; bits 0, 1 and 2 stand
    # for drivers 1, 2 and 9
    table = {}
    for mask in range(4):
        value = 7.0 * bin(mask).count("1")
        table[mask] = value
        table[mask | 0b100] = value
    table[0b000] = 0.0
    table[0b100] = 0.0
    estimate = shapley_exact(TableOracle(table, (1, 2, 9)))
    assert dict(zip(estimate.driver_ids, estimate.values))[9] == 0.0


def test_efficiency_on_random_tables():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        table = helpers.random_game(rng, n)
        estimate = shapley_exact(TableOracle(table, range(n)))
        assert sum(estimate.values) == pytest.approx(
            table[(1 << n) - 1], abs=1e-9
        )


def test_exact_cap_directs_to_sampling():
    ids = tuple(range(EXACT_SHAPLEY_CAP + 1))
    with pytest.raises(ValueError, match="shapley_mc"):
        shapley_exact(TableOracle({}, ids))


def test_mc_single_driver_is_exact_for_any_sample_count():
    oracle = TableOracle({0: 0.0, 0b1: 9.0}, (0,))
    for samples in (1, 7):
        estimate = shapley_mc(oracle, samples, seed=123)
        assert estimate.values == (9.0,)
        assert estimate.samples == samples


def test_mc_deterministic_per_seed():
    oracle = TableOracle(WORKED_TABLE, (1, 2, 3))
    a = shapley_mc(oracle, 500, seed=5)
    b = shapley_mc(oracle, 500, seed=5)
    c = shapley_mc(oracle, 500, seed=6)
    assert a.values == b.values
    assert a.values != c.values


def test_mc_approaches_exact_on_worked_example():
    oracle = TableOracle(WORKED_TABLE, (1, 2, 3))
    estimate = shapley_mc(oracle, 2000, seed=11)
    exact = shapley_exact(oracle)
    for got, want in zip(estimate.values, exact.values):
        assert got == pytest.approx(want, abs=1.0)
    # every permutation's marginals telescope, so efficiency holds exactly
    # up to accumulation rounding even at tiny sample counts
    assert sum(estimate.values) == pytest.approx(15.0, abs=1e-9)


def test_mc_standard_error_is_zero_on_an_additive_game():
    # every marginal contribution is the driver's own integer value, so the
    # Welford sums see one repeated number and stay exactly zero; bit d is
    # driver d
    base = {0: 3.0, 1: 7.0, 2: 11.0, 3: 2.0}
    table = {mask: sum(base[d] for d in base if mask >> d & 1) for mask in range(1 << len(base))}
    estimate = shapley_mc(TableOracle(table, tuple(base)), 300, seed=4)
    assert estimate.values == tuple(base.values())
    assert estimate.std_errors == (0.0, 0.0, 0.0, 0.0)
    assert shapley_exact(TableOracle(table, tuple(base))).std_errors == ()


def test_mc_standard_error_falls_with_the_square_root_of_samples():
    rng = np.random.default_rng(11)  # the first game of criterion 02
    n = int(rng.integers(5, 9))
    oracle = TableOracle(helpers.random_game(rng, n), range(n))
    exact = shapley_exact(oracle)
    coarse = shapley_mc(oracle, 200, seed=0)
    fine = shapley_mc(oracle, 3200, seed=0)
    # 16x the permutations: about a quarter of the standard error
    for a, b in zip(coarse.std_errors, fine.std_errors):
        assert 3.0 < a / b < 5.5
    for value, want, err in zip(fine.values, exact.values, fine.std_errors):
        assert abs(value - want) < 4.0 * err
    single = shapley_mc(oracle, 1, seed=0)
    assert all(math.isnan(err) for err in single.std_errors)


def test_redistribute_hand_case():
    params = RedistributionParams(r=0.5, mode="keep_income")
    q = redistribute([15.0, 0.0], [5.0, 10.0], params)
    # only driver 1 is under water (10 > 0.5*0); the pool of 7.5 goes there
    assert q == [7.5, 7.5]


def test_redistribute_full_risk_endpoints():
    pi = [15.0, 0.0]
    v = [5.0, 10.0]
    assert redistribute(pi, v, RedistributionParams(r=1.0, mode="as_printed")) == v
    assert redistribute(pi, v, RedistributionParams(r=1.0, mode="keep_income")) == pi


def test_redistribute_zero_risk_returns_attributed_values():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        pi, v = helpers.balanced_instance(rng, n)
        assert redistribute(pi, v, RedistributionParams(r=0.0, mode="as_printed")) == v
        # with matching totals the keep_income pool rate is exactly one
        assert redistribute(pi, v, RedistributionParams(r=0.0, mode="keep_income")) == v


def test_redistribute_identity_when_income_matches_value():
    v = [4.0, 6.0, 2.0]
    assert redistribute(v, v, RedistributionParams(r=0.5, mode="as_printed")) == v
    assert redistribute(v, v, RedistributionParams(r=0.5, mode="keep_income")) == v
    for r in (0.3, 0.7):
        for mode in ("as_printed", "keep_income"):
            q = redistribute(v, v, RedistributionParams(r=r, mode=mode))
            assert q == pytest.approx(v, abs=1e-9)


def test_redistribute_no_deficit_pays_risk_share_only():
    pi = [10.0, 20.0]
    zero_v = [0.0, 0.0]
    params = RedistributionParams(r=0.4, mode="keep_income")
    assert redistribute(pi, zero_v, params) == [4.0, 8.0]
    assert redistribute(pi, zero_v, RedistributionParams(r=0.4, mode="as_printed")) == [0.0, 0.0]


def test_redistribute_validation():
    with pytest.raises(ValueError, match="differ in length"):
        redistribute([1.0], [1.0, 2.0], RedistributionParams(r=0.5))
    with pytest.raises(ValueError, match="negative"):
        redistribute([-1.0], [1.0], RedistributionParams(r=0.5))
    with pytest.raises(ValueError, match="risk parameter"):
        RedistributionParams(r=1.5)
    with pytest.raises(ValueError, match="unknown payout mode"):
        RedistributionParams(r=0.5, mode="socialize")


def test_gain_is_one_under_full_risk_as_printed():
    pi = [15.0, 0.0]
    v = [5.0, 10.0]
    params = RedistributionParams(r=1.0, mode="as_printed")
    assert gain_metric(pi, v, params, 0) == 1.0
    assert gain_metric(pi, v, params, 1) == 1.0
    assert mean_gain(pi, v, params) == 1.0


def test_gain_is_zero_under_full_risk_keep_income():
    params = RedistributionParams(r=1.0, mode="keep_income")
    assert gain_metric([15.0, 0.0], [5.0, 10.0], params, 0) == 0.0
    assert gain_metric([15.0, 0.0], [5.0, 10.0], params, 1) == 0.0


def test_gain_zero_when_driver_already_absorbs_the_pool():
    # doubling the only deficit holder's value leaves its payout unchanged
    params = RedistributionParams(r=0.5, mode="keep_income")
    assert gain_metric([15.0, 0.0], [5.0, 10.0], params, 1) == 0.0


def test_gain_rejects_zero_value():
    with pytest.raises(ValueError, match="zero value"):
        gain_metric([1.0, 1.0], [1.0, 0.0], RedistributionParams(r=0.5), 1)


def test_minimum_wage_bound_values():
    assert minimum_wage_bound(10.0, 0.5) == 5.0
    assert minimum_wage_bound(10.0, 0.0) == 0.0
    assert minimum_wage_bound(10.0, 1.0) == 0.0
    assert minimum_wage_bound(20.0, 0.9) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValueError):
        minimum_wage_bound(-1.0, 0.5)


@settings(max_examples=150)
@given(data=st.data())
def test_payout_floor_and_budget_on_balanced_instances(data):
    """Every payout sits above its wage floor and the budget is conserved."""
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(min_value=1, max_value=10))
    pi, v = helpers.balanced_instance(rng, n)
    r = data.draw(st.floats(min_value=0.0, max_value=1.0))
    mode = data.draw(st.sampled_from(("as_printed", "keep_income")))
    q = redistribute(pi, v, RedistributionParams(r=r, mode=mode))
    for q_i, v_i in zip(q, v):
        assert q_i >= minimum_wage_bound(v_i, r) - 1e-9
    assert sum(q) == pytest.approx(sum(pi), abs=1e-9)


@settings(max_examples=80)
@given(data=st.data())
def test_payout_monotone_in_attributed_value(data):
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(min_value=1, max_value=8))
    pi, v = helpers.balanced_instance(rng, n)
    r = data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    mode = data.draw(st.sampled_from(("as_printed", "keep_income")))
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    params = RedistributionParams(r=r, mode=mode)
    previous = redistribute(pi, v, params)[i]
    for step in range(1, 11):
        bumped = list(v)
        bumped[i] = v[i] + 2.0 * step
        current = redistribute(pi, bumped, params)[i]
        assert current >= previous - 1e-9
        previous = current


def test_load_coalition_table_round_trip(tmp_path):
    path = tmp_path / "game.csv"
    path.write_text(
        "coalition_bitmask,value\n"
        "0,0.0\n1,10.0\n2,10.0\n4,5.0\n3,15.0\n5,15.0\n6,15.0\n7,15.0\n"
    )
    oracle = load_coalition_table(path)
    assert oracle.driver_ids == range(3)
    estimate = shapley_exact(oracle)
    assert sum(estimate.values) == 15.0


def test_load_coalition_table_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("mask,value\n1,1.0\n")
    with pytest.raises(ValueError, match="expected header"):
        load_coalition_table(bad_header)

    malformed = tmp_path / "m.csv"
    malformed.write_text("coalition_bitmask,value\n1,1.0\nx,2.0\n")
    with pytest.raises(ValueError, match=":3:"):
        load_coalition_table(malformed)

    duplicate = tmp_path / "d.csv"
    duplicate.write_text("coalition_bitmask,value\n1,1.0\n1,2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_coalition_table(duplicate)

    nonzero_empty = tmp_path / "e.csv"
    nonzero_empty.write_text("coalition_bitmask,value\n0,3.0\n")
    with pytest.raises(ValueError, match="empty coalition"):
        load_coalition_table(nonzero_empty)

    empty = tmp_path / "none.csv"
    empty.write_text("coalition_bitmask,value\n")
    with pytest.raises(ValueError, match="no coalitions"):
        load_coalition_table(empty)

    negative = tmp_path / "n.csv"
    negative.write_text("coalition_bitmask,value\n-1,1.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(negative))}:2: bitmask must be nonnegative$"):
        load_coalition_table(negative)


def test_table_oracle_missing_coalition(tmp_path):
    path = tmp_path / "game.csv"
    path.write_text("coalition_bitmask,value\n1,1.0\n2,1.0\n")
    oracle = load_coalition_table(path)
    with pytest.raises(ValueError, match="missing from table"):
        shapley_exact(oracle)


def test_shared_route_memo_oracle_matches_fresh_resimulations(grid55):
    """One oracle sharing its route memo across all coalitions gives every
    coalition the incomes of a fresh, memo-free resimulation, bit for bit,
    with a trained tabular value model in the action weights."""
    spec = ObjectiveSpec(name="income")
    constraints = DelayConstraints()
    model, _ = helpers.train_synthetic(
        grid55, spec, num_drivers=4, capacity=4, demand_rate_per_epoch=4.0,
        demand_num_epochs=15, demand_hotspot_skew=0.6, train_episodes=2, seed=3,
        gamma=0.9, value_alpha=0.2,
    )
    assert any(v != 0.0 for v in model.table.values())
    batches = batch_requests(synth_demand(grid55, 4.0, 15, 0.6, seed=3))
    template = init_fleet(grid55, num_drivers=4, capacity=4, seed=3)
    ids = [d.driver_id for d in template.drivers]

    def oracle():
        return ResimulationOracle(grid55, batches, template, spec, constraints, value_model=model)

    shared = oracle()
    fresh_values = {0: 0.0}
    for mask in range(1, 1 << len(ids)):
        fresh = coalition_incomes(grid55, batches, template, mask, spec, constraints, model)
        got = shared.incomes(mask)
        assert {d: x.hex() for d, x in got.items()} == {d: x.hex() for d, x in fresh.items()}
        fresh_values[mask] = sum(fresh.values())
    assert shared.coalitions == 15
    assert shared.route_memo.hits > 0

    # Monte Carlo visits coalitions in permutation order, so the memo fills
    # in a different order than above; the estimate must not notice
    mc_shared = shapley_mc(oracle(), 200, seed=5)
    mc_table = shapley_mc(TableOracle(fresh_values, ids), 200, seed=5)
    assert [v.hex() for v in mc_shared.values] == [v.hex() for v in mc_table.values]
