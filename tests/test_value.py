"""Value model: state keys, temporal-difference updates, persistence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from fairpool.fleet import DriverState
from fairpool.value import (
    BUCKET_SECONDS,
    ValueModel,
    load_value_model,
    save_value_model,
    state_key,
    td_update,
)


def test_state_key_components():
    graph = helpers.line_city([1.0], num_neighborhoods=2)
    driver = DriverState(driver_id=0, capacity=4, loc=0)
    assert state_key(graph, driver, 0.0) == (1, 0, 0)
    assert state_key(graph, driver, BUCKET_SECONDS - 1.0) == (1, 0, 0)
    assert state_key(graph, driver, BUCKET_SECONDS) == (1, 0, 1)
    driver.onboard = {5: 0.0}
    assert state_key(graph, driver, 0.0)[1] == 1
    assert state_key(graph, driver, 0.0, route_end=1) == (2, 1, 0)


def test_tabular_estimates_sum_over_keys():
    model = ValueModel()
    model.table[(1, 0, 0)] = 2.0
    model.table[(2, 0, 0)] = 5.0
    assert model.estimate((1, 0, 0)) == 2.0
    assert model.estimate((9, 9, 9)) == 0.0
    assert model.estimate((1, 0, 0)) + model.estimate((2, 0, 0)) == 7.0


def test_td_update_formula():
    model = ValueModel(gamma=0.9, alpha=0.5)
    error = td_update(model, (1, 0, 0), 1.0, (2, 0, 0))
    # empty table: error is reward + gamma*0 - 0, update moves half of it
    assert error == 1.0
    assert model.table[(1, 0, 0)] == 0.5


def test_td_update_terminal_bootstraps_zero():
    model = ValueModel(gamma=0.9, alpha=1.0)
    td_update(model, (1, 0, 0), 4.0, None)
    assert model.table[(1, 0, 0)] == 4.0


def test_td_update_fixed_point_is_stable():
    model = ValueModel(gamma=0.9, alpha=0.3)
    model.table[(1, 0, 0)] = 0.9
    model.table[(2, 0, 0)] = 1.0
    error = td_update(model, (1, 0, 0), 0.0, (2, 0, 0))
    assert error == 0.0
    assert model.table[(1, 0, 0)] == 0.9


@settings(max_examples=60)
@given(
    value_pre=st.floats(min_value=-5.0, max_value=5.0),
    value_post=st.floats(min_value=-5.0, max_value=5.0),
    reward=st.floats(min_value=-3.0, max_value=3.0),
    alpha=st.floats(min_value=0.05, max_value=0.5),
)
def test_td_update_shrinks_the_error(value_pre, value_post, reward, alpha):
    """For alpha <= 0.5 an update never increases the transition's TD error."""
    model = ValueModel(gamma=0.9, alpha=alpha)
    pre, post = (1, 0, 0), (2, 0, 0)
    model.table[pre] = value_pre
    model.table[post] = value_post

    def residual():
        return reward + model.gamma * model.estimate(post) - model.estimate(pre)

    before = abs(residual())
    td_update(model, pre, reward, post)
    assert abs(residual()) <= before + 1e-12


def test_two_state_chain_converges_to_discounted_returns():
    model = ValueModel(gamma=0.9, alpha=0.1)
    a, b = (1, 0, 0), (2, 0, 0)
    for _ in range(2500):
        td_update(model, a, 1.0, b)
        td_update(model, b, 2.0, a)
    # fixed point of v_a = 1 + 0.9 v_b, v_b = 2 + 0.9 v_a
    assert model.table[a] == pytest.approx((1.0 + 0.9 * 2.0) / (1.0 - 0.81), abs=1e-3)
    assert model.table[b] == pytest.approx((2.0 + 0.9 * 1.0) / (1.0 - 0.81), abs=1e-3)


def test_model_validation():
    with pytest.raises(ValueError, match="gamma"):
        ValueModel(gamma=1.0)
    with pytest.raises(ValueError, match="alpha"):
        ValueModel(alpha=0.0)


def test_td_update_rejects_non_finite():
    model = ValueModel(alpha=1.0)
    with pytest.raises(ValueError, match="not finite"):
        td_update(model, (1, 0, 0), float("inf"), None)


def test_save_load_round_trip_is_bit_exact(tmp_path):
    model = ValueModel(gamma=0.9, alpha=0.1, seed=42)
    model.table[(1, 0, 0)] = 1.0 / 3.0
    model.table[(2, 3, 17)] = -0.1234567890123456789
    model.table[(4, 1, 2)] = 7.0
    path = tmp_path / "values.txt"
    save_value_model(model, path)
    loaded = load_value_model(path)
    assert path.read_text().startswith("# value-table mode=tabular ")
    assert loaded.gamma == model.gamma
    assert loaded.alpha == model.alpha
    assert loaded.seed == model.seed
    assert loaded.table == model.table


def test_save_is_deterministic(tmp_path):
    model = ValueModel()
    model.table[(2, 0, 1)] = 0.25
    model.table[(1, 0, 0)] = 0.5
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_value_model(model, p1)
    save_value_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_values.txt"
    path.write_text("hello\n1 2 3 4\n")
    with pytest.raises(ValueError, match="not a value-table file"):
        load_value_model(path)


@pytest.mark.parametrize("mode", ["zero", "neural", None])
def test_load_rejects_any_mode_but_tabular(tmp_path, mode):
    path = tmp_path / "values.txt"
    save_value_model(ValueModel(), path)
    text = path.read_text().replace("mode=tabular ", "" if mode is None else f"mode={mode} ")
    path.write_text(text)
    with pytest.raises(ValueError, match=f"values.txt: expected mode=tabular, got mode={mode}$"):
        load_value_model(path)


def test_load_reports_malformed_row(tmp_path):
    model = ValueModel()
    model.table[(1, 0, 0)] = 1.0
    path = tmp_path / "values.txt"
    save_value_model(model, path)
    with open(path, "a") as fh:
        fh.write("1 2 3\n")
    with pytest.raises(ValueError, match="expected 4 fields"):
        load_value_model(path)


def test_load_rejects_non_finite_value(tmp_path):
    model = ValueModel()
    model.table[(1, 0, 0)] = 1.0
    path = tmp_path / "values.txt"
    save_value_model(model, path)
    with open(path, "a") as fh:
        fh.write("1 2 3 nan\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_value_model(path)
