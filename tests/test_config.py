"""Flat key = value run configuration: parsing, validation, echo identity."""

import os
from typing import get_type_hints

import pytest

from fairpool.config import (
    _KEYS,
    _PATH_FIELDS,
    ConfigError,
    RunConfig,
    dump_config,
    load_config,
    parse_config,
)

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_defaults():
    config = RunConfig()
    assert config.city_kind == "grid"
    assert (config.city_width, config.city_height) == (5, 5)
    assert config.delta == 5.0
    assert config.num_neighborhoods == 10
    assert config.capacity == 4
    assert config.epoch_len_seconds == 60.0
    assert config.max_pickup_delay == 300.0
    assert config.max_detour_delay == 60.0
    assert config.objective == "income"
    assert config.gamma == 0.9
    assert config.value_mode == "zero"
    assert config.payout_mode == "as_printed"


def test_parse_overrides_and_comments():
    text = """
# run settings
seed = 3
objective.kind = rider_fairness
objective.lambda = 0.5

fleet.num_drivers = 7
"""
    config = parse_config(text)
    assert config.seed == 3
    assert config.objective == "rider_fairness"
    assert config.lam == 0.5
    assert config.num_drivers == 7
    # untouched keys keep their defaults
    assert config.capacity == 4


def test_dump_parse_identity():
    config = RunConfig(seed=9, objective="driver_fairness", lam=2.0 / 3.0,
                       demand_rate_per_epoch=7.25, value_mode="tabular")
    assert parse_config(dump_config(config)) == config


def test_dump_is_sorted_and_complete():
    lines = dump_config(RunConfig()).splitlines()
    assert lines == sorted(lines)
    keys = [line.split(" = ")[0] for line in lines]
    assert "objective.kind" in keys
    assert "fare.delta" in keys


def test_unknown_key_reports_position():
    with pytest.raises(ConfigError, match=r"<config>:2: unknown key 'riders'"):
        parse_config("seed = 1\nriders = 4\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("seed = 1\nseed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="expected `key = value`"):
        parse_config("seed 1\n")


def test_unparseable_value_reports_type():
    with pytest.raises(ConfigError, match="cannot parse 'many' as int"):
        parse_config("fleet.num_drivers = many\n")


def test_validation_failures_name_the_key():
    with pytest.raises(ConfigError, match="objective.kind"):
        parse_config("objective.kind = profit\n")
    with pytest.raises(ConfigError, match="fleet.capacity"):
        parse_config("fleet.capacity = 0\n")
    with pytest.raises(ConfigError, match="demand.hotspot_skew"):
        parse_config("demand.hotspot_skew = 1.5\n")
    with pytest.raises(ConfigError, match="value.episodes"):
        parse_config("value.episodes = 3\n")  # requires tabular mode
    with pytest.raises(ConfigError, match="city.locations"):
        parse_config("city.kind = csv\n")
    with pytest.raises(ConfigError, match="demand.trips"):
        parse_config("demand.kind = csv\n")


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("key", ["constraints.max_pickup_delay", "constraints.max_detour_delay"])
def test_nonpositive_delay_bound_names_its_own_key(key, value):
    with pytest.raises(ConfigError, match=f": {key}: delay bounds must be positive$"):
        parse_config(f"{key} = {value}\n")


def test_relative_paths_resolve_against_config_dir(tmp_path):
    config_dir = tmp_path / "runs"
    config_dir.mkdir()
    path = config_dir / "run.cfg"
    path.write_text(
        "city.kind = csv\n"
        "city.locations = city/locations.csv\n"
        "city.edges = city/edges.csv\n"
    )
    config = load_config(path)
    assert config.city_locations == str(config_dir / "city" / "locations.csv")
    assert config.city_edges == str(config_dir / "city" / "edges.csv")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/place/run.cfg")


def test_float_roundtrip_is_exact():
    config = RunConfig(lam=0.1 + 0.2)  # a value repr must carry exactly
    assert parse_config(dump_config(config)).lam == config.lam


def test_every_default_has_its_annotated_type():
    """A key's parser is its field's annotation, so a float field with an
    int default would dump a value its own parser reads differently."""
    hints = get_type_hints(RunConfig)
    for name, default in RunConfig._field_defaults.items():
        if name in _PATH_FIELDS:
            assert default is None
        else:
            assert type(default) is hints[name], name


def test_readme_config_block_lists_every_key_with_its_default():
    with open(README) as fh:
        block = fh.read().split("## Config format", 1)[1].split("```\n")[1]
    listed = {}
    for line in block.splitlines():
        setting = line.split("#")[0].strip()
        if setting:
            key, value = setting.split(" = ")
            listed[key] = value
    assert sorted(listed) == sorted(_KEYS)
    defaults = dict(line.split(" = ") for line in dump_config(RunConfig()).splitlines())
    assert {key: listed[key] for key in defaults} == defaults  # paths have no default
