"""Run configuration: a flat, diff-friendly key = value text format.

One `key = value` statement per line, dotted key names, full-line comments
with `#`, no sections and no nesting. RunConfig is the one table of keys:
each field names its dotted key, and its annotation parses the value (int,
float, or str for the rest). load_config applies defaults and validates;
dump_config emits every resolved key in sorted order, so the echo written
next to run artifacts reloads to an identical config and reruns the exact
experiment. Command-line overrides go through the same checks.
"""

import math
import os
from typing import Annotated, NamedTuple, get_type_hints

from .objectives import OBJECTIVES
from .redistribution import PAYOUT_MODES

VALUE_MODES = ("zero", "tabular")

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "dump_config", "validate_config"]


class ConfigError(Exception):
    pass


class RunConfig(NamedTuple):
    seed: Annotated[int, "seed"] = 0
    # city: a synthetic grid, or location/edge CSV files
    city_kind: Annotated[str, "city.kind"] = "grid"
    city_width: Annotated[int, "city.width"] = 5
    city_height: Annotated[int, "city.height"] = 5
    city_edge_minutes: Annotated[float, "city.edge_minutes"] = 1.0
    city_locations: Annotated[str | None, "city.locations"] = None
    city_edges: Annotated[str | None, "city.edges"] = None
    num_neighborhoods: Annotated[int, "city.neighborhoods"] = 10
    delta: Annotated[float, "fare.delta"] = 5.0
    # demand: a seeded synthetic stream, or a trip CSV
    demand_kind: Annotated[str, "demand.kind"] = "synthetic"
    demand_rate_per_epoch: Annotated[float, "demand.rate_per_epoch"] = 4.0
    demand_num_epochs: Annotated[int, "demand.num_epochs"] = 50
    demand_hotspot_skew: Annotated[float, "demand.hotspot_skew"] = 0.6
    demand_trips: Annotated[str | None, "demand.trips"] = None
    # fleet and matching
    num_drivers: Annotated[int, "fleet.num_drivers"] = 5
    capacity: Annotated[int, "fleet.capacity"] = 4
    epoch_len_seconds: Annotated[float, "epoch.length_seconds"] = 60.0
    max_pickup_delay: Annotated[float, "constraints.max_pickup_delay"] = 300.0
    max_detour_delay: Annotated[float, "constraints.max_detour_delay"] = 60.0
    objective: Annotated[str, "objective.kind"] = "income"
    lam: Annotated[float, "objective.lambda"] = 0.0
    gamma: Annotated[float, "objective.gamma"] = 0.9
    # value model
    value_mode: Annotated[str, "value.mode"] = "zero"
    value_alpha: Annotated[float, "value.alpha"] = 0.1
    train_episodes: Annotated[int, "value.episodes"] = 0
    # redistribution defaults used by the payout commands
    payout_mode: Annotated[str, "payout.mode"] = "as_printed"


# dotted config key -> (RunConfig field, value parser); the key is the
# field's annotation metadata, and the parser is its type for int and float
# fields, str for the rest
_KEYS: dict[str, tuple[str, type]] = {
    hint.__metadata__[0]: (name, hint.__origin__ if hint.__origin__ in (int, float) else str)
    for name, hint in get_type_hints(RunConfig, include_extras=True).items()
}
_PATH_FIELDS = ("city_locations", "city_edges", "demand_trips")


def parse_config(text: str, base_dir: str = ".", source: str = "<config>") -> RunConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        field_name, parser = _KEYS[key]
        if field_name in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            parsed: object = parser(value)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: cannot parse {value!r} as {parser.__name__} for {key}"
            ) from None
        if parser is float and not math.isfinite(parsed):
            raise ConfigError(f"{source}:{lineno}: {key} must be a finite number, got {value!r}")
        if field_name in _PATH_FIELDS and not os.path.isabs(str(parsed)):
            parsed = os.path.normpath(os.path.join(base_dir, str(parsed)))
        values[field_name] = parsed
    config = RunConfig(**values)
    validate_config(config, source)
    return config


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)), source=path)


def validate_config(config: RunConfig, source: str) -> None:
    """Raise ConfigError, naming `source` and the key, on the first value
    of `config` out of its range."""
    def fail(key: str, message: str) -> None:
        raise ConfigError(f"{source}: {key}: {message}")

    if config.seed < 0:
        fail("seed", f"seed must be a non-negative integer, got {config.seed}")
    if config.city_kind not in ("grid", "csv"):
        fail("city.kind", f"expected grid or csv, got {config.city_kind!r}")
    if config.city_kind == "grid":
        if config.city_width < 1 or config.city_height < 1:
            fail("city.width", "grid dimensions must be at least 1x1")
        if config.city_edge_minutes <= 0:
            fail("city.edge_minutes", "edge travel time must be positive")
        locations = config.city_width * config.city_height
        if config.num_neighborhoods > locations:
            fail("city.neighborhoods", f"more than the grid's {locations} locations")
    else:
        if not config.city_locations or not config.city_edges:
            fail("city.locations", "csv city needs both city.locations and city.edges")
    if config.demand_kind not in ("synthetic", "csv"):
        fail("demand.kind", f"expected synthetic or csv, got {config.demand_kind!r}")
    if config.demand_kind == "synthetic":
        if config.demand_rate_per_epoch < 0:
            fail("demand.rate_per_epoch", "rate must be nonnegative")
        if config.demand_num_epochs < 0:
            fail("demand.num_epochs", "epoch count must be nonnegative")
        if not 0.0 <= config.demand_hotspot_skew <= 1.0:
            fail("demand.hotspot_skew", "skew must lie in [0, 1]")
    elif not config.demand_trips:
        fail("demand.trips", "csv demand needs demand.trips")
    if config.num_neighborhoods < 1:
        fail("city.neighborhoods", "need at least one neighborhood")
    if config.delta < 0:
        fail("fare.delta", "delta must be nonnegative")
    if config.num_drivers < 1:
        fail("fleet.num_drivers", "need at least one driver")
    if config.capacity < 1:
        fail("fleet.capacity", "capacity must be positive")
    if config.epoch_len_seconds <= 0:
        fail("epoch.length_seconds", "epoch length must be positive")
    if config.max_pickup_delay <= 0:
        fail("constraints.max_pickup_delay", "delay bounds must be positive")
    if config.max_detour_delay <= 0:
        fail("constraints.max_detour_delay", "delay bounds must be positive")
    if config.objective not in OBJECTIVES:
        fail("objective.kind", f"expected one of {OBJECTIVES}, got {config.objective!r}")
    if config.lam < 0:
        fail("objective.lambda", "lambda must be nonnegative")
    if not 0.0 <= config.gamma < 1.0:
        fail("objective.gamma", "gamma must lie in [0, 1)")
    if config.value_mode not in VALUE_MODES:
        fail("value.mode", f"expected one of {VALUE_MODES}, got {config.value_mode!r}")
    if not 0.0 < config.value_alpha <= 1.0:
        fail("value.alpha", "alpha must lie in (0, 1]")
    if config.train_episodes < 0:
        fail("value.episodes", "episode count must be nonnegative")
    if config.train_episodes > 0 and config.value_mode != "tabular":
        fail("value.episodes", "training episodes require value.mode = tabular")
    if config.train_episodes > 0 and config.demand_kind != "synthetic":
        fail("value.episodes", "training episodes require synthetic demand")
    if config.payout_mode not in PAYOUT_MODES:
        fail("payout.mode", f"expected one of {PAYOUT_MODES}, got {config.payout_mode!r}")


def dump_config(config: RunConfig) -> str:
    """Every key in sorted order, defaults applied; None-valued paths omitted.
    parse_config(dump_config(c)) == c."""
    lines = []
    for key, (name, _) in _KEYS.items():
        value = getattr(config, name)
        if value is None:
            continue
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(sorted(lines)) + "\n"
