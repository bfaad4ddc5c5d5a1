"""Run configuration: a flat, diff-friendly key = value text format.

One `key = value` statement per line, dotted key names, full-line comments
with `#`, no sections and no nesting. load_config applies defaults and
validates; dump_config emits every resolved key in sorted order, so the echo
written next to run artifacts reloads to an identical config and reruns the
exact experiment.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .objectives import OBJECTIVES
from .redistribution import PAYOUT_MODES

VALUE_MODES = ("zero", "tabular")

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "dump_config"]


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    # city: a synthetic grid, or location/edge CSV files
    city_kind: str = "grid"
    city_width: int = 5
    city_height: int = 5
    city_edge_minutes: float = 1.0
    city_locations: str | None = None
    city_edges: str | None = None
    num_neighborhoods: int = 10
    delta: float = 5.0
    # demand: a seeded synthetic stream, or a trip CSV
    demand_kind: str = "synthetic"
    demand_rate_per_epoch: float = 4.0
    demand_num_epochs: int = 50
    demand_hotspot_skew: float = 0.6
    demand_trips: str | None = None
    # fleet and matching
    num_drivers: int = 5
    capacity: int = 4
    epoch_len_seconds: float = 60.0
    max_pickup_delay: float = 300.0
    max_detour_delay: float = 60.0
    objective: str = "income"
    lam: float = 0.0
    gamma: float = 0.9
    # value model
    value_mode: str = "zero"
    value_alpha: float = 0.1
    train_episodes: int = 0
    # redistribution defaults used by the payout commands
    payout_mode: str = "as_printed"


# dotted config key -> (dataclass field, value parser)
_KEYS: dict[str, tuple[str, type]] = {
    "seed": ("seed", int),
    "city.kind": ("city_kind", str),
    "city.width": ("city_width", int),
    "city.height": ("city_height", int),
    "city.edge_minutes": ("city_edge_minutes", float),
    "city.locations": ("city_locations", str),
    "city.edges": ("city_edges", str),
    "city.neighborhoods": ("num_neighborhoods", int),
    "fare.delta": ("delta", float),
    "demand.kind": ("demand_kind", str),
    "demand.rate_per_epoch": ("demand_rate_per_epoch", float),
    "demand.num_epochs": ("demand_num_epochs", int),
    "demand.hotspot_skew": ("demand_hotspot_skew", float),
    "demand.trips": ("demand_trips", str),
    "fleet.num_drivers": ("num_drivers", int),
    "fleet.capacity": ("capacity", int),
    "epoch.length_seconds": ("epoch_len_seconds", float),
    "constraints.max_pickup_delay": ("max_pickup_delay", float),
    "constraints.max_detour_delay": ("max_detour_delay", float),
    "objective.kind": ("objective", str),
    "objective.lambda": ("lam", float),
    "objective.gamma": ("gamma", float),
    "value.mode": ("value_mode", str),
    "value.alpha": ("value_alpha", float),
    "value.episodes": ("train_episodes", int),
    "payout.mode": ("payout_mode", str),
}

_FIELD_TO_KEY = {field: key for key, (field, _) in _KEYS.items()}
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
    _validate(config, source)
    return config


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)), source=path)


def _validate(config: RunConfig, source: str) -> None:
    def fail(key: str, message: str) -> None:
        raise ConfigError(f"{source}: {key}: {message}")

    if config.city_kind not in ("grid", "csv"):
        fail("city.kind", f"expected grid or csv, got {config.city_kind!r}")
    if config.city_kind == "grid":
        if config.city_width < 1 or config.city_height < 1:
            fail("city.width", "grid dimensions must be at least 1x1")
        if config.city_edge_minutes <= 0:
            fail("city.edge_minutes", "edge travel time must be positive")
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
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        key = _FIELD_TO_KEY[f.name]
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(sorted(lines)) + "\n"
