"""Tabular state-value model for non-myopic dispatch.

A driver's state is collapsed to (neighborhood of the committed route end,
riders onboard, 900-second time bucket). The table maps that key to an
estimated discounted future objective gain, trained by one-step TD updates
over simulated episodes; a key not in the table scores 0. Myopic dispatch
runs with no value model at all.
"""

from __future__ import annotations

import math

from .city import CityGraph
from .fleet import DriverState

BUCKET_SECONDS = 900.0

__all__ = [
    "BUCKET_SECONDS",
    "StateKey",
    "ValueModel",
    "state_key",
    "td_update",
    "save_value_model",
    "load_value_model",
]

StateKey = tuple[int, int, int]  # (neighborhood label, onboard count, time bucket)


def state_key(
    graph: CityGraph, driver: DriverState, clock: float, route_end: int | None = None
) -> StateKey:
    """Key for the driver's state at `clock`; pass route_end to project the
    state after committing to a different route."""
    end = driver.route_end() if route_end is None else route_end
    return (
        graph.neighborhoods.labels[end],
        driver.occupancy,
        int(clock // BUCKET_SECONDS),
    )


class ValueModel:
    __slots__ = ("gamma", "alpha", "seed", "table")

    def __init__(self, gamma: float = 0.9, alpha: float = 0.1, seed: int = 0) -> None:
        if not 0.0 <= gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        self.gamma = gamma
        self.alpha = alpha
        self.seed = seed
        self.table: dict[StateKey, float] = {}

    def estimate(self, key: StateKey) -> float:
        return self.table.get(key, 0.0)


def td_update(
    model: ValueModel, key: StateKey, reward: float, next_key: StateKey | None
) -> float:
    """One-step bootstrapped update; next_key None marks a terminal state.
    Returns the TD error."""
    bootstrap = 0.0 if next_key is None else model.estimate(next_key)
    error = reward + model.gamma * bootstrap - model.estimate(key)
    updated = model.estimate(key) + model.alpha * error
    if not math.isfinite(updated):
        raise ValueError(f"value update for {key} is not finite")
    model.table[key] = updated
    return error


def save_value_model(model: ValueModel, path: str) -> None:
    """Plain-text table, one key per line, restored bit-exactly by the loader."""
    lines = [
        f"# value-table mode=tabular gamma={model.gamma!r} "
        f"alpha={model.alpha!r} seed={model.seed}\n"
    ]
    for key in sorted(model.table):
        nbhd, onboard, bucket = key
        lines.append(f"{nbhd} {onboard} {bucket} {model.table[key]!r}\n")
    with open(path, "w") as fh:
        fh.writelines(lines)


def load_value_model(path: str) -> ValueModel:
    """The model save_value_model wrote. A malformed line, or a key given
    twice in the header or the table, raises as `path:line: problem`."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# value-table "):
            raise ValueError(f"{path}: not a value-table file")
        params: dict[str, str] = {}
        for part in header.split()[2:]:
            name, eq, value = part.partition("=")
            if not eq:
                raise ValueError(f"{path}:1: header field {part!r} is not key=value")
            if name in params:
                raise ValueError(f"{path}:1: repeated header key {name}")
            params[name] = value
        if params.get("mode") != "tabular":
            raise ValueError(f"{path}: expected mode=tabular, got mode={params.get('mode')}")
        try:
            model = ValueModel(float(params["gamma"]), float(params["alpha"]), int(params["seed"]))
        except KeyError as exc:
            raise ValueError(f"{path}:1: header lacks {exc.args[0]}") from None
        except ValueError as exc:
            raise ValueError(f"{path}:1: {exc}") from None
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                key = (int(parts[0]), int(parts[1]), int(parts[2]))
                value = float(parts[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite table value")
            if key in model.table:
                raise ValueError(f"{path}:{lineno}: repeated key {' '.join(parts[:3])}")
            model.table[key] = value
    return model
