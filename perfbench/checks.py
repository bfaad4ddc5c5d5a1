"""Output checks for one repetition's artifacts, run after the timed region.

Each check returns (operation, ok, reason). An operation is one CLI command,
or one cell of a sweep; it fails on a nonzero exit or a failed check. The
checks read only the artifacts, through fairpool's public functions, so they
are independent of how the program computed them.
"""

from __future__ import annotations

import csv
import json
import math
import os

from fairpool.cli import build_graph
from fairpool.config import load_config
from fairpool.demand import RequestLog, RideRequest
from fairpool.fleet import DriverState, FleetState, Stop
from fairpool.matching import DelayConstraints
from fairpool.simulate import audit_journal

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _total_income(run_dir: str) -> float:
    with open(os.path.join(run_dir, "report.json")) as fh:
        return float(json.load(fh)["total_income"])


def audit_run(run_dir: str) -> list[str]:
    """Rebuild the executed journal and request log of a run from
    stops.csv, requests.csv and config.resolved, and audit them against the
    service guarantees. Returns the violations (empty when the run is sound)."""
    config = load_config(os.path.join(run_dir, "config.resolved"))
    graph = build_graph(config)
    log = RequestLog()
    for row in _rows(os.path.join(run_dir, "requests.csv")):
        req = RideRequest(
            request_id=int(row["request_id"]),
            origin=int(row["origin"]),
            destination=int(row["destination"]),
            created_at=float(row["created_at"]),
        )
        log.all_requests.append(req)
        if row["serviced"] == "1":
            log.mark_serviced(req.request_id, int(row["driver"]))
    journal = [
        (int(row["driver_id"]), Stop(row["kind"], int(row["request_id"]), int(row["location"]), float(row["arrival"])))
        for row in _rows(os.path.join(run_dir, "stops.csv"))
    ]
    drivers = [DriverState(driver_id=i, capacity=config.capacity, loc=0) for i in range(config.num_drivers)]
    fleet = FleetState(drivers=drivers, journal=journal)
    constraints = DelayConstraints(config.max_pickup_delay, config.max_detour_delay)
    return audit_journal(graph, fleet, log, constraints)


def _run_check(run_dir: str) -> str | None:
    violations = audit_run(run_dir)
    if violations:
        return f"{len(violations)} audit violations, first: {violations[0]}"
    return None


def _reread_check(run_dir: str, reread_dir: str) -> str | None:
    """`report` rebuilt the run's metrics from its artifacts: same totals."""
    with open(os.path.join(reread_dir, "report.json")) as fh:
        reread = json.load(fh)
    with open(os.path.join(run_dir, "report.json")) as fh:
        original = json.load(fh)
    for key in ("total_requests", "total_serviced", "total_income"):
        if not _close(float(reread[key]), float(original[key])):
            return f"report re-read {key} {reread[key]!r} != {original[key]!r}"
    return None


def _shapley_check(run_dir: str) -> str | None:
    """Efficiency: the values sum to the grand coalition's income."""
    rows = _rows(os.path.join(run_dir, "shapley.csv"))
    total_v = math.fsum(float(r["v"]) for r in rows)
    total_pi = math.fsum(float(r["pi"]) for r in rows)
    income = _total_income(run_dir)
    if not (_close(total_v, total_pi) and _close(total_v, income)):
        return f"sum(v) {total_v!r} != grand coalition income {total_pi!r} / {income!r}"
    return None


def _redistribution_check(run_dir: str, num_r: int) -> str | None:
    rows = _rows(os.path.join(run_dir, "redistribution.csv"))
    drivers = len(_rows(os.path.join(run_dir, "shapley.csv")))
    if len(rows) != num_r * drivers:
        return f"{len(rows)} redistribution rows, expected {num_r * drivers}"
    bad = [r for r in rows if r["bound_ok"] != "1"]
    if bad:
        return f"{len(bad)} rows with bound_ok != 1, first r={bad[0]['r']} driver {bad[0]['driver_id']}"
    return None


def _op(name: str, exit_code: int | None, check) -> tuple[str, bool, str]:
    if exit_code != 0:
        return name, False, f"exit code {exit_code}"
    try:
        reason = check()
    except (OSError, ValueError, KeyError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    return name, reason is None, reason or ""


def check_rep(pipeline: str, rep_dir: str, stages: list[dict], num_r: int, cells: int) -> list[tuple[str, bool, str]]:
    """Check one repetition; `stages` are the worker's per-command records."""
    exits = [s["exit"] for s in stages]
    run_dir = os.path.join(rep_dir, "run")
    reread_dir = os.path.join(rep_dir, "reread")
    if pipeline == "shapley":
        exits += [None] * (4 - len(exits))
        return [
            _op("simulate", exits[0], lambda: _run_check(run_dir)),
            _op("shapley", exits[1], lambda: _shapley_check(run_dir)),
            _op("redistribute", exits[2], lambda: _redistribution_check(run_dir, num_r)),
            _op("report", exits[3], lambda: _reread_check(run_dir, reread_dir)),
        ]
    if pipeline == "simulate":
        exits += [None] * (2 - len(exits))
        return [
            _op("simulate", exits[0], lambda: _run_check(run_dir)),
            _op("report", exits[1], lambda: _reread_check(run_dir, reread_dir)),
        ]
    # sweep: one operation per cell, then one report per cell run directory
    grid = os.path.join(rep_dir, "grid")
    sweep_exit = exits[0] if exits else None
    failures_csv = os.path.join(grid, "failures.csv")
    failures = _rows(failures_csv) if os.path.exists(failures_csv) else []
    cell_dirs = sorted(
        d for d in (os.listdir(grid) if os.path.isdir(grid) else [])
        if os.path.exists(os.path.join(grid, d, "config.resolved"))
    )
    if sweep_exit not in (0, 3) or (sweep_exit == 3 and not failures):
        return [(f"sweep cell {k}", False, f"sweep exit code {sweep_exit}") for k in range(cells)]
    ops = [_op(f"sweep cell {name}", 0, lambda: _run_check(os.path.join(grid, name))) for name in cell_dirs]
    ops += [(f"sweep cell {f['objective']} lambda {f['lambda']}", False, f["error"]) for f in failures]
    ops += [("sweep cell", False, "missing run directory")] * (cells - len(ops))
    report_exits = exits[1:]
    for name in sorted(os.listdir(grid)) if os.path.isdir(grid) else []:
        if not os.path.isdir(os.path.join(grid, name)):
            continue
        code = report_exits.pop(0) if report_exits else None
        ops.append(
            _op(
                f"report {name}",
                code,
                lambda: _reread_check(os.path.join(grid, name), os.path.join(reread_dir, name)),
            )
        )
    return ops
