"""Command-line entry points.

Subcommands: gen-city, simulate, sweep, train, shapley, redistribute, report.
Every command is a pure function of (config file, seed) to output bytes:
artifacts are written with sorted keys and repr-exact floats, so rerunning a
command with the same inputs reproduces files byte for byte.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from functools import cache, partial
from typing import Callable, Iterable

from .city import (
    CityGraph,
    Location,
    build_city,
    city_neighborhoods,
    grid_components,
    load_edges,
    load_locations,
    write_edges,
    write_locations,
    write_neighborhoods,
)
from .config import ConfigError, RunConfig, dump_config, load_config, parse_config, validate_config
from .csvio import read_rows, write_rows
from .demand import RequestBatch, batch_requests, ingest_trips, synth_demand
from .fleet import init_fleet, snapshot_rows
from .matching import DelayConstraints
from .objectives import OBJECTIVES, NeighborhoodTallies, ObjectiveSpec, left_sum, scored_as
from .redistribution import (
    EXACT_SHAPLEY_CAP,
    RedistributionParams,
    ResimulationOracle,
    load_coalition_table,
    mean_gain,
    minimum_wage_bound,
    redistribute,
    shapley_exact,
    shapley_mc,
)
from .reporting import fairness_metrics, income_value_spread, metrics_from_parts, write_reports
from .seeds import subseed
from .simulate import audit_journal, run_simulation, train_value_model
from .value import ValueModel, load_value_model, save_value_model

BOUND_TOLERANCE = 1e-9


def _city_components(config: RunConfig) -> tuple[list[Location], list[tuple[int, int, float]]]:
    """Locations and raw edges of the configured city, before the closure."""
    if config.city_kind == "grid":
        return grid_components(config.city_width, config.city_height, config.city_edge_minutes)
    locations = load_locations(config.city_locations)
    if len(locations) < config.num_neighborhoods:
        raise ValueError(f"{config.city_locations}: cannot split {len(locations)} locations into "
                         f"{config.num_neighborhoods} neighborhoods")
    return locations, load_edges(config.city_edges)


def build_graph(config: RunConfig) -> CityGraph:
    locations, edges = _city_components(config)
    return build_city(locations, edges, config.delta, config.num_neighborhoods, config.seed)


def _synthetic_batches(config: RunConfig, graph: CityGraph, seed: int) -> list[RequestBatch]:
    """Batches of the configured synthetic demand, drawn from `seed`."""
    stream = synth_demand(
        graph,
        config.demand_rate_per_epoch,
        config.demand_num_epochs,
        config.demand_hotspot_skew,
        seed,
        epoch_len_seconds=config.epoch_len_seconds,
    )
    return batch_requests(stream, config.epoch_len_seconds)


Demand = tuple[list[RequestBatch], int | None]  # as build_batches returns it
Episodes = Callable[[int], list[RequestBatch]]  # as training_episodes returns it


def build_batches(config: RunConfig, graph: CityGraph) -> Demand:
    """Demand batches, and the trip-CSV rows dropped at ingest (None for
    synthetic demand, which drops nothing)."""
    if config.demand_kind == "synthetic":
        return _synthetic_batches(config, graph, config.seed), None
    ingest = ingest_trips(config.demand_trips, graph)
    return batch_requests(ingest.requests, config.epoch_len_seconds), ingest.dropped


def _override(config: RunConfig, **changes) -> RunConfig:
    """`config` with command-line `changes`, checked as a config file is."""
    config = config._replace(**changes)
    validate_config(config, "command line")
    return config


def _parse_grid(text: str, flag: str) -> list[float]:
    """The finite numbers of a comma-separated flag value, at least one."""
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse {flag} {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} needs at least one value, got {text!r}")
    if not all(math.isfinite(value) for value in values):
        raise ConfigError(f"{flag} must be finite, got {text!r}")
    return values


def _load_config(args: argparse.Namespace) -> RunConfig:
    """Config from --config (or all defaults), with the --seed, --objective
    and --lambda overrides a command has."""
    config = load_config(args.config) if getattr(args, "config", None) else parse_config("")
    changes = {}
    if getattr(args, "seed", None) is not None:
        changes["seed"] = args.seed
    if getattr(args, "objective", None) is not None:
        if "," in args.objective:
            raise ConfigError("this command takes a single --objective")
        changes["objective"] = args.objective.strip()
    if getattr(args, "lam", None) is not None:
        lams = _parse_grid(args.lam, "--lambda")
        if "," in args.lam:
            raise ConfigError("this command takes a single --lambda")
        changes["lam"] = lams[0]
    return _override(config, **changes) if changes else config


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each of `lines` followed by a newline."""
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _spec_and_constraints(config: RunConfig) -> tuple[ObjectiveSpec, DelayConstraints]:
    constraints = DelayConstraints(config.max_pickup_delay, config.max_detour_delay)
    return ObjectiveSpec(config.objective, config.lam), constraints


def training_episodes(config: RunConfig, graph: CityGraph) -> Episodes:
    """Training episode k of `config` on `graph`: synthetic demand from its
    own seed, derived from (config seed, k), drawn on first use and kept.
    Configurations that differ only in objective and lambda train on the
    same episodes, so a sweep's cells share one."""
    return cache(lambda k: _synthetic_batches(config, graph, subseed(config.seed, f"train-ep{k}")))


def train_synthetic(
    config: RunConfig,
    graph: CityGraph,
    spec: ObjectiveSpec,
    constraints: DelayConstraints,
    episodes: Episodes,
) -> tuple[ValueModel, list[float]]:
    """Tabular value model trained on `episodes(k)` for k below
    value.episodes, each on the seeded fleet placement, and the absolute TD
    error of each episode. Episodes are drawn as training reaches them."""
    model = ValueModel(gamma=config.gamma, alpha=config.value_alpha, seed=config.seed)
    fleet = partial(init_fleet, graph, config.num_drivers, config.capacity, config.seed)
    played = (episodes(k) for k in range(config.train_episodes))
    return model, train_value_model(graph, played, fleet, spec, model, constraints)


# requests.csv, as run_one writes it and report reads it back
REQUEST_COLUMNS = (
    ("request_id", int), ("origin", int), ("destination", int),
    ("created_at", float), ("serviced", int), ("driver", str),
)


def run_one(config: RunConfig, out_dir: str, graph: CityGraph, demand: Demand, episodes: Episodes):
    """Simulate one configuration on its graph (`build_graph`) and demand
    (`build_batches`), training a tabular value model on `episodes`
    (`training_episodes`) first, and write the full artifact set; returns the
    result, its report and the artifact names written. A run that breaks a
    service guarantee raises before any result artifact is written. Demand
    read from a trips CSV also gets `ingest.txt`, the count of its dropped rows."""
    batches, rows_dropped = demand
    written: list[str] = []

    def artifact(name: str) -> str:
        written.append(name)
        return os.path.join(out_dir, name)

    os.makedirs(out_dir, exist_ok=True)
    spec, constraints = _spec_and_constraints(config)
    fleet = init_fleet(graph, config.num_drivers, config.capacity, config.seed)
    model = None
    if config.value_mode == "tabular":
        model, _ = train_synthetic(config, graph, spec, constraints, episodes)
        save_value_model(model, artifact("value_table.txt"))
    epoch_records: list[dict] = []  # epochs.jsonl
    snapshots: list[dict] = []  # fleet.jsonl: every driver after each epoch's commit

    def record(epoch) -> None:
        epoch_records.append({
            "epoch": epoch.epoch_index,
            "clock": epoch.clock,
            "batch_size": epoch.batch_size,
            "assignments": {
                str(d): list(action.request_ids)
                for d, action in sorted(epoch.assignments.items())
                if action.requests
            },
            "total_weight": epoch.total_weight,
            "objective": epoch.objective_value,
            "num_actions": epoch.num_actions,
            "solver_nodes": epoch.solver_nodes,
            "route_calls": epoch.route_calls,
            "route_nodes": epoch.route_nodes,
        })
        snapshots.extend(snapshot_rows(fleet, epoch.epoch_index))

    result = run_simulation(graph, batches, fleet, spec, constraints, value_model=model, on_epoch=record)
    violations = audit_journal(graph, result.fleet, result.log, constraints)
    if violations:
        raise RuntimeError(
            f"journal audit found {len(violations)} violation(s), first: {violations[0]}"
        )

    _write_lines(artifact("config.resolved"), dump_config(config).splitlines())
    if rows_dropped is not None:
        _write_lines(artifact("ingest.txt"), [f"rows_dropped = {rows_dropped}"])
    for name, records in (("epochs.jsonl", epoch_records), ("fleet.jsonl", snapshots)):
        _write_lines(artifact(name), (json.dumps(r, sort_keys=True) for r in records))
    log = result.log
    requests = (
        (r.request_id, r.origin, r.destination, repr(r.created_at),
         int(r.request_id in log.assigned_driver), log.assigned_driver.get(r.request_id, ""))
        for r in log.all_requests
    )
    write_rows(artifact("requests.csv"), [name for name, _ in REQUEST_COLUMNS], requests)
    journal = result.fleet.journal
    stops = ((d, s.kind, s.request_id, s.location, repr(s.arrival)) for d, s in journal)
    header = ["driver_id", "kind", "request_id", "location", "arrival"]
    write_rows(artifact("stops.csv"), header, stops)

    report = fairness_metrics(result)
    write_reports(report, out_dir)
    written += ["report.json", "report.csv"]
    return result, report, written


def cmd_gen_city(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.city_kind != "grid":
        raise ConfigError("gen-city synthesizes grid cities; city.kind must be grid")
    os.makedirs(args.out, exist_ok=True)
    locations, edges = _city_components(config)
    neighborhoods = city_neighborhoods(locations, config.num_neighborhoods, config.seed)
    write_locations(locations, os.path.join(args.out, "locations.csv"))
    write_edges(edges, os.path.join(args.out, "edges.csv"))
    write_neighborhoods(neighborhoods, os.path.join(args.out, "neighborhoods.csv"))
    _write_lines(os.path.join(args.out, "config.resolved"), dump_config(config).splitlines())
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    graph = build_graph(config)
    run_one(config, args.out, graph, build_batches(config, graph), training_episodes(config, graph))
    return 0


def _copy_run(src_dir: str, artifacts: list[str], config: RunConfig, out_dir: str) -> None:
    """Give out_dir the artifacts run_one wrote to src_dir, with config's own
    config.resolved."""
    os.makedirs(out_dir, exist_ok=True)
    for name in artifacts:
        if name == "config.resolved":
            _write_lines(os.path.join(out_dir, name), dump_config(config).splitlines())
        elif out_dir != src_dir:
            shutil.copyfile(os.path.join(src_dir, name), os.path.join(out_dir, name))


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    # each item stripped, as the config parser strips a value
    objectives = OBJECTIVES if args.objectives is None else [o.strip() for o in args.objectives.split(",")]
    if not any(objectives):
        raise ConfigError(f"--objective needs at least one value, got {args.objectives!r}")
    lambdas = [config.lam] if args.lambdas is None else _parse_grid(args.lambdas, "--lambda")
    cells = [_override(config, objective=o, lam=lam) for o in objectives for lam in lambdas]
    # cells differ only in objective and lambda, so they share one city, one
    # demand and one set of training episodes, and cells that score alike
    # (see scored_as) are one run
    graph = build_graph(config)
    demand = build_batches(config, graph)
    episodes = training_episodes(config, graph)
    os.makedirs(args.out, exist_ok=True)
    rows, failures = [], []
    simulated = {}  # scoring class -> (cell dir, artifact names, report) of its first run
    runs = 0
    for cell in cells:
        cell_dir = os.path.join(args.out, f"{cell.objective}-lam{cell.lam!r}")
        scoring = scored_as(ObjectiveSpec(cell.objective, cell.lam))
        try:
            if scoring in simulated:
                first_dir, artifacts, report = simulated[scoring]
                _copy_run(first_dir, artifacts, cell, cell_dir)
            else:
                # a failed run is not kept: its failure may lie in its
                # directory, so the next cell of its class runs again
                runs += 1
                _, report, artifacts = run_one(cell, cell_dir, graph, demand, episodes)
                simulated[scoring] = (cell_dir, artifacts, report)
        except Exception as exc:  # keep sweeping, record the failure
            failures.append((cell.objective, repr(cell.lam), str(exc)))
            continue
        rates = (report.overall_success_rate, report.success_rate_var, report.min_success_rate)
        rows.append(
            (cell.objective, repr(cell.lam), report.total_requests, report.total_serviced)
            + tuple("" if rate is None else repr(rate) for rate in rates)
            + (repr(report.total_income), repr(report.income_var), repr(report.income_min))
        )
    header = [
        "objective", "lambda", "total_requests", "total_serviced", "success_rate",
        "success_rate_var", "min_success_rate", "total_income", "income_var", "income_min",
    ]
    write_rows(os.path.join(args.out, "sweep.csv"), header, rows)
    meta = [
        f"cells = {len(cells)}",
        f"cells_simulated = {runs}",
        f"demand_streams = {1 + episodes.cache_info().currsize}",
    ]
    _write_lines(os.path.join(args.out, "sweep_meta.txt"), meta)
    if failures:
        write_rows(os.path.join(args.out, "failures.csv"), ["objective", "lambda", "error"], failures)
        return 3
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.value_mode != "tabular":
        raise ConfigError("training requires value.mode = tabular")
    if config.demand_kind != "synthetic":
        raise ConfigError("training requires synthetic demand")
    spec, constraints = _spec_and_constraints(config)
    graph = build_graph(config)
    episodes = training_episodes(config, graph)
    model, errors = train_synthetic(config, graph, spec, constraints, episodes)
    os.makedirs(args.out, exist_ok=True)
    _write_lines(os.path.join(args.out, "config.resolved"), dump_config(config).splitlines())
    save_value_model(model, os.path.join(args.out, "value_table.txt"))
    rows = ((episode, repr(error)) for episode, error in enumerate(errors))
    write_rows(os.path.join(args.out, "training_errors.csv"), ["episode", "abs_td_error"], rows)
    return 0


def _read_driver_rows(path: str, names: tuple[str, ...], drivers: range | None = None) -> list[list]:
    """The rows of a `driver_id,<names>` CSV: one row per driver, each one
    of `drivers` if given, every named column a non-negative float."""
    rows: dict[int, list] = {}
    for line, row in read_rows(path, (("driver_id", int),) + tuple((n, float) for n in names)):
        driver_id = row[0]
        if driver_id in rows:
            raise ValueError(f"{path}:{line}: duplicate driver_id {driver_id}")
        if drivers is not None and driver_id not in drivers:
            raise ValueError(f"{path}:{line}: unknown driver_id {driver_id}")
        for name, x in zip(names, row[1:]):
            if x < 0:
                raise ValueError(f"{path}:{line}: negative {name} {x!r} for driver {driver_id}")
        rows[driver_id] = row
    return list(rows.values())


def _run_config(run_dir: str) -> RunConfig:
    """The config.resolved a command wrote to `run_dir`. One that is missing,
    unparsable, out of range or lacks a key means the run directory was
    damaged, not that the user's config is wrong: raises ValueError (a
    runtime error, exit 3) naming the file. dump_config writes every key, so
    a missing key's default does not apply; the first one in dump order is
    named."""
    path = os.path.join(run_dir, "config.resolved")
    try:
        with open(path) as fh:
            text = fh.read()
        config = parse_config(text, base_dir=os.path.abspath(run_dir), source=path)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    except ConfigError as exc:
        raise ValueError(str(exc)) from None
    present = {line.partition("=")[0].strip() for line in text.splitlines()}
    for line in dump_config(config).splitlines():
        key = line.partition(" = ")[0]
        if key not in present:
            raise ValueError(f"{path}: missing key {key}")
    return config


def _read_jsonl(path: str, valid: Callable[[int, dict], bool]) -> list[dict]:
    """The rows of the JSON-lines file at `path`, each row k (from 0) one
    that `valid(k, row)` accepts; a line that does not decode, or that
    `valid` refuses or cannot read, raises ValueError naming its line."""
    rows = []
    with open(path) as fh:
        for k, text in enumerate(fh):
            try:
                row = json.loads(text)
                if not valid(k, row):
                    raise ValueError
            except (ValueError, KeyError, TypeError, OverflowError):
                raise ValueError(f"{path}:{k + 1}: malformed row {text.rstrip()!r}") from None
            rows.append(row)
    return rows


def _read_fleet_incomes(fleet_jsonl: str, num_drivers: int, epochs: int) -> dict[int, float]:
    """Each driver's income after the last of a run's `epochs` epochs (0.0
    when it had none) from its fleet.jsonl, whose row k run_one writes for
    driver k % num_drivers after epoch k // num_drivers."""

    def placed(k: int, row: dict) -> bool:
        # epoch and driver_id are the JSON integers row k's position gives;
        # an income is a finite, non-negative JSON number (a fare is never
        # negative)
        epoch, driver_id, income = row["epoch"], row["driver_id"], row["income"]
        return (
            type(epoch) is type(driver_id) is int and (epoch, driver_id) == divmod(k, num_drivers)
            and type(income) in (int, float) and math.isfinite(income) and income >= 0
        )

    rows = _read_jsonl(fleet_jsonl, placed)
    if len(rows) != num_drivers * epochs:
        raise ValueError(f"{fleet_jsonl}: {len(rows)} rows, but {num_drivers} drivers over "
                         f"{epochs} epochs make {num_drivers * epochs}")
    # the last epoch's rows, drivers 0 to num_drivers - 1 in order, if any
    last = [float(row["income"]) for row in rows[len(rows) - num_drivers:]]
    return dict(enumerate(last or [0.0] * num_drivers))


def cmd_shapley(args: argparse.Namespace) -> int:
    if args.samples < 1:  # whatever the method and source
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    from_run = os.path.isdir(args.source)
    if from_run:
        if args.pi:
            raise ConfigError("--pi is for table input only; a run directory has its own incomes")
        config = _run_config(args.source)
        graph = build_graph(config)
        batches, _ = build_batches(config, graph)
        fleet_jsonl = os.path.join(args.source, "fleet.jsonl")
        recorded = _read_fleet_incomes(fleet_jsonl, config.num_drivers, len(batches))
        spec, constraints = _spec_and_constraints(config)
        template = init_fleet(graph, config.num_drivers, config.capacity, config.seed)
        # run_one dispatched with a value model exactly when value.mode is
        # tabular, and saved that model as value_table.txt
        table_path = os.path.join(args.source, "value_table.txt")
        model = load_value_model(table_path) if config.value_mode == "tabular" else None
        oracle = ResimulationOracle(graph, batches, template, spec, constraints, value_model=model)
        seed = config.seed if args.seed is None else args.seed
    else:
        oracle = load_coalition_table(args.source)
        seed = args.seed or 0
    driver_ids = oracle.driver_ids
    method = args.method
    if method == "auto":
        method = "exact" if len(driver_ids) <= EXACT_SHAPLEY_CAP else "monte_carlo"
    if method == "exact" and len(driver_ids) > EXACT_SHAPLEY_CAP:
        raise ConfigError(
            f"--method exact takes at most {EXACT_SHAPLEY_CAP} drivers, got "
            f"{len(driver_ids)}; use --method monte_carlo"
        )
    # the incomes to attribute, settled before any coalition is valued: a
    # replay that does not earn what its run earned refuses the run at once
    pi = None
    if from_run:
        incomes = oracle.incomes((1 << len(driver_ids)) - 1)
        pi = [incomes.get(d, 0.0) for d in driver_ids]
        for d, p in zip(driver_ids, pi):
            if p != recorded[d]:
                raise ValueError(f"{fleet_jsonl}: driver {d} earned {recorded[d]!r} in the run "
                                 f"but {p!r} in its replay")
    elif args.pi:
        by_driver = dict(_read_driver_rows(args.pi, ("pi",), driver_ids))
        missing = [d for d in driver_ids if d not in by_driver]
        if missing:
            raise ValueError(f"{args.pi}: missing incomes for drivers {missing}")
        pi = [by_driver[d] for d in driver_ids]
    estimate = shapley_exact(oracle) if method == "exact" else shapley_mc(oracle, args.samples, seed)
    if pi is None:
        # a coalition table fixes total income but not its split; default
        # the per-driver incomes to the attributed values
        pi = list(estimate.values)
    os.makedirs(args.out, exist_ok=True)
    rows = ((d, repr(p), repr(v)) for d, p, v in zip(estimate.driver_ids, pi, estimate.values))
    write_rows(os.path.join(args.out, "shapley.csv"), ["driver_id", "pi", "v"], rows)
    meta = [
        f"method = {estimate.method}",
        f"samples = {estimate.samples}",
        f"seed = {estimate.seed if estimate.seed is not None else ''}",
        f"total_value = {left_sum(estimate.values)!r}",
        f"total_income = {left_sum(pi)!r}",
    ]
    if estimate.method == "monte_carlo":
        meta.append(f"std_error_max = {max(estimate.std_errors)!r}")
    if from_run:
        meta += [
            f"coalitions = {oracle.coalitions}",
            f"route_memo_entries = {len(oracle.route_memo.entries)}",
            f"route_memo_hits = {oracle.route_memo.hits}",
        ]
    _write_lines(os.path.join(args.out, "shapley_meta.txt"), meta)
    return 0


def cmd_redistribute(args: argparse.Namespace) -> int:
    source = args.source
    mode = args.mode or "as_printed"
    drivers = None
    if os.path.isdir(source):
        # a run directory carries its drivers and its configured payout
        # mode; --mode wins
        if os.path.exists(os.path.join(source, "config.resolved")):
            config = _run_config(source)
            mode = args.mode or config.payout_mode
            drivers = range(config.num_drivers)
        source = os.path.join(source, "shapley.csv")
    rows = _read_driver_rows(source, ("pi", "v"), drivers)
    if not rows:
        raise ValueError(f"{source}: no drivers found")
    if drivers is not None and len(rows) != len(drivers):
        raise ValueError(f"{source}: {len(rows)} drivers, but the run has {len(drivers)}")
    driver_ids, pi, v = (list(column) for column in zip(*rows))
    grid = [i / 10 for i in range(11)] if args.r is None else _parse_grid(args.r, "--r")
    for r in grid:
        if not 0.0 <= r <= 1.0:
            raise ConfigError(f"--r: risk parameter {r!r} must lie in [0, 1]")
    os.makedirs(args.out, exist_ok=True)
    detail_rows = []
    summary_rows = []
    for r in grid:
        params = RedistributionParams(r=r, mode=mode)
        q = redistribute(pi, v, params)
        for i, driver_id in enumerate(driver_ids):
            bound = minimum_wage_bound(v[i], r)
            ok = int(q[i] >= bound - BOUND_TOLERANCE)
            detail_rows.append(
                (repr(r), driver_id, repr(pi[i]), repr(v[i]), repr(q[i]), repr(bound), ok)
            )
        if all(value > 0 for value in v):
            g = repr(mean_gain(pi, v, params))
            spread = repr(income_value_spread(q, v))
        else:
            g = ""
            spread = ""
        summary_rows.append(
            (repr(r), mode, repr(left_sum(pi)), repr(left_sum(v)), repr(left_sum(q)), g, spread)
        )
    detail_header = ["r", "driver_id", "pi", "v", "q", "bound", "bound_ok"]
    write_rows(os.path.join(args.out, "redistribution.csv"), detail_header, detail_rows)
    summary_header = ["r", "mode", "sum_pi", "sum_v", "sum_q", "g", "std_q_over_v"]
    write_rows(os.path.join(args.out, "redistribution_summary.csv"), summary_header, summary_rows)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = args.source
    config = _run_config(run_dir)
    locations, _ = _city_components(config)
    neighborhoods = city_neighborhoods(locations, config.num_neighborhoods, config.seed)
    tallies = NeighborhoodTallies.empty(neighborhoods.num_neighborhoods)
    places = range(len(locations))
    drivers = {str(d): d for d in range(config.num_drivers)}  # as run_one writes them
    requests = 0  # rows read so far
    requests_csv = os.path.join(run_dir, "requests.csv")
    for line, row in read_rows(requests_csv, REQUEST_COLUMNS):
        request_id, origin, destination, created_at, serviced, driver = row
        # row k holds request k (run_one writes them in id order), between
        # two distinct locations of the city, made at or after the start; a
        # serviced one names a configured driver, an unserviced one names none
        if (
            request_id != requests
            or origin not in places or destination not in places or origin == destination
            or created_at < 0
            or ((serviced, driver) != (0, "") and (serviced != 1 or driver not in drivers))
        ):
            raise ValueError(f"{requests_csv}:{line}: malformed request row {row!r}")
        requests += 1
        label = neighborhoods.labels[origin]
        tallies.add_requested(label)
        if serviced:
            tallies.add_serviced(label)
    # every request of the run was in some epoch's batch, so a file cut
    # short (even to its header) shows as fewer rows than the batches held
    epochs_jsonl = os.path.join(run_dir, "epochs.jsonl")
    epochs = _read_jsonl(epochs_jsonl, lambda k, e: type(e["batch_size"]) is int and e["batch_size"] >= 0)
    batched = 0
    for epoch in epochs:
        batched += epoch["batch_size"]
    if requests != batched:
        raise ValueError(f"{requests_csv}: {requests} requests, but the batch_size fields "
                         f"of {epochs_jsonl} sum to {batched}")
    incomes = _read_fleet_incomes(os.path.join(run_dir, "fleet.jsonl"), config.num_drivers, len(epochs))
    report = metrics_from_parts(incomes, tallies)
    out_dir = args.out or run_dir
    os.makedirs(out_dir, exist_ok=True)
    write_reports(report, out_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairpool",
        description="Ride-pooling dispatch simulator with fairness objectives and income redistribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_required: bool = True) -> None:
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("gen-city", help="write a grid city's location/edge/neighborhood CSVs")
    common(p)
    p.set_defaults(func=cmd_gen_city)

    p = sub.add_parser("simulate", help="run one dispatch simulation and write artifacts")
    common(p)
    p.add_argument("--objective", help="override objective kind")
    p.add_argument("--lambda", dest="lam", help="override lambda")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run an objective x lambda grid on one demand stream")
    common(p)
    p.add_argument(
        "--objective", dest="objectives", help="comma-separated objectives (default: all four)"
    )
    p.add_argument("--lambda", dest="lambdas", help="comma-separated lambda grid")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train", help="train a tabular value model and save its table")
    common(p)
    p.add_argument("--objective", help="override objective kind")
    p.add_argument("--lambda", dest="lam", help="override lambda")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("shapley", help="attribute income to drivers by Shapley value")
    p.add_argument("source", help="run directory, or coalition_bitmask,value CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--seed", type=int,
        help="seed for Monte Carlo sampling (default: the run's config seed, or 0 for a table)",
    )
    p.add_argument("--method", choices=["auto", "exact", "monte_carlo"], default="auto")
    p.add_argument("--samples", type=int, default=50_000, help="Monte Carlo permutations")
    p.add_argument("--pi", help="driver_id,pi CSV with true incomes (table input only)")
    p.set_defaults(func=cmd_shapley)

    p = sub.add_parser("redistribute", help="compute payouts over an r grid")
    p.add_argument("source", help="run directory with shapley.csv, or a driver_id,pi,v CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--r", help="comma-separated risk grid (default 0,0.1,...,1)")
    p.add_argument("--mode", choices=["as_printed", "keep_income"], help="payout mode")
    p.set_defaults(func=cmd_redistribute)

    p = sub.add_parser("report", help="recompute metrics from run artifacts")
    p.add_argument("source", help="run directory")
    p.add_argument("--out", help="output directory (default: the run directory)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
