"""End-to-end command-line tests.

Each test drives ``fairpool.cli.main`` in process with argv lists, then reads
back the artifact files and checks them against the library or against hand
arithmetic. The reproducibility tests compare whole directories byte for byte.
"""

import collections
import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import helpers
from fairpool.city import (
    Location,
    build_city,
    fare,
    gen_grid_city,
    load_edges,
    load_locations,
    write_edges,
    write_locations,
)
from fairpool import cli
from fairpool import config as config_module
from fairpool import redistribution
from fairpool.cli import main
from fairpool.config import load_config
from fairpool.demand import batch_requests, ingest_trips
from fairpool.fleet import init_fleet
from fairpool.matching import DelayConstraints
from fairpool.objectives import OBJECTIVES, ObjectiveSpec
from fairpool.simulate import run_simulation
from fairpool.value import load_value_model


def write_config(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def dir_digests(root):
    """Map of relative path -> sha256 for every file under root."""
    digests = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root)
            with open(full, "rb") as fh:
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


SMALL_CITY = """
city.width = 3
city.height = 3
city.neighborhoods = 2
fleet.num_drivers = 2
demand.rate_per_epoch = 2.0
demand.num_epochs = 8
seed = 5
"""


def test_gen_city_writes_loadable_csvs(tmp_path):
    cfg = write_config(
        tmp_path / "city.cfg",
        "city.width = 4\ncity.height = 3\ncity.neighborhoods = 2\nseed = 3\n",
    )
    out = tmp_path / "city"
    assert main(["gen-city", "--config", cfg, "--out", str(out)]) == 0

    locations = load_locations(str(out / "locations.csv"))
    edges = load_edges(str(out / "edges.csv"))
    assert len(locations) == 12
    graph = build_city(locations, edges, delta=5.0, num_neighborhoods=2, seed=3)

    rows = read_csv_rows(out / "neighborhoods.csv")
    assert len(rows) == 12
    for row in rows:
        assert int(row["neighborhood"]) == graph.neighborhoods.labels[int(row["location_id"])]

    resolved = load_config(str(out / "config.resolved"))
    assert resolved.city_width == 4
    assert resolved.num_neighborhoods == 2


def test_gen_city_rejects_csv_city(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg",
        "city.kind = csv\ncity.locations = locs.csv\ncity.edges = edges.csv\n",
    )
    assert main(["gen-city", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_simulate_zero_demand_exits_clean(tmp_path):
    cfg = write_config(
        tmp_path / "quiet.cfg",
        "city.width = 2\ncity.height = 2\ncity.neighborhoods = 1\n"
        "fleet.num_drivers = 1\ndemand.rate_per_epoch = 0.0\ndemand.num_epochs = 3\n",
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "report.json") as fh:
        report = json.load(fh)
    assert report["total_requests"] == 0
    assert report["overall_success_rate"] is None
    assert read_csv_rows(out / "requests.csv") == []


def test_report_on_zero_demand_run_rebuilds_zero_incomes(tmp_path):
    cfg = write_config(
        tmp_path / "quiet.cfg",
        "city.width = 2\ncity.height = 2\ncity.neighborhoods = 1\n"
        "fleet.num_drivers = 2\ndemand.rate_per_epoch = 0.0\ndemand.num_epochs = 3\n",
    )
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    rebuilt = tmp_path / "rebuilt"
    assert main(["report", str(run_dir), "--out", str(rebuilt)]) == 0
    for name in ("report.json", "report.csv"):
        with open(run_dir / name, "rb") as want, open(rebuilt / name, "rb") as got:
            assert got.read() == want.read()
    with open(rebuilt / "report.json") as fh:
        report = json.load(fh)
    assert report["incomes"] == {"0": 0.0, "1": 0.0}
    assert report["income_min"] == 0.0


def test_bad_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", "riders = 3\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err



@pytest.mark.parametrize(
    "key, value, message",
    [
        ("city.kind", "torus", "expected grid or csv, got 'torus'"),
        ("city.width", "0", "grid dimensions must be at least 1x1"),
        ("city.edge_minutes", "0", "edge travel time must be positive"),
        ("city.neighborhoods", "0", "need at least one neighborhood"),
        ("demand.kind", "poisson", "expected synthetic or csv, got 'poisson'"),
        ("demand.rate_per_epoch", "-1", "rate must be nonnegative"),
        ("demand.num_epochs", "-1", "epoch count must be nonnegative"),
        ("fare.delta", "-1", "delta must be nonnegative"),
        ("fleet.num_drivers", "0", "need at least one driver"),
        ("epoch.length_seconds", "0", "epoch length must be positive"),
        ("objective.gamma", "1.0", "gamma must lie in [0, 1)"),
        ("value.mode", "learned", "expected one of ('zero', 'tabular'), got 'learned'"),
        ("value.alpha", "0", "alpha must lie in (0, 1]"),
        ("value.episodes", "-1", "episode count must be nonnegative"),
        ("payout.mode", "split", "expected one of ('as_printed', 'keep_income'), got 'split'"),
    ],
)
def test_out_of_range_config_value_exits_2_naming_its_key(tmp_path, capsys, key, value, message):
    cfg = write_config(tmp_path / "c.cfg", f"{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {key}: {message}\n"
    assert not out.exists()


FLOAT_KEYS = sorted(key for key, (_, parser) in config_module._KEYS.items() if parser is float)


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_config_float_exits_2(tmp_path, capsys, key):
    for value in ("inf", "-inf", "nan", "1e999"):
        cfg = write_config(tmp_path / "c.cfg", f"{key} = {value}\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2, value
        err = capsys.readouterr().err
        assert f"{key} must be a finite number" in err, value
    assert not (tmp_path / "o").exists()


def test_non_finite_lambda_flag_is_rejected(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--lambda", "inf"])
    assert rc == 2
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", cfg, "--out", str(out)]
    rc = main(argv + ["--objective", "income,driver_fairness", "--lambda", "0,nan"])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, lam", [("simulate", "nan"), ("train", "inf"), ("sweep", "0,-inf")]
)
def test_non_finite_lambda_flag_names_the_flag(tmp_path, capsys, command, lam):
    """These once named line 18 of an internal config dump (simulate, train)
    or failed each cell at run time (sweep)."""
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--lambda", lam]) == 2
    assert f"error: --lambda must be finite, got {lam!r}\n" == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, key",
    [
        ("simulate", ["--lambda", "-1"], "objective.lambda"),
        ("simulate", ["--objective", "profit"], "objective.kind"),
        ("sweep", ["--lambda", "0,-1"], "objective.lambda"),
        ("sweep", ["--objective", "income,profit"], "objective.kind"),
    ],
)
def test_override_errors_name_the_command_line(tmp_path, capsys, command, flags, key):
    """Flag values are checked as config values are, before any output: a
    bad sweep grid once failed its cells at run time with exit 3."""
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)] + flags) == 2
    assert f"error: command line: {key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, code, names",
    [
        ("sweep", ["--config", "TRIPS"], 3, "missing.csv"),
        ("sweep", ["--lambda", ","], 2, "--lambda"),
        ("sweep", ["--lambda", " "], 2, "--lambda"),
        ("sweep", ["--lambda", ""], 2, "--lambda"),
        ("redistribute", ["--r", ","], 2, "--r"),
        ("redistribute", ["--r", ""], 2, "--r"),
        ("simulate", ["--objective", "income\nseed = 3"], 2, "command line: objective.kind: "),
        ("sweep", ["--objective", ""], 2, "--objective"),
    ],
    ids=[
        "missing_trips", "lambda_comma", "lambda_space", "lambda_empty", "r_comma", "r_empty",
        "objective_newline", "objective_empty",
    ],
)
def test_bad_input_stops_a_command_before_its_output(tmp_path, capsys, command, flags, code, names):
    """Each of these once wrote into --out: empty cell directories and one
    failures.csv row per cell (missing trips), a header-only sweep.csv or
    redistribution.csv (empty grids; an empty flag value ran the default
    grid, and an empty --objective every objective), or named line 21 of an
    internal config dump (a newline in a flag value)."""
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    trips = SMALL_CITY + "demand.kind = csv\ndemand.trips = missing.csv\n"
    flags = [write_config(tmp_path / "t.cfg", trips) if f == "TRIPS" else f for f in flags]
    source = write_config(tmp_path / "s.csv", "driver_id,pi,v\n0,1.0,1.0\n")
    out = tmp_path / "o"
    argv = [command, source] if command == "redistribute" else [command, "--config", cfg]
    assert main(argv + ["--out", str(out)] + flags) == code
    assert names in capsys.readouterr().err
    assert not out.exists()


def test_sweep_strips_each_objective(tmp_path):
    """Spaces around grid items are ignored, as around a config value."""
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    out = tmp_path / "o"
    argv = ["sweep", "--config", cfg, "--out", str(out)]
    assert main(argv + ["--objective", "income, driver_fairness", "--lambda", "0, 1"]) == 0
    assert sorted(row["objective"] for row in read_csv_rows(out / "sweep.csv")) == [
        "driver_fairness", "driver_fairness", "income", "income",
    ]


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    """A negative run seed once exited 3 from the generator, naming neither
    the key nor its source. shapley's --seed is hashed and takes any int."""
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "neg.cfg", SMALL_CITY.replace("seed = 5", "seed = -3"))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert f"error: {cfg}: seed: " in capsys.readouterr().err
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert "error: command line: seed: " in capsys.readouterr().err
    assert not out.exists()
    table = helpers.write_additive_table(tmp_path / "table.csv", 3)
    argv = ["shapley", table, "--out", str(out), "--method", "monte_carlo", "--samples", "4"]
    assert main(argv + ["--seed", "-1"]) == 0


@pytest.mark.parametrize("command", ["simulate", "train", "sweep"])
def test_unparsable_lambda_flag_is_a_config_error(tmp_path, capsys, command):
    """simulate and train once exited 3 with float()'s own message."""
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--lambda", "abc"]) == 2
    err = capsys.readouterr().err
    assert "cannot parse --lambda" in err and "'abc'" in err
    assert not out.exists()


def test_single_run_rejects_comma_objective(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    for flag, value in (("--objective", "income,requests"), ("--lambda", "1,2")):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), flag, value]) == 2
        assert f"error: this command takes a single {flag}\n" == capsys.readouterr().err


def test_missing_shapley_source_exits_3(tmp_path, capsys):
    rc = main(["shapley", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err



@pytest.mark.parametrize("r", ["1.5", "nan"])
def test_redistribute_rejects_risk_outside_unit_interval_as_config_error(tmp_path, capsys, r):
    src = write_config(tmp_path / "shapley.csv", "driver_id,pi,v\n0,5.0,4.0\n1,3.0,4.0\n")
    out = tmp_path / "o"
    assert main(["redistribute", src, "--out", str(out), "--r", f"0.5,{r}"]) == 2
    assert "--r" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["table", "run"])
@pytest.mark.parametrize("method", ["monte_carlo", "exact", "auto"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_shapley_rejects_non_positive_samples_as_config_error(
    tmp_path, capsys, samples, method, source
):
    if source == "table":
        src = helpers.write_additive_table(tmp_path / "table.csv", 3)
    else:
        src = str(tmp_path / "run")
        cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
        assert main(["simulate", "--config", cfg, "--out", src]) == 0
    out = tmp_path / "o"
    argv = ["shapley", src, "--out", str(out), "--method", method, "--samples", samples]
    assert main(argv) == 2
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


def test_shapley_rejects_pi_with_a_run_directory_as_config_error(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    assert main(["simulate", "--config", cfg, "--out", run_dir]) == 0
    out = tmp_path / "o"
    assert main(["shapley", run_dir, "--out", str(out), "--pi", str(tmp_path / "pi.csv")]) == 2
    err = capsys.readouterr().err
    assert "--pi" in err and "table input only" in err
    assert not out.exists()


def test_exact_shapley_past_the_cap_is_a_config_error_naming_the_flag(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.cfg",
        "city.width = 3\ncity.height = 3\ncity.neighborhoods = 2\nfleet.num_drivers = 13\n"
        "demand.rate_per_epoch = 1.0\ndemand.num_epochs = 2\nseed = 4\n",
    )
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    out = tmp_path / "shap"
    assert main(["shapley", str(run_dir), "--out", str(out), "--method", "exact"]) == 2
    err = capsys.readouterr().err
    assert "--method exact" in err and "--method monte_carlo" in err
    assert "shapley_mc" not in err
    assert not out.exists()

def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    digests_a, digests_b = dir_digests(a), dir_digests(b)
    assert digests_a == digests_b
    assert set(digests_a) >= {
        "config.resolved",
        "epochs.jsonl",
        "fleet.jsonl",
        "requests.csv",
        "stops.csv",
        "report.json",
        "report.csv",
    }
    with open(a / "epochs.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    assert records and all(r["solver_nodes"] >= 1 for r in records)
    # every route search enters at least its root node
    assert all(r["route_nodes"] >= r["route_calls"] >= 0 for r in records)
    assert sum(r["route_calls"] for r in records) >= 1


BUSY_CITY = """
city.width = 5
city.height = 5
city.neighborhoods = 2
fleet.num_drivers = 6
demand.rate_per_epoch = 5.0
demand.num_epochs = 10
seed = 2
"""


def test_busy_fleet_route_search_count_is_pinned(tmp_path):
    """The first-step reach filter drops a busy driver's requests that its
    route search would reject at the first stop. Without it (the filter for
    idle drivers only) this day runs 438 route searches; with it, 258."""
    cfg = write_config(tmp_path / "busy.cfg", BUSY_CITY)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run" / "epochs.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    calls = sum(r["route_calls"] for r in records)
    assert calls < 438
    assert (calls, sum(r["route_nodes"] for r in records)) == (258, 1398)


IDLE_CITY = """
city.width = 5
city.height = 5
city.neighborhoods = 2
fleet.num_drivers = 4
fleet.capacity = 1
demand.rate_per_epoch = 6.0
demand.num_epochs = 10
objective.kind = driver_fairness
objective.lambda = 3000
seed = 3
"""


def test_idle_fleet_route_search_count_is_pinned(tmp_path):
    """No driver of this capacity-1 day ever takes a rider, so every route
    search is an idle driver's single request, walked as its forced
    root -> pickup -> dropoff path without the search. The counters keep
    the values the full search gave: 161 searches of 3 nodes each."""
    cfg = write_config(tmp_path / "idle.cfg", IDLE_CITY)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run" / "epochs.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    assert not any(r["assignments"] for r in records)
    assert (
        sum(r["route_calls"] for r in records),
        sum(r["route_nodes"] for r in records),
        sum(r["num_actions"] for r in records),
    ) == (161, 483, 201)


SINGLE_SEAT_CITY = """
city.width = 5
city.height = 5
city.edge_minutes = 0.4
city.neighborhoods = 2
fleet.num_drivers = 3
fleet.capacity = 1
demand.rate_per_epoch = 6.0
demand.num_epochs = 12
objective.kind = income
seed = 3
"""


def test_single_seat_route_search_count_is_pinned(tmp_path):
    """Single-seat drivers of this short-edged day take riders, so besides
    idle drivers' forced paths the enumeration meets a car with one rider
    waiting and walks both stop orders of each request without the search
    (43 times, 28 of them feasible); 19 searches with two riders waiting stay
    with route_feasible. The counters and the whole epochs.jsonl keep the
    values the full search gave."""
    cfg = write_config(tmp_path / "single_seat.cfg", SINGLE_SEAT_CITY)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run" / "epochs.jsonl", "rb") as fh:
        raw = fh.read()
    records = [json.loads(line) for line in raw.splitlines()]
    assert sum(len(r["assignments"]) for r in records) == 14
    assert (
        sum(r["route_calls"] for r in records),
        sum(r["route_nodes"] for r in records),
        sum(r["num_actions"] for r in records),
    ) == (103, 401, 107)
    assert hashlib.sha256(raw).hexdigest() == (
        "656df5903e7735bf6739ae871dcefddb5f78d7b252f30c36b673ec08d67841d0"
    )


def test_resolved_config_echo_reproduces_run(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    first = tmp_path / "first"
    assert main(["simulate", "--config", cfg, "--out", str(first)]) == 0
    echoed = tmp_path / "echoed"
    assert main(["simulate", "--config", str(first / "config.resolved"), "--out", str(echoed)]) == 0
    assert dir_digests(first) == dir_digests(echoed)


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
    assert load_config(str(out / "config.resolved")).seed == 9


TRIPS = [
    # pickup_lat, pickup_lon, dropoff_lat, dropoff_lon, epoch_seconds
    (0, 0, 0, 2, 10),
    (0, 2, 0, 0, 130),
    (0, 0, 0, 1, 250),
    (0, 1, 0, 2, 370),
    (0, 2, 0, 1, 490),
    (0, 1, 0, 0, 610),
]


def write_trips(path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon", "epoch_seconds"])
        writer.writerows(TRIPS)
    return str(path)


LINE_CFG = """
city.width = 3
city.height = 1
city.neighborhoods = 1
fleet.num_drivers = 2
demand.kind = csv
demand.trips = trips.csv
seed = 1
"""


def test_scripted_trips_run_matches_hand_totals(tmp_path):
    """Six spread-out requests on a three-stop line are all serviceable, so
    the run's income must equal the sum of the six fares."""
    write_trips(tmp_path / "trips.csv")
    cfg = write_config(tmp_path / "c.cfg", LINE_CFG)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    with open(out / "report.json") as fh:
        report = json.load(fh)
    assert report["total_requests"] == 6
    assert report["total_serviced"] == 6
    assert report["overall_success_rate"] == 1.0
    # two 2-hop trips at fare 7.0 and four 1-hop trips at fare 6.0
    assert report["total_income"] == 38.0

    rows = read_csv_rows(out / "requests.csv")
    assert [row["serviced"] for row in rows] == ["1"] * 6
    stops = read_csv_rows(out / "stops.csv")
    assert len(stops) == 12
    assert sum(1 for s in stops if s["kind"] == "pickup") == 6


def test_scripted_trips_run_matches_library(tmp_path):
    """The simulate command must reproduce exactly what the library produces
    for the same config: serviced set, assigned drivers, final incomes."""
    trips = write_trips(tmp_path / "trips.csv")
    cfg = write_config(tmp_path / "c.cfg", LINE_CFG)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    config = load_config(cfg)
    graph = gen_grid_city(3, 1, 1.0, config.delta, 1, config.seed)
    stream = ingest_trips(trips, graph).requests
    batches = batch_requests(stream)
    fleet = init_fleet(graph, 2, config.capacity, config.seed)
    result = run_simulation(
        graph,
        batches,
        fleet,
        ObjectiveSpec(config.objective, config.lam),
        DelayConstraints(config.max_pickup_delay, config.max_detour_delay),
    )

    rows = read_csv_rows(out / "requests.csv")
    cli_serviced = {int(r["request_id"]) for r in rows if r["serviced"] == "1"}
    assert cli_serviced == set(result.log.assigned_driver)
    cli_drivers = {int(r["request_id"]): int(r["driver"]) for r in rows if r["serviced"] == "1"}
    assert cli_drivers == result.log.assigned_driver

    incomes = {}
    with open(out / "fleet.jsonl") as fh:
        for line in fh:
            row = json.loads(line)
            incomes[row["driver_id"]] = row["income"]
    assert incomes == {d.driver_id: d.income for d in result.fleet.drivers}
    assert sum(incomes.values()) == sum(fare(graph, r.origin, r.destination) for r in stream)

    # the epoch-greedy dispatcher attains the exhaustive optimum here: no
    # sequence of joint actions over the scripted epochs beats serving all six
    trails = helpers.exhaustive_episode_incomes(
        graph, batches, init_fleet(graph, 2, config.capacity, config.seed)
    )
    assert max(income for _, income in trails) == 38.0
    assert sum(incomes.values()) == 38.0


def test_trips_csv_run_reports_dropped_rows(tmp_path):
    """A trip whose pickup and dropoff snap to the same location is dropped
    at ingest; simulate and every sweep cell say how many in ingest.txt."""
    with open(tmp_path / "trips.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon", "epoch_seconds"])
        writer.writerows(TRIPS)
        writer.writerow([0, 0.1, 0, -0.1, 40])  # both ends snap to location 0
    cfg = write_config(tmp_path / "c.cfg", LINE_CFG)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "ingest.txt") as fh:
        assert fh.read() == "rows_dropped = 1\n"
    assert len(read_csv_rows(out / "requests.csv")) == len(TRIPS)

    sweep = tmp_path / "sweep"
    rc = main(["sweep", "--config", cfg, "--out", str(sweep), "--objective", "income", "--lambda", "0.0,1.0"])
    assert rc == 0
    for lam in ("0.0", "1.0"):
        with open(sweep / f"income-lam{lam}" / "ingest.txt") as fh:
            assert fh.read() == "rows_dropped = 1\n"


@pytest.mark.parametrize("command", ["simulate", "train", "sweep"])
def test_training_on_csv_demand_is_a_config_error(tmp_path, capsys, command):
    """Caught with the config, so a sweep writes no cell before failing."""
    write_trips(tmp_path / "trips.csv")
    cfg = write_config(tmp_path / "c.cfg", LINE_CFG + "value.mode = tabular\nvalue.episodes = 2\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "value.episodes: training episodes require synthetic demand" in capsys.readouterr().err
    assert not out.exists()


def test_synthetic_run_writes_no_ingest_file(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert not (out / "ingest.txt").exists()


TRAIN_CFG = """
city.width = 3
city.height = 3
city.neighborhoods = 2
fleet.num_drivers = 2
demand.rate_per_epoch = 2.0
demand.num_epochs = 10
value.mode = tabular
value.episodes = 12
seed = 5
"""


def test_train_writes_model_and_error_curve(tmp_path):
    cfg = write_config(tmp_path / "t.cfg", TRAIN_CFG)
    out = tmp_path / "train"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0

    model = load_value_model(str(out / "value_table.txt"))
    assert len(model.table) > 0

    rows = read_csv_rows(out / "training_errors.csv")
    assert [int(r["episode"]) for r in rows] == list(range(12))
    errors = [float(r["abs_td_error"]) for r in rows]
    assert all(e >= 0.0 for e in errors)

    out2 = tmp_path / "train2"
    assert main(["train", "--config", cfg, "--out", str(out2)]) == 0
    with open(out / "value_table.txt", "rb") as fh:
        first = fh.read()
    with open(out2 / "value_table.txt", "rb") as fh:
        assert fh.read() == first


def test_train_on_csv_demand_is_a_config_error(tmp_path, capsys):
    """With no training episodes the config is sound, but train has nothing
    to train on."""
    write_trips(tmp_path / "trips.csv")
    cfg = write_config(tmp_path / "c.cfg", LINE_CFG + "value.mode = tabular\nvalue.episodes = 0\n")
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: training requires synthetic demand\n"
    assert not out.exists()


def test_train_requires_tabular_mode(tmp_path):
    cfg = write_config(tmp_path / "t.cfg", SMALL_CITY)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_shapley_on_run_directory(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg",
        "city.width = 3\ncity.height = 3\ncity.neighborhoods = 2\n"
        "fleet.num_drivers = 3\ndemand.rate_per_epoch = 1.5\ndemand.num_epochs = 8\nseed = 4\n",
    )
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    out = tmp_path / "shap"
    assert main(["shapley", str(run_dir), "--out", str(out)]) == 0

    rows = read_csv_rows(out / "shapley.csv")
    assert len(rows) == 3
    pi = [float(r["pi"]) for r in rows]
    v = [float(r["v"]) for r in rows]
    # attribution is efficient: the components sum to the grand coalition's
    # income, which is the run's actual total income
    assert sum(v) == pytest.approx(sum(pi), abs=1e-9)
    with open(out / "shapley_meta.txt") as fh:
        meta = fh.read()
    assert "method = exact" in meta


TABULAR_CITY = SMALL_CITY + "value.mode = tabular\nvalue.episodes = 2\n"


def test_shapley_replay_of_a_tabular_run_needs_its_value_table(tmp_path, capsys):
    """The replay once ran without a value model when the table was gone,
    and attributed incomes the run never earned, with exit 0."""
    cfg = write_config(tmp_path / "c.cfg", TABULAR_CITY)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    table = run_dir / "value_table.txt"
    table.unlink()
    out = tmp_path / "shap"
    assert main(["shapley", str(run_dir), "--out", str(out)]) == 3
    assert str(table) in capsys.readouterr().err
    assert not out.exists()


def test_shapley_replay_of_a_zero_run_ignores_a_stray_value_table(tmp_path):
    """config.resolved names the value model the run dispatched with; a
    value_table.txt beside a value.mode = zero run is not it."""
    tabular = tmp_path / "tabular"
    cfg = write_config(tmp_path / "t.cfg", TABULAR_CITY)
    assert main(["simulate", "--config", cfg, "--out", str(tabular)]) == 0
    run_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    assert main(["shapley", str(run_dir), "--out", str(tmp_path / "clean")]) == 0
    shutil.copyfile(tabular / "value_table.txt", run_dir / "value_table.txt")
    assert main(["shapley", str(run_dir), "--out", str(tmp_path / "stray")]) == 0
    for name in ("shapley.csv", "shapley_meta.txt"):
        assert (tmp_path / "stray" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


def drop_last_epoch(lines):
    del lines[-2:]  # SMALL_CITY has 2 drivers
    return ": 12 rows, but 2 drivers over 7 epochs make 14"


def duplicate_a_row(lines):
    # the copy sits where driver 0 after epoch 2 belongs, so the row's
    # position refuses it before the count is reached
    lines.insert(3, lines[3])
    return f":5: malformed row {lines[4].rstrip()!r}"


@pytest.mark.parametrize("command", ["report", "shapley"])
@pytest.mark.parametrize("corrupt", [drop_last_epoch, duplicate_a_row])
def test_fleet_jsonl_needs_one_row_per_driver_per_epoch(tmp_path, capsys, command, corrupt):
    """A fleet.jsonl that lost its last epoch once gave report the incomes
    of the epoch before, and a duplicated row was taken, both with exit 0."""
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    fleet_jsonl = run_dir / "fleet.jsonl"
    lines = fleet_jsonl.read_text().splitlines(keepends=True)
    assert len(lines) == 14
    where = corrupt(lines)
    fleet_jsonl.write_text("".join(lines))
    out = tmp_path / "out"
    assert main([command, str(run_dir), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {fleet_jsonl}{where}\n"
    assert not out.exists()


def test_shapley_replay_must_earn_what_the_run_earned(tmp_path, capsys):
    """Demand edited after the run replays to other incomes; shapley once
    attributed those with exit 0."""
    trips = write_trips(tmp_path / "trips.csv")
    cfg = write_config(tmp_path / "c.cfg", LINE_CFG)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    with open(trips) as fh:
        lines = fh.read().splitlines()
    lines[1] = "0,0,0,1,10"  # the first trip's dropoff moves one stop closer
    with open(trips, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    out = tmp_path / "shap"
    assert main(["shapley", str(run_dir), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: {run_dir / 'fleet.jsonl'}: driver 1 earned 38.0 in the run but 37.0 in its replay\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("method", ["exact", "monte_carlo"])
def test_shapley_checks_the_replay_before_any_other_coalition(tmp_path, capsys, monkeypatch, method):
    """A run whose fleet.jsonl disagrees with its replay once cost every
    coalition of the estimate (63 here) before exit 3; the full fleet's
    replay alone refuses it."""
    cfg = write_config(tmp_path / "c.cfg", DAY_CITY)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    fleet_jsonl = run_dir / "fleet.jsonl"
    lines = fleet_jsonl.read_text().splitlines(keepends=True)
    last = json.loads(lines[-1])
    assert last["driver_id"] == 5
    earned = last["income"]
    last["income"] = earned + 1.0
    lines[-1] = json.dumps(last, sort_keys=True) + "\n"
    fleet_jsonl.write_text("".join(lines))
    masks = []
    replay = redistribution.coalition_incomes

    def counted(graph, batches, template, mask, *args, **kwargs):
        masks.append(mask)
        return replay(graph, batches, template, mask, *args, **kwargs)

    monkeypatch.setattr(redistribution, "coalition_incomes", counted)
    out = tmp_path / "shap"
    assert main(["shapley", str(run_dir), "--out", str(out), "--method", method]) == 3
    assert capsys.readouterr().err == (
        f"error: {fleet_jsonl}: driver 5 earned {earned + 1.0!r} in the run but {earned!r} in its replay\n"
    )
    assert masks == [(1 << 6) - 1]
    assert not out.exists()


def test_shapley_needs_the_run_s_fleet_jsonl(tmp_path, capsys):
    """A directory without fleet.jsonl, such as train's output, has no
    incomes to replay."""
    cfg = write_config(tmp_path / "t.cfg", TRAIN_CFG)
    train_dir = tmp_path / "train"
    assert main(["train", "--config", cfg, "--out", str(train_dir)]) == 0
    assert main(["shapley", str(train_dir), "--out", str(tmp_path / "shap")]) == 3
    assert str(train_dir / "fleet.jsonl") in capsys.readouterr().err


def test_shapley_on_coalition_table(tmp_path):
    table = tmp_path / "table.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coalition_bitmask", "value"])
        # three drivers 0/1/2: bit i set means driver i participates
        for mask, value in [
            (0, 0.0),
            (1, 10.0),
            (2, 10.0),
            (4, 5.0),
            (3, 15.0),
            (5, 15.0),
            (6, 15.0),
            (7, 15.0),
        ]:
            writer.writerow([mask, repr(float(value))])
    pi_csv = tmp_path / "pi.csv"
    with open(pi_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["driver_id", "pi"])
        for driver_id, income in [(0, 5.0), (1, 5.0), (2, 5.0)]:
            writer.writerow([driver_id, repr(income)])

    out = tmp_path / "shap"
    rc = main(
        ["shapley", str(table), "--out", str(out), "--method", "exact", "--pi", str(pi_csv)]
    )
    assert rc == 0
    rows = read_csv_rows(out / "shapley.csv")
    assert [float(r["v"]) for r in rows] == [35.0 / 6.0, 35.0 / 6.0, 10.0 / 3.0]
    assert [float(r["pi"]) for r in rows] == [5.0, 5.0, 5.0]
    assert sum(float(r["v"]) for r in rows) == 15.0


def test_monte_carlo_shapley_meta_reports_standard_error(tmp_path):
    table = tmp_path / "table.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coalition_bitmask", "value"])
        for mask, value in [(0, 0), (1, 10), (2, 10), (4, 5), (3, 15), (5, 15), (6, 15), (7, 15)]:
            writer.writerow([mask, repr(float(value))])

    def meta(method):
        out = tmp_path / method
        argv = ["shapley", str(table), "--out", str(out), "--method", method, "--samples", "400"]
        assert main(argv) == 0
        with open(out / "shapley_meta.txt") as fh:
            return dict(line.split(" = ", 1) for line in fh.read().splitlines())

    sampled = meta("monte_carlo")
    assert 0.0 < float(sampled["std_error_max"]) < 1.0
    assert list(sampled)[-1] == "std_error_max"
    assert "std_error_max" not in meta("exact")


def test_shapley_then_redistribute_pipeline(tmp_path):
    """Worked three-driver table end to end: attribute, then pay out at
    r = 0.5 with incomes kept. The deficits exhaust exactly the half of the
    income pool that was withheld, so every payout lands on the attributed
    value itself."""
    table = tmp_path / "table.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coalition_bitmask", "value"])
        for mask, value in [(0, 0), (1, 10), (2, 10), (4, 5), (3, 15), (5, 15), (6, 15), (7, 15)]:
            writer.writerow([mask, repr(float(value))])
    pi_csv = tmp_path / "pi.csv"
    with open(pi_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["driver_id", "pi"])
        for driver_id in range(3):
            writer.writerow([driver_id, "5.0"])

    shap_dir = tmp_path / "shap"
    assert main(["shapley", str(table), "--out", str(shap_dir), "--pi", str(pi_csv)]) == 0
    pay_dir = tmp_path / "payout"
    rc = main(
        ["redistribute", str(shap_dir), "--out", str(pay_dir), "--r", "0.5", "--mode", "keep_income"]
    )
    assert rc == 0
    rows = read_csv_rows(pay_dir / "redistribution.csv")
    for row in rows:
        assert float(row["q"]) == pytest.approx(float(row["v"]), abs=1e-9)
        assert row["bound_ok"] == "1"
    assert [float(r["v"]) for r in rows] == [35.0 / 6.0, 35.0 / 6.0, 10.0 / 3.0]


def test_redistribute_run_dir_uses_configured_payout_mode(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY + "payout.mode = keep_income\n")
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    assert main(["shapley", str(run_dir), "--out", str(run_dir)]) == 0

    configured, explicit = tmp_path / "configured", tmp_path / "explicit"
    assert main(["redistribute", str(run_dir), "--out", str(configured)]) == 0
    rc = main(["redistribute", str(run_dir), "--out", str(explicit), "--mode", "keep_income"])
    assert rc == 0
    assert dir_digests(configured) == dir_digests(explicit)
    summary = read_csv_rows(configured / "redistribution_summary.csv")
    assert summary and all(r["mode"] == "keep_income" for r in summary)

    # an explicit --mode still wins over the run's configured mode
    override = tmp_path / "override"
    rc = main(["redistribute", str(run_dir), "--out", str(override), "--mode", "as_printed"])
    assert rc == 0
    summary = read_csv_rows(override / "redistribution_summary.csv")
    assert all(r["mode"] == "as_printed" for r in summary)


def write_payout_csv(path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["driver_id", "pi", "v"])
        writer.writerow([1, "15.0", "5.0"])
        writer.writerow([2, "0.0", "10.0"])
    return str(path)


def test_redistribute_as_printed_r1_pays_attribution(tmp_path):
    src = write_payout_csv(tmp_path / "shapley.csv")
    out = tmp_path / "payout"
    rc = main(["redistribute", src, "--out", str(out), "--r", "1", "--mode", "as_printed"])
    assert rc == 0
    rows = read_csv_rows(out / "redistribution.csv")
    assert [float(r["q"]) for r in rows] == [5.0, 10.0]
    assert all(r["bound_ok"] == "1" for r in rows)


def test_redistribute_keep_income_grid(tmp_path):
    src = write_payout_csv(tmp_path / "shapley.csv")
    out = tmp_path / "payout"
    rc = main(["redistribute", src, "--out", str(out), "--r", "0,0.5", "--mode", "keep_income"])
    assert rc == 0
    rows = read_csv_rows(out / "redistribution.csv")
    by_r = {}
    for row in rows:
        by_r.setdefault(row["r"], []).append(float(row["q"]))
    # r=0 pays the attribution outright (incomes and values both sum to 15)
    assert by_r["0.0"] == [5.0, 10.0]
    # r=0.5: driver 1 keeps 7.5 with no deficit; driver 2's deficit of 10
    # absorbs the whole 7.5 pool at rate 0.75
    assert by_r["0.5"] == [7.5, 7.5]

    summary = read_csv_rows(out / "redistribution_summary.csv")
    assert [r["sum_q"] for r in summary] == ["15.0", "15.0"]
    assert all(r["mode"] == "keep_income" for r in summary)


def test_sweep_single_cell_matches_simulate(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    sweep_dir = tmp_path / "sweep"
    sim_dir = tmp_path / "sim"
    rc = main(
        ["sweep", "--config", cfg, "--out", str(sweep_dir), "--objective", "income", "--lambda", "1.5"]
    )
    assert rc == 0
    assert (
        main(["simulate", "--config", cfg, "--out", str(sim_dir), "--objective", "income", "--lambda", "1.5"])
        == 0
    )
    cell = sweep_dir / "income-lam1.5"
    assert dir_digests(cell) == dir_digests(sim_dir)
    assert len(read_csv_rows(sweep_dir / "sweep.csv")) == 1


def test_sweep_rows_share_demand_and_lambda_zero_collapses(tmp_path):
    """All sweep cells replay one demand stream, and driver fairness with
    lambda 0 scores every action exactly like the income objective, so the
    two rows must agree on every metric."""
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--config",
            cfg,
            "--out",
            str(out),
            "--objective",
            "income,driver_fairness",
            "--lambda",
            "0.0",
        ]
    )
    assert rc == 0
    rows = read_csv_rows(out / "sweep.csv")
    assert [r["objective"] for r in rows] == ["income", "driver_fairness"]
    assert rows[0]["total_requests"] == rows[1]["total_requests"]
    for key in rows[0]:
        if key != "objective":
            assert rows[0][key] == rows[1][key]


def test_sweep_defaults_cover_all_objectives(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg",
        "city.width = 2\ncity.height = 2\ncity.neighborhoods = 1\n"
        "fleet.num_drivers = 2\ndemand.rate_per_epoch = 1.0\ndemand.num_epochs = 4\n",
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv_rows(out / "sweep.csv")
    assert [r["objective"] for r in rows] == [
        "requests",
        "income",
        "rider_fairness",
        "driver_fairness",
    ]
    # every cell replays the same demand stream
    assert len({r["total_requests"] for r in rows}) == 1


def test_sweep_failure_manifest(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.cfg",
        "city.width = 2\ncity.height = 2\ncity.neighborhoods = 1\n"
        "demand.kind = csv\ndemand.trips = missing.csv\n",
    )
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", cfg, "--out", str(out), "--objective", "income", "--lambda", "0.0"])
    assert rc == 3
    # the sweep's demand is built once, before any cell, as its city is
    assert "missing.csv" in capsys.readouterr().err
    assert not out.exists()


TABULAR_CITY = SMALL_CITY + "value.mode = tabular\nvalue.episodes = 2\n"


@pytest.fixture(scope="module")
def tabular_run(tmp_path_factory):
    """A simulate run directory with a trained value_table.txt."""
    root = tmp_path_factory.mktemp("tabular")
    cfg = write_config(root / "c.cfg", TABULAR_CITY)
    assert main(["simulate", "--config", cfg, "--out", str(root / "run")]) == 0
    with open(root / "run" / "value_table.txt") as fh:
        return root / "run", fh.read()


def first_row_key(text):
    """The key fields of the table's first row, as written."""
    return text.splitlines()[1].rsplit(" ", 1)[0]


@pytest.mark.parametrize(
    "edit, line, message",
    [
        (lambda t: t.replace("gamma=0.9", "gamma"), 1, "header field 'gamma' is not key=value"),
        (lambda t: t.replace(" gamma=0.9", ""), 1, "header lacks gamma"),
        (lambda t: t.replace("gamma=0.9", "gamma=nan"), 1, r"gamma must lie in \[0, 1\)"),
        (lambda t: t.replace("alpha=0.1", "alpha=0.1 alpha=0.5"), 1, "repeated header key alpha"),
        (lambda t: re.sub(r"\n\S+ ", "\nx ", t, count=1), 2, "invalid literal for int"),
        (lambda t: re.sub(r"\n(\S+ \S+ \S+) \S+\n", r"\n\1 abc\n", t, count=1), 2,
         "could not convert string to float"),
        (lambda t: t + first_row_key(t) + " 5.0\n", -1, r"repeated key \d+ \d+ \d+$"),
    ],
    ids=["no-equals", "missing-key", "nan-gamma", "repeated-header-key", "bad-key-field",
         "bad-value", "repeated-table-key"],
)
def test_malformed_value_table_names_file_and_line(tabular_run, tmp_path, capsys, edit, line, message):
    """`shapley RUN_DIR` on a run whose value_table.txt is broken exits 3
    with the file and line of the fault; a repeated key is a fault too."""
    run, text = tabular_run
    assert text.startswith("# value-table mode=tabular gamma=0.9 alpha=0.1 seed=5\n")
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    table = copy / "value_table.txt"
    edited = edit(text)
    assert edited != text
    table.write_text(edited)
    if line == -1:  # the appended last row
        line = len(edited.splitlines())
    assert main(["shapley", str(copy), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.strip()
    assert re.search(f"^error: {re.escape(str(table))}:{line}: {message}", err), err


def simulate_cell(cfg, out, objective, lam):
    argv = ["simulate", "--config", cfg, "--out", str(out)]
    return main(argv + ["--objective", objective, "--lambda", lam])


def test_sweep_simulates_each_scoring_class_once(tmp_path, monkeypatch):
    """All four objectives x lambda {0, 0.5} are four scoring classes:
    requests, income (with both fairness objectives at lambda 0) and each
    fairness objective at 0.5. Each class is trained and simulated once, the
    run's demand is built once, and every cell still equals, file for file,
    `simulate` on that cell's config."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("run_one", "train_synthetic", "build_batches"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    cfg = write_config(tmp_path / "c.cfg", TABULAR_CITY)
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(sweep), "--lambda", "0,0.5"]) == 0
    assert calls == {"run_one": 4, "train_synthetic": 4, "build_batches": 1}
    meta = (sweep / "sweep_meta.txt").read_text()
    assert meta == "cells = 8\ncells_simulated = 4\ndemand_streams = 3\n"

    cells = [f"{objective}-lam{lam}" for objective in OBJECTIVES for lam in ("0.0", "0.5")]
    assert sorted(p.name for p in sweep.iterdir() if p.is_dir()) == sorted(cells)
    for cell in cells:
        objective, lam = cell.split("-lam")
        assert simulate_cell(cfg, tmp_path / "sim" / cell, objective, lam) == 0
        assert dir_digests(sweep / cell) == dir_digests(tmp_path / "sim" / cell), cell


def test_sweep_fails_every_cell_of_a_failing_class(tmp_path, monkeypatch):
    """A class whose run fails fails each of its cells with the same error,
    in grid order, and each cell keeps what a failing `simulate` of its
    config leaves behind (here the trained value table)."""
    monkeypatch.setattr(
        "fairpool.cli.audit_journal", lambda *args: ["request 0 picked up twice"]
    )
    cfg = write_config(tmp_path / "c.cfg", TABULAR_CITY)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", cfg, "--out", str(out)]
    assert main(argv + ["--objective", "income,driver_fairness", "--lambda", "0,1"]) == 3
    assert read_csv_rows(out / "sweep.csv") == []
    failures = read_csv_rows(out / "failures.csv")
    cells = [(f["objective"], f["lambda"]) for f in failures]
    assert cells == [
        ("income", "0.0"),
        ("income", "1.0"),
        ("driver_fairness", "0.0"),
        ("driver_fairness", "1.0"),
    ]
    assert {f["error"] for f in failures} == {
        "journal audit found 1 violation(s), first: request 0 picked up twice"
    }
    for objective, lam in cells:
        cell = f"{objective}-lam{lam}"
        assert simulate_cell(cfg, tmp_path / "sim" / cell, objective, lam) == 3
        assert dir_digests(out / cell) == dir_digests(tmp_path / "sim" / cell), cell
        assert list(dir_digests(out / cell)) == ["value_table.txt"]


def test_simulate_exits_3_when_the_journal_audit_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        "fairpool.cli.audit_journal", lambda *args: ["request 0 picked up twice"]
    )
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "1 violation" in err and "request 0 picked up twice" in err
    assert not (tmp_path / "run" / "report.json").exists()

    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", cfg, "--out", str(out), "--objective", "income", "--lambda", "0.0"])
    assert rc == 3
    assert read_csv_rows(out / "sweep.csv") == []
    failures = read_csv_rows(out / "failures.csv")
    assert [f["objective"] for f in failures] == ["income"]
    assert "request 0 picked up twice" in failures[0]["error"]


GOLDEN_CITY = """
city.width = 4
city.height = 4
city.neighborhoods = 3
fleet.num_drivers = 4
demand.rate_per_epoch = 3.0
demand.num_epochs = 10
value.mode = tabular
value.episodes = 2
seed = 11
"""

# sha256 of every artifact the pipeline below writes. Refactors keep these
# bytes; a change meant to alter an artifact updates its digest and says why
# in CHANGES.md.
GOLDEN_DIGESTS = {
    "as_printed/redistribution.csv": "f5e0515f8bc3b6eee9018ce2867af033260bed3a24e94b96c90efda98c626bba",
    "as_printed/redistribution_summary.csv": "256a3fefdc129aeadc61e70d4badb8be44d0822fe2b92ca54c676c4a35b923df",
    "keep_income/redistribution.csv": "6d140e8971285e275baf4a55f9535dcc5305eb7972e217d82a51e60e034be2a2",
    "keep_income/redistribution_summary.csv": "c8cdb88b4b77b9f568d6fd5a521b0278f5594bc7598445792a17102ac2f51dc7",
    "reread/report.csv": "583ed5e27f98d626e5f32b71c448f4b15e74f5af21d081c895f9a2df184e7a2c",
    "reread/report.json": "8a2603ea8fcae8c5996b5b6af394f3251956e3575c4d650a40fed3eafe98f351",
    "run/config.resolved": "448740c7ea820434cce58bd969d334366513311c55e384b0c41589d2143ebb6e",
    "run/epochs.jsonl": "290c10b5906da257e6ae514744609bb95c62b1bdc2089c10d63f5c91eecd1893",
    "run/fleet.jsonl": "3cc8be6eddc39dd72db59aee2254b94bb86bdc8c5acabc2c9fbfe5f05fed8a55",
    "run/report.csv": "583ed5e27f98d626e5f32b71c448f4b15e74f5af21d081c895f9a2df184e7a2c",
    "run/report.json": "8a2603ea8fcae8c5996b5b6af394f3251956e3575c4d650a40fed3eafe98f351",
    "run/requests.csv": "b5fbdd4d17943dfde6b0aa09e1cb6d18070f242a913464bf929cf76bdc01d505",
    "run/shapley.csv": "9ed1cb282f40787e46554c5170b15a8c7b191333adbb74185681215cd9992f38",
    "run/shapley_meta.txt": "c3eaf6ed984109cf409a3d28ede4aff8e6567940c41a5ef1676f096fc28d615b",
    "run/stops.csv": "aa5bfc13285ed790682299a033bc1b4b04ca350aa2d9fdef908d223ed90c3c82",
    "run/value_table.txt": "3fdce94eb9c30cb6b50b377f14d2bde5ee123c928234e4438f58abd811b72f84",
    "train/config.resolved": "448740c7ea820434cce58bd969d334366513311c55e384b0c41589d2143ebb6e",
    "train/training_errors.csv": "b5729fe3c9b027952e7bc35308569ec6fd29e8b397adb796a99ad6a690bb3669",
    "train/value_table.txt": "3fdce94eb9c30cb6b50b377f14d2bde5ee123c928234e4438f58abd811b72f84",
}


def run_golden_pipeline(root):
    cfg = write_config(root / "golden.cfg", GOLDEN_CITY)
    run = str(root / "run")
    for argv in (
        ["simulate", "--config", cfg, "--out", run],
        ["train", "--config", cfg, "--out", str(root / "train")],
        ["shapley", run, "--out", run, "--method", "exact"],
        ["redistribute", run, "--out", str(root / "as_printed"), "--mode", "as_printed"],
        ["redistribute", run, "--out", str(root / "keep_income"), "--mode", "keep_income"],
        ["report", run, "--out", str(root / "reread")],
    ):
        assert main(argv) == 0, argv
    digests = dir_digests(root)
    del digests["golden.cfg"]
    return digests


def test_pipeline_artifacts_match_pinned_digests(tmp_path):
    assert run_golden_pipeline(tmp_path) == GOLDEN_DIGESTS


FAIRNESS_CITY = """
city.width = 4
city.height = 4
city.neighborhoods = 3
fleet.num_drivers = 4
fleet.capacity = 2
demand.rate_per_epoch = 4.0
demand.num_epochs = 10
value.mode = tabular
value.episodes = 1
seed = 13
"""
FAIRNESS_LAMBDAS = ("0.0", "0.05", "1.0", "3000.0")

# sha256 of every artifact of a tabular sweep over both fairness objectives,
# plus a report rebuilt from each cell. The weights these runs are matched on
# go through both variance branches of delta_objective and land in
# total_weight in epochs.jsonl, so these digests pin their float bits.
FAIRNESS_DIGESTS = {
    "reread/driver_fairness-lam0.0/report.csv": "ab24e9632e0e25eb9e433457552748be5f26d767180d8b94a529894b470c6815",
    "reread/driver_fairness-lam0.0/report.json": "00dfa4392900538d666e03311cfd36023dc5e67f89f1770521e2f9ac030b7adb",
    "reread/driver_fairness-lam0.05/report.csv": "8eb3cf71584a01289d3e319926e70e80599153eb81e9ee41faa57df2da7e575f",
    "reread/driver_fairness-lam0.05/report.json": "47e3428b192ea60bffbfec76f4303fd129505fe62e17129eeced90da2528b7c0",
    "reread/driver_fairness-lam1.0/report.csv": "3e51c1f56c06d46e5a42f7b412a67f43928853d76777d18529d5e183b9f835f3",
    "reread/driver_fairness-lam1.0/report.json": "f75ab39d9f7a957ee3c51550cee3e325b86ebdda0fd606b1f3c4ad0330933b89",
    "reread/driver_fairness-lam3000.0/report.csv": "3e51c1f56c06d46e5a42f7b412a67f43928853d76777d18529d5e183b9f835f3",
    "reread/driver_fairness-lam3000.0/report.json": "f75ab39d9f7a957ee3c51550cee3e325b86ebdda0fd606b1f3c4ad0330933b89",
    "reread/rider_fairness-lam0.0/report.csv": "ab24e9632e0e25eb9e433457552748be5f26d767180d8b94a529894b470c6815",
    "reread/rider_fairness-lam0.0/report.json": "00dfa4392900538d666e03311cfd36023dc5e67f89f1770521e2f9ac030b7adb",
    "reread/rider_fairness-lam0.05/report.csv": "ab0bdbede104750f725c06ad7b84c1fe4bb626de1fb0d72f48db9c21ed8d00bb",
    "reread/rider_fairness-lam0.05/report.json": "9340c85a5148a575bae9ed074b0f0f13bba2784c324b5ec3885298721c76cf1a",
    "reread/rider_fairness-lam1.0/report.csv": "f4a60c230cec69e1c44ee146ce1929fcf094d4ab39abdd4cf532ce4364105dec",
    "reread/rider_fairness-lam1.0/report.json": "f1f523ffe251bcee9fb239fdb165ecf39a7e5fd55c15c1f35a60ef9c0cdd9216",
    "reread/rider_fairness-lam3000.0/report.csv": "42db6970e126b03a3bb409d2be8d3df4139a521a39c9a28f19382c29aeb1f5e7",
    "reread/rider_fairness-lam3000.0/report.json": "950b90c90a1d3db8b51b4db87f4fe3b1b626dd486f4d80549bb411b28f87d2e9",
    "sweep/driver_fairness-lam0.0/config.resolved": "f036fc723628edd9c94a67e7d3eac5aed0d8dc5cef685484594b53a41a30b94c",
    "sweep/driver_fairness-lam0.0/epochs.jsonl": "27f7b06842a711e33086cad935b1a50ebccaf57ca3bee6355591ff4efe801df3",
    "sweep/driver_fairness-lam0.0/fleet.jsonl": "928a6349e6ad6463f690a8038de32b8e4c441a429f5868222ca83cb068175cef",
    "sweep/driver_fairness-lam0.0/report.csv": "ab24e9632e0e25eb9e433457552748be5f26d767180d8b94a529894b470c6815",
    "sweep/driver_fairness-lam0.0/report.json": "00dfa4392900538d666e03311cfd36023dc5e67f89f1770521e2f9ac030b7adb",
    "sweep/driver_fairness-lam0.0/requests.csv": "6ae581285922ab2f04d17ea10ade447ffc9046c3891549d03184d06387b21cc9",
    "sweep/driver_fairness-lam0.0/stops.csv": "4f396a7a2276f304ec84299f461b517e7ac65ce092d381c418dc3e44129e4355",
    "sweep/driver_fairness-lam0.0/value_table.txt": "c355272a3e4c997ec0eb3b9f5f3ee6c6c9319771672b327845d166255d8ea46e",
    "sweep/driver_fairness-lam0.05/config.resolved": "4640dddbc4d18393db44b290ae77db4d7e57ac52e5523ef4a610d2ee306bba8b",
    "sweep/driver_fairness-lam0.05/epochs.jsonl": "63189ed82d9a636347973b688dcd2ece45115e45ca5a155252353421c753e9a8",
    "sweep/driver_fairness-lam0.05/fleet.jsonl": "b634bdf051fc9eb85af7d04adde684206f95db8e570b56920b08ca9b8273bdc1",
    "sweep/driver_fairness-lam0.05/report.csv": "8eb3cf71584a01289d3e319926e70e80599153eb81e9ee41faa57df2da7e575f",
    "sweep/driver_fairness-lam0.05/report.json": "47e3428b192ea60bffbfec76f4303fd129505fe62e17129eeced90da2528b7c0",
    "sweep/driver_fairness-lam0.05/requests.csv": "779be5f54440719d45d0d2eb81d701660b4f4c6ba2a9245837e108c3d40cb2ed",
    "sweep/driver_fairness-lam0.05/stops.csv": "bd14c38974c2468c9a7af067de81c25048e4a222a29a4626bab8554de05657e8",
    "sweep/driver_fairness-lam0.05/value_table.txt": "b823fa9505261fe55bc46e4e754d7964577334dcf46c33a425e33c76559616f3",
    "sweep/driver_fairness-lam1.0/config.resolved": "27f8668bab6e2cb3aa74db5942f6a6bbb0645b60509e3b294618299a4abcda16",
    "sweep/driver_fairness-lam1.0/epochs.jsonl": "2a32907d74b4cdf2d6bac95c76658b64447d5c4e78b1b4a08b007f43094bd20c",
    "sweep/driver_fairness-lam1.0/fleet.jsonl": "5726a98d345d36837add4c8bbbcac5881f6e494f1b4649a7eac1c637f1bc498a",
    "sweep/driver_fairness-lam1.0/report.csv": "3e51c1f56c06d46e5a42f7b412a67f43928853d76777d18529d5e183b9f835f3",
    "sweep/driver_fairness-lam1.0/report.json": "f75ab39d9f7a957ee3c51550cee3e325b86ebdda0fd606b1f3c4ad0330933b89",
    "sweep/driver_fairness-lam1.0/requests.csv": "2aaf810fea7cdd496f93484c94d987ba7ce61b3f39aaca55e7575dd4c8b4b5c0",
    "sweep/driver_fairness-lam1.0/stops.csv": "fd4f46a9ba93960f99e4cf22340885483cff5fc08e062d47e3ef03ca0ecc715b",
    "sweep/driver_fairness-lam1.0/value_table.txt": "390d3cefbb5894abecaddb1095a4cfbec6273d615c8f79a9ae2fa8eb46f72e49",
    "sweep/driver_fairness-lam3000.0/config.resolved": "91c75326929cea55b384a4dbbf20068045eca76042603f7aa26ed99533d1c5d7",
    "sweep/driver_fairness-lam3000.0/epochs.jsonl": "2a32907d74b4cdf2d6bac95c76658b64447d5c4e78b1b4a08b007f43094bd20c",
    "sweep/driver_fairness-lam3000.0/fleet.jsonl": "5726a98d345d36837add4c8bbbcac5881f6e494f1b4649a7eac1c637f1bc498a",
    "sweep/driver_fairness-lam3000.0/report.csv": "3e51c1f56c06d46e5a42f7b412a67f43928853d76777d18529d5e183b9f835f3",
    "sweep/driver_fairness-lam3000.0/report.json": "f75ab39d9f7a957ee3c51550cee3e325b86ebdda0fd606b1f3c4ad0330933b89",
    "sweep/driver_fairness-lam3000.0/requests.csv": "2aaf810fea7cdd496f93484c94d987ba7ce61b3f39aaca55e7575dd4c8b4b5c0",
    "sweep/driver_fairness-lam3000.0/stops.csv": "fd4f46a9ba93960f99e4cf22340885483cff5fc08e062d47e3ef03ca0ecc715b",
    "sweep/driver_fairness-lam3000.0/value_table.txt": "390d3cefbb5894abecaddb1095a4cfbec6273d615c8f79a9ae2fa8eb46f72e49",
    "sweep/rider_fairness-lam0.0/config.resolved": "37901c1dcd0d2cd5a74b9ec1381b473a20ecd138842f87a7f2e38e7837a4806d",
    "sweep/rider_fairness-lam0.0/epochs.jsonl": "27f7b06842a711e33086cad935b1a50ebccaf57ca3bee6355591ff4efe801df3",
    "sweep/rider_fairness-lam0.0/fleet.jsonl": "928a6349e6ad6463f690a8038de32b8e4c441a429f5868222ca83cb068175cef",
    "sweep/rider_fairness-lam0.0/report.csv": "ab24e9632e0e25eb9e433457552748be5f26d767180d8b94a529894b470c6815",
    "sweep/rider_fairness-lam0.0/report.json": "00dfa4392900538d666e03311cfd36023dc5e67f89f1770521e2f9ac030b7adb",
    "sweep/rider_fairness-lam0.0/requests.csv": "6ae581285922ab2f04d17ea10ade447ffc9046c3891549d03184d06387b21cc9",
    "sweep/rider_fairness-lam0.0/stops.csv": "4f396a7a2276f304ec84299f461b517e7ac65ce092d381c418dc3e44129e4355",
    "sweep/rider_fairness-lam0.0/value_table.txt": "c355272a3e4c997ec0eb3b9f5f3ee6c6c9319771672b327845d166255d8ea46e",
    "sweep/rider_fairness-lam0.05/config.resolved": "ed039477711fcb1038ab8a602a290333130ceadbd843f697e2b14184dc9ef751",
    "sweep/rider_fairness-lam0.05/epochs.jsonl": "564df5d561da493ca1ac7bd0a9992e00a383fbf24690051a66fcd4aab3782027",
    "sweep/rider_fairness-lam0.05/fleet.jsonl": "74dea475870e321fa38f7b2e69eb4d18f6ce98ec42273a2c94a2cc1c9fcf9064",
    "sweep/rider_fairness-lam0.05/report.csv": "ab0bdbede104750f725c06ad7b84c1fe4bb626de1fb0d72f48db9c21ed8d00bb",
    "sweep/rider_fairness-lam0.05/report.json": "9340c85a5148a575bae9ed074b0f0f13bba2784c324b5ec3885298721c76cf1a",
    "sweep/rider_fairness-lam0.05/requests.csv": "8f5062249ae34502acef0eff70170f4eec021b0e4de8f06d831e16397191f20e",
    "sweep/rider_fairness-lam0.05/stops.csv": "279359857ce2168ac2b62796a6d204c9f332824c684bb9fb92d66a3d95b71782",
    "sweep/rider_fairness-lam0.05/value_table.txt": "1307c8a113eba1405a204cb50ba9f5e9dfe31038780f8cda20e4787fe6d0ac92",
    "sweep/rider_fairness-lam1.0/config.resolved": "5042dea2bbdd557aa16dea5c7318427e9fc13dab912d514cae898312ed68b67c",
    "sweep/rider_fairness-lam1.0/epochs.jsonl": "f8503e5e680fd3c6928b545c5eff97968119593481697fe027dca52acbfb1fde",
    "sweep/rider_fairness-lam1.0/fleet.jsonl": "6bbbe230a14090acdc6a62a6b3221cfd205753768e4a631b2ed2b53ed72b95ae",
    "sweep/rider_fairness-lam1.0/report.csv": "f4a60c230cec69e1c44ee146ce1929fcf094d4ab39abdd4cf532ce4364105dec",
    "sweep/rider_fairness-lam1.0/report.json": "f1f523ffe251bcee9fb239fdb165ecf39a7e5fd55c15c1f35a60ef9c0cdd9216",
    "sweep/rider_fairness-lam1.0/requests.csv": "56ed3bd79dae26343651307d2e5ebe4f56836f9b28c52399a5c341308ae7eb7e",
    "sweep/rider_fairness-lam1.0/stops.csv": "bdf3a225ccefd963b7b32d8c1d130108c7cf00c58cdfed94cbd5b72ac5c38f81",
    "sweep/rider_fairness-lam1.0/value_table.txt": "75648d251b72637f8b5d5b07c46cf6e2724a92090db6df7dd5198e3b6260694d",
    "sweep/rider_fairness-lam3000.0/config.resolved": "bafaf149bd1e4d2f146083c12b9f932ad7fa1024083eb84785c3614b5c03fc32",
    "sweep/rider_fairness-lam3000.0/epochs.jsonl": "f79b8e980b3ce920f7e993f1f6fb490679d3fb6a677aff70b962563bcefe0e2f",
    "sweep/rider_fairness-lam3000.0/fleet.jsonl": "52d037fa0182b4cae4f7fe1015ba94df5419f78736d399e7fb7ef5df1b21e047",
    "sweep/rider_fairness-lam3000.0/report.csv": "42db6970e126b03a3bb409d2be8d3df4139a521a39c9a28f19382c29aeb1f5e7",
    "sweep/rider_fairness-lam3000.0/report.json": "950b90c90a1d3db8b51b4db87f4fe3b1b626dd486f4d80549bb411b28f87d2e9",
    "sweep/rider_fairness-lam3000.0/requests.csv": "2347556ec86dac5984e071033dc7af42d5a383c898f4a3167948bf7ca3e6619f",
    "sweep/rider_fairness-lam3000.0/stops.csv": "0ca8a4edb29cb57783358614bf35f77335d786670558312582f0cf24a204b1ae",
    "sweep/rider_fairness-lam3000.0/value_table.txt": "4a82efefcf0b2d1e141d4480d60fab520ef7f61ee3aeb6c43ced479a99ffa70b",
    "sweep/sweep.csv": "66692bb45777a13cea035c011bbeb59b63881f6f3f511339ce1e342606ea56ce",
    "sweep/sweep_meta.txt": "67617cb9410bc776a1cca8af6365fc322e075afaa521e0d19501eed6406e6fe9",
}


def test_fairness_sweep_artifacts_match_pinned_digests(tmp_path):
    cfg = write_config(tmp_path / "fair.cfg", FAIRNESS_CITY)
    sweep = tmp_path / "sweep"
    argv = ["sweep", "--config", cfg, "--out", str(sweep)]
    argv += ["--objective", "rider_fairness,driver_fairness", "--lambda", ",".join(FAIRNESS_LAMBDAS)]
    assert main(argv) == 0
    for objective in ("rider_fairness", "driver_fairness"):
        for lam in FAIRNESS_LAMBDAS:
            cell = f"{objective}-lam{lam}"
            assert main(["report", str(sweep / cell), "--out", str(tmp_path / "reread" / cell)]) == 0
    digests = dir_digests(tmp_path)
    del digests["fair.cfg"]
    assert digests == FAIRNESS_DIGESTS



WIDE_CITY = """
city.width = 5
city.height = 5
city.neighborhoods = 9
fleet.num_drivers = 11
fleet.capacity = 2
demand.rate_per_epoch = 8.0
demand.num_epochs = 12
value.mode = tabular
value.episodes = 1
seed = 11
"""

# sha256 of every artifact of a tabular fairness sweep whose variances run
# over 11 driver incomes and up to 9 neighborhood rates, so the variance
# kernel's eight-accumulator block and its tail both reach total_weight in
# epochs.jsonl. Summing those variances left to right instead changes both
# epochs.jsonl digests.
WIDE_DIGESTS = {
    "sweep/driver_fairness-lam1.0/config.resolved": "24ebec0ffe8d791700e561b416466d047a607985ac4b134706de9ad00504416c",
    "sweep/driver_fairness-lam1.0/epochs.jsonl": "ebc7d518cac88d245c1eb6226428f4ed52e473926e03795cdb73be734e244adf",
    "sweep/driver_fairness-lam1.0/fleet.jsonl": "62f54902b42865ce27e6a74dcc46be12f4f750ea9eb078eec92a2ebd79cefa8f",
    "sweep/driver_fairness-lam1.0/report.csv": "4e1a396558495e0606f1442e76e081fde74e8a4c40200a7558bebbc90e276936",
    "sweep/driver_fairness-lam1.0/report.json": "dc6de2577214b004abf40cfd5274a8b1477f17b4aa245df58d69b7914700e5c5",
    "sweep/driver_fairness-lam1.0/requests.csv": "87786a778e6c9a29c4e631e99bb257a39cf298ab708139389a16e9751744556b",
    "sweep/driver_fairness-lam1.0/stops.csv": "145516b0520b2f23e556038782b201aa6714f9822fad1cde50ee61b83e622121",
    "sweep/driver_fairness-lam1.0/value_table.txt": "508fc3ab69f69a34a472b466a069d29cb08d9c307e7887928421ed565ec60007",
    "sweep/rider_fairness-lam1.0/config.resolved": "6f00e4882bf6937fa8b393e276ddac2356d79cc344f01a7e2a4c71e6b2619c67",
    "sweep/rider_fairness-lam1.0/epochs.jsonl": "57262068a9fe9b407c1c88c7eeb205a7b198705260c49a06f0784c854b2d5604",
    "sweep/rider_fairness-lam1.0/fleet.jsonl": "4ede7fd9ba052ed8ec1c81e2009257ddabd6c01e34a3583ed8b6c5c15bdf3d19",
    "sweep/rider_fairness-lam1.0/report.csv": "b99f5d7da2d73ab944dfccc01b6e366b02aa6e5cfa2972fe6bb07d32d603689b",
    "sweep/rider_fairness-lam1.0/report.json": "74cdf2bcef1e5ffb25c942688506f59267c90f4e85d1a4696b8db3949b9300ad",
    "sweep/rider_fairness-lam1.0/requests.csv": "e5fa2ba0b7797ee0292d1004ea4031cc6e8ea007bf96c8a9e701da3c4330a193",
    "sweep/rider_fairness-lam1.0/stops.csv": "8319b0ef8bfda7a28966b5105d157e1c679f5c55bfd0bf101e1245d88e31bdcd",
    "sweep/rider_fairness-lam1.0/value_table.txt": "a4de2f314437ab02166af9a52b6ef3dc2c507434df41f0777908bd0b087d884e",
    "sweep/sweep.csv": "c180862a34ea5c483be937298e4acebc05e2a107464898e1354dee69491d93fd",
    "sweep/sweep_meta.txt": "6f65c660a32d924c21d700fb147be3b0a3fd7d20163a75d91cdffa1e219833e2",
}


def test_wide_fairness_sweep_artifacts_match_pinned_digests(tmp_path):
    cfg = write_config(tmp_path / "wide.cfg", WIDE_CITY)
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]
    assert main(argv + ["--objective", "driver_fairness,rider_fairness", "--lambda", "1.0"]) == 0
    digests = dir_digests(tmp_path)
    del digests["wide.cfg"]
    assert digests == WIDE_DIGESTS


CSV_CITY = """
city.kind = csv
city.locations = city/locations.csv
city.edges = city/edges.csv
city.neighborhoods = 2
fleet.num_drivers = 3
fleet.capacity = 2
demand.kind = csv
demand.trips = trips.csv
objective.kind = requests
seed = 3
"""

# trips on the 4x3 grid gen-city writes (lat = row, lon = column); the third
# row snaps both ends to location 5 and is dropped at ingest
CSV_CITY_TRIPS = [
    (0.1, 0.0, 2.0, 3.0, 5),
    (2.0, 2.9, 0.0, 0.2, 20),
    (1.0, 1.0, 1.1, 1.2, 30),
    (0.0, 3.0, 2.0, 0.0, 45),
    (1.0, 0.0, 1.0, 3.0, 70),
    (2.0, 1.0, 0.0, 1.0, 80),
    (0.0, 2.0, 2.0, 2.0, 95),
    (1.0, 2.0, 0.0, 0.0, 130),
    (2.0, 0.0, 0.0, 3.0, 140),
    (0.0, 1.0, 1.0, 3.0, 150),
    (1.0, 3.0, 2.0, 1.0, 200),
    (2.0, 3.0, 1.0, 0.0, 230),
]

# sha256 of every artifact of a pipeline none of the digests above reach: a
# gen-city city read back as a CSV city with trips-CSV demand (so ingest.txt
# is written), the requests objective, Monte Carlo Shapley on the run
# directory (so shapley_meta.txt has its std_error_max line), then a payout
# and a report rebuilt from the run. The run's config.resolved is left out:
# it holds the absolute paths of the city and trips files.
CSV_CITY_DIGESTS = {
    "city/config.resolved": "e218add9122c9a312fb6b4f3c581ad02463e531fef93a89556ab78651bd195ae",
    "city/edges.csv": "be5a1287b2b6942dca7e02b90f9ca1bfc859c00ac3bc2dfc493f768a88783698",
    "city/locations.csv": "c3d8bc1f2cb1e9999b180500511418837fc2a42fbe311cc5294f168af5e4ad40",
    "city/neighborhoods.csv": "a49636dd6b4d534b3f55ac3f481b14fcca9949540f6137945df610624e9af0d9",
    "payout/redistribution.csv": "80d6c483f171920c37d9b537d4183ff8217825f96020696e03f82fee21bf90b4",
    "payout/redistribution_summary.csv": "690d3d88cb74a3577eec8520bfdd408e223773f722064842889985f784732aa6",
    "reread/report.csv": "c6a27beec5559ce5c675ff091fd0e5cd22c6f6adce13e00dabc0000aacf00292",
    "reread/report.json": "68de22bba93d22d0ecfd76d84efb1a390d2a520d89a8d5bc4919a23b05e8bf3e",
    "run/epochs.jsonl": "cf71d0c7419c8ed7434a63e2b3251a5779a49617ac050f0a09b5817481621bfd",
    "run/fleet.jsonl": "c138195bd0cd081f4abec016c2432fcc7af6da84c6d95d168f14461a15f431f1",
    "run/ingest.txt": "4e93cfd113628e83c321e91dc92f59d17a37ed27d057db759e35024bbc3fb81d",
    "run/report.csv": "c6a27beec5559ce5c675ff091fd0e5cd22c6f6adce13e00dabc0000aacf00292",
    "run/report.json": "68de22bba93d22d0ecfd76d84efb1a390d2a520d89a8d5bc4919a23b05e8bf3e",
    "run/requests.csv": "de8aece51a9131bb2152a95fb29adf9b26bf44a0349bcc798d03c72f3780b155",
    "run/shapley.csv": "ad07cf08cc840f0c3ff523aaf268d7cd22f54f0a16c6e87ce2f2444d772ba7d9",
    "run/shapley_meta.txt": "3f85e1c7ff1ac61b544ad25b9d1311144cab9b67a36bf64c2d43c02d66c8bfc6",
    "run/stops.csv": "43ca6feac895c5547bae74e28039a1d5c9639286a4615bf2661c8246247b35e2",
}


# sha256 of every artifact of the table-input paths, which no run directory
# reaches: exact Shapley on a coalition_bitmask,value file, Monte Carlo
# Shapley on it with --pi incomes, and a payout read from the driver_id,pi,v
# file the latter wrote. The two inputs are pinned too, so a change in the
# generated table shows as such.
TABLE_DIGESTS = {
    "pi.csv": "b0ffc7993df36f0b21870a0a9a29efdfd57b564a2e157bb545b6979f4f83b1ca",
    "table.csv": "0e45d3b49d6aba671922d9135cf053ea2735c5809f5ef8dcd7e0baa3325f374c",
    "exact/shapley.csv": "9450110655d14d7846bfaf1e1f515dcb55efbe571867912b8136c3136f49413f",
    "exact/shapley_meta.txt": "8fbe834dba03e34041b780ee49e0065fa1aef4b2c81711769a6d9ed51b4da2fb",
    "mc/shapley.csv": "93f0b708e00a103aae96512293ac58415aae33d9c0c6fb59efe44a1f49f04f7d",
    "mc/shapley_meta.txt": "c8c5de2cbdd81ac68e2c0b1ad9f4fa1d239f503006b3e89e62626c6e1c8b7603",
    "payout/redistribution.csv": "c3f0ad345c0b5a99c719d64ecae47116b3405fd7d46dda9765ee62004efab4b8",
    "payout/redistribution_summary.csv": "a5a0aad6da1bf9f4464fbe01caedd8b5443005e2618891ed21370a55dd91eb77",
}


def test_table_input_artifacts_match_pinned_digests(tmp_path):
    table = tmp_path / "table.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coalition_bitmask", "value"])
        for mask, value in helpers.random_game(np.random.default_rng(5), 4).items():
            writer.writerow([mask, repr(value)])
    pi_csv = tmp_path / "pi.csv"
    pi_csv.write_text("driver_id,pi\n0,12.5\n1,0.75\n2,20.0\n3,9.125\n")
    for argv in (
        ["shapley", str(table), "--out", str(tmp_path / "exact")],
        [
            "shapley", str(table), "--out", str(tmp_path / "mc"), "--method", "monte_carlo",
            "--samples", "300", "--seed", "8", "--pi", str(pi_csv),
        ],
        ["redistribute", str(tmp_path / "mc" / "shapley.csv"), "--out", str(tmp_path / "payout")],
    ):
        assert main(argv) == 0, argv
    assert dir_digests(tmp_path) == TABLE_DIGESTS


def test_csv_city_requests_pipeline_artifacts_match_pinned_digests(tmp_path):
    city_cfg = write_config(tmp_path / "grid.cfg", "city.width = 4\ncity.height = 3\ncity.neighborhoods = 2\n")
    with open(tmp_path / "trips.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon", "epoch_seconds"])
        writer.writerows(CSV_CITY_TRIPS)
    cfg = write_config(tmp_path / "csv.cfg", CSV_CITY)
    run = str(tmp_path / "run")
    for argv in (
        ["gen-city", "--config", city_cfg, "--out", str(tmp_path / "city")],
        ["simulate", "--config", cfg, "--out", run],
        ["shapley", run, "--out", run, "--method", "monte_carlo", "--samples", "40", "--seed", "4"],
        ["redistribute", run, "--out", str(tmp_path / "payout")],
        ["report", run, "--out", str(tmp_path / "reread")],
    ):
        assert main(argv) == 0, argv
    digests = dir_digests(tmp_path)
    for name in ("grid.cfg", "trips.csv", "csv.cfg", "run/config.resolved"):
        del digests[name]
    with open(tmp_path / "run" / "ingest.txt") as fh:
        assert fh.read() == "rows_dropped = 1\n"
    with open(tmp_path / "run" / "shapley_meta.txt") as fh:
        assert "std_error_max = " in fh.read()
    assert digests == CSV_CITY_DIGESTS

def test_report_rebuild_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    with open(run_dir / "report.json", "rb") as fh:
        want_json = fh.read()
    with open(run_dir / "report.csv", "rb") as fh:
        want_csv = fh.read()

    rebuilt = tmp_path / "rebuilt"
    assert main(["report", str(run_dir), "--out", str(rebuilt)]) == 0
    with open(rebuilt / "report.json", "rb") as fh:
        assert fh.read() == want_json
    with open(rebuilt / "report.csv", "rb") as fh:
        assert fh.read() == want_csv


def rename_driver_header(lines):
    lines[0] = lines[0].replace(",driver\r\n", ",driver_id\r\n")
    return 1


def letter_request_id(lines):
    lines[1] = "x" + lines[1][lines[1].index(",") :]
    return 2


def serviced_row_without_driver(lines):
    i = next(i for i, line in enumerate(lines) if i and line.split(",")[4] == "1")
    lines[i] = lines[i][: lines[i].rindex(",") + 1] + "\r\n"
    return i + 1


def garbage_fleet_line(lines):
    lines.append("garbage\n")
    return len(lines)


def set_request_cell(lines, serviced, column, value):
    """Set one cell of the first requests.csv row with that `serviced` flag;
    returns its line."""
    i = next(i for i, line in enumerate(lines) if i and line.split(",")[4] == serviced)
    cells = lines[i].rstrip("\r\n").split(",")
    cells[column] = value
    lines[i] = ",".join(cells) + "\r\n"
    return i + 1


def origin_999(lines):
    return set_request_cell(lines, "1", 1, "999")


def origin_minus_1(lines):
    return set_request_cell(lines, "0", 1, "-1")


def serviced_2(lines):
    return set_request_cell(lines, "1", 4, "2")


def destination_equals_origin(lines):
    i = next(i for i, line in enumerate(lines) if i and line.split(",")[4] == "1")
    return set_request_cell(lines, "1", 2, lines[i].split(",")[1])


def negative_created_at(lines):
    return set_request_cell(lines, "0", 3, "-1.0")


def unserviced_row_naming_a_driver(lines):
    return set_request_cell(lines, "0", 5, "1")


def serviced_row_with_driver_9(lines):
    return set_request_cell(lines, "1", 5, "9")


def duplicated_request_row(lines):
    lines.append(lines[1])
    return len(lines)


def swapped_request_rows(lines):
    lines[1], lines[2] = lines[2], lines[1]
    return 2


def swapped_fleet_rows(lines):
    """Driver 1's last row where its first belongs: every row is well
    formed, and the file once gave report the first epoch's income."""
    lines[1], lines[-1] = lines[-1], lines[1]
    return 2


def fleet_row_for_driver_7(lines):
    lines.append('{"driver_id": 7, "epoch": 0, "income": 5.0}\n')
    return len(lines)


def fleet_income(text, name):
    """A last snapshot whose income is `text`, which is not a finite,
    non-negative number; the row keeps its place, driver 1 after epoch 6."""
    def corrupt(lines):
        lines[-1] = re.sub(r'"income": [^,]*', f'"income": {text}', lines[-1])
        return len(lines)

    corrupt.__name__ = f"fleet_income_{name}"
    return corrupt


def fleet_driver_id(text, name):
    """A last snapshot whose driver_id is `text`, which is not a JSON
    integer, in the place of driver 1 (Python takes 1.0 and true for 1)."""
    def corrupt(lines):
        lines[-1] = lines[-1].replace('"driver_id": 1,', f'"driver_id": {text},')
        return len(lines)

    corrupt.__name__ = f"fleet_driver_id_{name}"
    return corrupt


def garbage_epochs_line(lines):
    lines[1] = "garbage\n"
    return 2


def epochs_line_without_batch_size(lines):
    lines.append('{"epoch": 99}\n')
    return len(lines)


def epochs_batch_size(text, name):
    """A last epoch whose batch_size is `text`, which is not a non-negative
    JSON integer."""
    def corrupt(lines):
        lines.append('{"batch_size": %s, "epoch": 99}\n' % text)
        return len(lines)

    corrupt.__name__ = f"epochs_batch_size_{name}"
    return corrupt


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("requests.csv", rename_driver_header),
        ("requests.csv", letter_request_id),
        ("requests.csv", serviced_row_without_driver),
        ("fleet.jsonl", garbage_fleet_line),
        ("requests.csv", origin_999),
        ("requests.csv", origin_minus_1),
        ("requests.csv", serviced_2),
        ("requests.csv", destination_equals_origin),
        ("requests.csv", negative_created_at),
        ("requests.csv", duplicated_request_row),
        ("requests.csv", swapped_request_rows),
        ("fleet.jsonl", swapped_fleet_rows),
        ("requests.csv", unserviced_row_naming_a_driver),
        ("requests.csv", serviced_row_with_driver_9),
        ("fleet.jsonl", fleet_row_for_driver_7),
        ("fleet.jsonl", fleet_income("Infinity", "infinity")),
        ("fleet.jsonl", fleet_income("NaN", "nan")),
        ("fleet.jsonl", fleet_income("true", "true")),
        ("fleet.jsonl", fleet_income('"5"', "string")),
        ("fleet.jsonl", fleet_income("-5.0", "negative")),
        ("fleet.jsonl", fleet_income("1" + "0" * 400, "past_float")),
        ("fleet.jsonl", fleet_driver_id('"1"', "string")),
        ("fleet.jsonl", fleet_driver_id("1.0", "float")),
        ("fleet.jsonl", fleet_driver_id("true", "true")),
        ("epochs.jsonl", garbage_epochs_line),
        ("epochs.jsonl", epochs_line_without_batch_size),
        ("epochs.jsonl", epochs_batch_size("-1", "negative")),
        ("epochs.jsonl", epochs_batch_size("1.0", "float")),
        ("epochs.jsonl", epochs_batch_size('"1"', "string")),
        ("epochs.jsonl", epochs_batch_size("true", "true")),
        ("epochs.jsonl", epochs_batch_size("null", "null")),
    ],
    ids=lambda case: getattr(case, "__name__", case),
)
def test_report_names_the_file_and_line_of_a_bad_artifact(tmp_path, capsys, name, corrupt):
    cfg = write_config(tmp_path / "c.cfg", SMALL_CITY)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    path = run_dir / name
    with open(path, newline="") as fh:
        lines = fh.readlines()
    line = corrupt(lines)
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)
    # shapley reads a run's incomes from fleet.jsonl as report does
    for command in ["report", "shapley"] if name == "fleet.jsonl" else ["report"]:
        out = tmp_path / command
        assert main([command, str(run_dir), "--out", str(out)]) == 3, command
        assert f"error: {path}:{line}: " in capsys.readouterr().err
        assert not out.exists()


# the README day city with 6 drivers, at seed 7
DAY_CITY = """
city.width = 5
city.height = 5
city.neighborhoods = 4
demand.rate_per_epoch = 5.0
demand.num_epochs = 30
fleet.num_drivers = 6
seed = 7
"""


@pytest.mark.parametrize("kept", [0, 100])
def test_report_rejects_requests_csv_cut_short(tmp_path, capsys, kept):
    """A requests.csv cut to its header once gave total_requests 0 beside
    the run's income, with exit 0; its rows must add up to the batches'."""
    cfg = write_config(tmp_path / "c.cfg", DAY_CITY)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    epochs = [json.loads(line) for line in (run_dir / "epochs.jsonl").read_text().splitlines()]
    assert sum(epoch["batch_size"] for epoch in epochs) == 159
    requests_csv = run_dir / "requests.csv"
    with open(requests_csv, newline="") as fh:
        lines = fh.readlines()
    assert len(lines) == 160
    with open(requests_csv, "w", newline="") as fh:
        fh.writelines(lines[: 1 + kept])
    out = tmp_path / "rebuilt"
    assert main(["report", str(run_dir), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: {requests_csv}: {kept} requests, but the batch_size fields "
        f"of {run_dir / 'epochs.jsonl'} sum to 159\n"
    )
    assert not out.exists()


def write_csv_city(root):
    """The gen-city CSVs of a 3x3 grid and a config that reads them."""
    cfg = write_config(root / "g.cfg", "city.width = 3\ncity.height = 3\ncity.neighborhoods = 2\n")
    assert main(["gen-city", "--config", cfg, "--out", str(root / "city")]) == 0
    return SMALL_CITY + "city.kind = csv\ncity.locations = city/locations.csv\ncity.edges = city/edges.csv\n"


@pytest.mark.parametrize("city", ["grid", "csv"])
def test_report_rebuild_needs_no_travel_closure(tmp_path, monkeypatch, city):
    text = SMALL_CITY if city == "grid" else write_csv_city(tmp_path)
    cfg = write_config(tmp_path / "c.cfg", text)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0

    def no_closure(*args):
        raise AssertionError("report built a travel closure")

    monkeypatch.setattr("fairpool.city.build_travel_closure", no_closure)
    rebuilt = tmp_path / "rebuilt"
    assert main(["report", str(run_dir), "--out", str(rebuilt)]) == 0
    for name in ("report.json", "report.csv"):
        with open(run_dir / name, "rb") as want, open(rebuilt / name, "rb") as got:
            assert got.read() == want.read(), name


def test_gen_city_needs_no_travel_closure(tmp_path, monkeypatch):
    want, got = tmp_path / "want", tmp_path / "got"
    want.mkdir()
    got.mkdir()
    write_csv_city(want)

    def no_closure(*args):
        raise AssertionError("gen-city built a travel closure")

    monkeypatch.setattr("fairpool.city.build_travel_closure", no_closure)
    write_csv_city(got)
    for name in ("locations.csv", "edges.csv", "neighborhoods.csv"):
        with open(want / "city" / name, "rb") as a, open(got / "city" / name, "rb") as b:
            assert b.read() == a.read(), name


def test_city_with_an_empty_neighborhood_exits_3(tmp_path, capsys):
    """Two coincident pairs of locations cannot fill three neighborhoods."""
    city = tmp_path / "city"
    city.mkdir()
    write_locations(
        [Location(id=i, lat=lat, lon=0.0) for i, lat in enumerate((0.0, 0.0, 1.0, 1.0))],
        str(city / "locations.csv"),
    )
    write_edges(
        [(a, b, 1.0) for a in range(4) for b in range(4) if a != b], str(city / "edges.csv")
    )
    text = SMALL_CITY.replace("city.neighborhoods = 2", "city.neighborhoods = 3")
    text += "city.kind = csv\ncity.locations = city/locations.csv\ncity.edges = city/edges.csv\n"
    cfg = write_config(tmp_path / "c.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "3 neighborhoods over 4 locations with 2 distinct coordinates" in err


@pytest.mark.parametrize("minutes", ["nan", "inf"])
def test_non_finite_csv_edge_exits_3(tmp_path, capsys, minutes):
    """A nan edge was once read as a missing one: the run routed around it
    and exited 0."""
    text = write_csv_city(tmp_path)
    edges = tmp_path / "city" / "edges.csv"
    lines = edges.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + "," + minutes
    edges.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path / "c.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    assert f"edges.csv:2: non-finite minutes {minutes}" in capsys.readouterr().err


def test_grid_with_more_neighborhoods_than_locations_is_a_config_error(tmp_path, capsys):
    """A 2x2 grid cannot hold 9 neighborhoods: a config error naming the
    key, caught before the run (it was once a runtime error, exit 3)."""
    text = "city.width = 2\ncity.height = 2\ncity.neighborhoods = 9\n"
    cfg = write_config(tmp_path / "c.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: city.neighborhoods: more than the grid's 4 locations" in err
    assert not (tmp_path / "run").exists()


def test_csv_city_with_more_neighborhoods_than_locations_names_the_file(tmp_path, capsys):
    """The 9 locations of a CSV city are only known once read: a runtime
    error naming the locations file."""
    text = write_csv_city(tmp_path).replace("city.neighborhoods = 2", "city.neighborhoods = 10")
    cfg = write_config(tmp_path / "c.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    locations = tmp_path / "city" / "locations.csv"
    assert f"{locations}: cannot split 9 locations into 10 neighborhoods" in capsys.readouterr().err


def test_run_directory_config_missing_a_key_exits_3(tmp_path, capsys):
    """A config.resolved cut short was once filled from the defaults: shapley
    on a 1-driver run wrote a 5-driver shapley.csv, and report exited 0.
    Every command reading a run directory's config now refuses it, naming
    the file and the first key dump_config would write that it lacks."""
    text = SMALL_CITY.replace("fleet.num_drivers = 2", "fleet.num_drivers = 1")
    cfg = write_config(tmp_path / "c.cfg", text + "value.mode = tabular\n")
    run = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run)]) == 0
    assert main(["shapley", str(run), "--out", str(run)]) == 0
    resolved = run / "config.resolved"
    lines = resolved.read_text().splitlines(keepends=True)
    assert [line.split(" = ")[0] for line in lines[:4]] == [
        "city.edge_minutes", "city.height", "city.kind", "city.neighborhoods"
    ]
    resolved.write_text("".join(lines[:3]))
    for argv in (
        ["shapley", str(run), "--out", str(tmp_path / "shapley")],
        ["report", str(run), "--out", str(tmp_path / "report")],
        ["redistribute", str(run), "--out", str(tmp_path / "payout")],
        # the run's drivers come from config.resolved whatever the mode
        ["redistribute", str(run), "--out", str(tmp_path / "payout"), "--mode", "keep_income"],
    ):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == f"error: {resolved}: missing key city.neighborhoods\n"
    assert sorted(os.listdir(tmp_path)) == ["c.cfg", "run"]


# a fairness-scored run whose full fleet earns nothing while smaller
# coalitions earn: some drivers' average marginal contribution is negative
NEGATIVE_V_CITY = """
city.width = 5
city.height = 4
city.neighborhoods = 2
fleet.num_drivers = 4
fleet.capacity = 3
demand.rate_per_epoch = 5.0
demand.num_epochs = 15
value.mode = tabular
value.episodes = 3
objective.kind = driver_fairness
objective.lambda = 2.0
seed = 4
"""


def test_redistribute_refuses_the_negative_v_of_a_fairness_run(tmp_path, capsys):
    """The payout rule needs every v >= 0, which a coalition game under a
    fairness objective need not give: shapley writes such a v, and
    redistribute exits 3 naming its row."""
    cfg = write_config(tmp_path / "c.cfg", NEGATIVE_V_CITY)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    assert main(["shapley", str(run_dir), "--out", str(run_dir)]) == 0
    rows = read_csv_rows(run_dir / "shapley.csv")
    assert [r["pi"] for r in rows] == ["0.0"] * 4
    assert [float(r["v"]) for r in rows] == pytest.approx([-1 / 12, 35 / 12, 23 / 12, -4.75])
    capsys.readouterr()
    out = tmp_path / "pay"
    assert main(["redistribute", str(run_dir), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: {run_dir / 'shapley.csv'}:2: negative v {float(rows[0]['v'])!r} for driver 0\n"
    )
    assert not out.exists()


NON_FINITE_ROWS = {
    "pi": "driver_id,pi,v\n0,5.0,4.0\n1,{},4.0\n",
    "v": "driver_id,pi,v\n0,5.0,4.0\n1,3.0,{}\n",
}
NEGATIVE_ROWS = {
    "pi": "driver_id,pi,v\n1,5.0,4.0\n0,-1.0,4.0\n",
    "v": "driver_id,pi,v\n1,5.0,4.0\n0,3.0,-1.0\n",
}


# command, the text of its input file, and the whole of stderr; "redistribute"
# reads the file as a driver_id,pi,v CSV, "shapley" as a coalition table, and
# "shapley --pi" as the incomes of a 3-driver additive table
@pytest.mark.parametrize(
    "command, text, error",
    [
        # a nan or inf in pi or v once gave nan payouts and exit 0
        *(
            pytest.param("redistribute", rows.format(value), f"{{path}}:3: non-finite {column} {value}",
                         id=f"redistribute-non-finite-{column}-{value}")
            for column, rows in NON_FINITE_ROWS.items() for value in ("nan", "inf", "-inf")
        ),
        pytest.param("shapley", "coalition_bitmask,value\n0,0.0\n1,nan\n",
                     "{path}:3: non-finite value nan", id="shapley-non-finite-value"),
        pytest.param("shapley --pi", "driver_id,pi\n0,1.0\n1,inf\n",
                     "{path}:3: non-finite pi inf", id="shapley-pi-non-finite"),
        # two rows for driver 0 once paid driver 0 twice
        pytest.param("redistribute", "driver_id,pi,v\n0,1.0,1.0\n\n0,3.0,2.0\n",
                     "{path}:4: duplicate driver_id 0", id="redistribute-duplicate-driver"),
        # a second income row for driver 0 was once kept without a word
        pytest.param("shapley --pi", "driver_id,pi\n0,1.0\n1,2.0\n0,3.0\n",
                     "{path}:4: duplicate driver_id 0", id="shapley-pi-duplicate-driver"),
        # a negative income was once written to shapley.csv, which
        # redistribute then refused
        pytest.param("shapley --pi", "driver_id,pi\n1,2.0\n0,-1.0\n",
                     "{path}:3: negative pi -1.0 for driver 0", id="shapley-pi-negative"),
        # a driver the table lacks was once dropped without a word
        pytest.param("shapley --pi", "driver_id,pi\n0,1.0\n1,2.0\n7,5.0\n",
                     "{path}:4: unknown driver_id 7", id="shapley-pi-unknown-driver"),
        *(
            pytest.param("redistribute", rows, f"{{path}}:3: negative {column} -1.0 for driver 0",
                         id=f"redistribute-negative-{column}")
            for column, rows in NEGATIVE_ROWS.items()
        ),
        pytest.param("redistribute", "driver_id,pi,v\n", "{path}: no drivers found",
                     id="redistribute-header-only"),
        pytest.param("shapley --pi", "driver_id,pi\n0,1.0\n2,2.0\n",
                     "{path}: missing incomes for drivers [1]", id="shapley-pi-missing-driver"),
    ],
)
def test_driver_file_error_exits_3(tmp_path, capsys, command, text, error):
    path = write_config(tmp_path / "input.csv", text)
    out = tmp_path / "o"
    argv = [command.split()[0], path, "--out", str(out)]
    if command == "shapley --pi":
        argv[1:2] = [helpers.write_additive_table(tmp_path / "table.csv", 3), "--pi", path]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {error.format(path=path)}\n"
    assert not out.exists()


def drop_driver_5(lines):
    del lines[6:]
    return ": 5 drivers, but the run has 6"


def renumber_driver_5(lines):
    lines[6] = "7" + lines[6][1:]
    return ":7: unknown driver_id 7"


def keep_the_header(lines):
    del lines[1:]
    return ": no drivers found"


@pytest.mark.parametrize("corrupt", [drop_driver_5, renumber_driver_5, keep_the_header])
def test_redistribute_of_a_run_pays_each_of_its_drivers(tmp_path, capsys, corrupt):
    """A run's shapley.csv missing driver 5 once paid the other 5 drivers
    with exit 0; its config.resolved names the 6 the run has."""
    cfg = write_config(tmp_path / "c.cfg", DAY_CITY)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0
    assert main(["shapley", str(run_dir), "--out", str(run_dir)]) == 0
    shapley_csv = run_dir / "shapley.csv"
    with open(shapley_csv, newline="") as fh:
        lines = fh.readlines()
    assert len(lines) == 7
    where = corrupt(lines)
    with open(shapley_csv, "w", newline="") as fh:
        fh.writelines(lines)
    for mode in ([], ["--mode", "keep_income"]):
        out = tmp_path / "pay"
        assert main(["redistribute", str(run_dir), "--out", str(out)] + mode) == 3
        assert capsys.readouterr().err == f"error: {shapley_csv}{where}\n"
        assert not out.exists()


def test_redistribute_leaves_gain_blank_when_a_value_is_zero(tmp_path):
    """The gain metric divides by each v, so a zero v leaves g and
    std_q_over_v blank instead of failing the run."""
    src = write_config(tmp_path / "shapley.csv", "driver_id,pi,v\n0,4.0,0.0\n1,2.0,6.0\n")
    out = tmp_path / "o"
    assert main(["redistribute", src, "--out", str(out), "--r", "0,0.5,1"]) == 0
    summary = read_csv_rows(out / "redistribution_summary.csv")
    assert [r["r"] for r in summary] == ["0.0", "0.5", "1.0"]
    assert all(r["g"] == "" and r["std_q_over_v"] == "" for r in summary)
    assert all(r["sum_v"] == "6.0" for r in summary)


def test_shapley_run_dir_honours_seed_flag(tmp_path):
    """Monte Carlo on a run directory samples with --seed when given and
    with the run's config seed otherwise, and shapley_meta.txt records the
    seed used."""
    cfg = write_config(
        tmp_path / "c.cfg",
        "city.width = 3\ncity.height = 3\ncity.neighborhoods = 2\n"
        "fleet.num_drivers = 3\ndemand.rate_per_epoch = 1.5\ndemand.num_epochs = 8\nseed = 4\n",
    )
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(run_dir)]) == 0

    def shapley(*flags):
        out = tmp_path / ("shap" + "".join(flags))
        argv = ["shapley", str(run_dir), "--out", str(out), "--method", "monte_carlo"]
        assert main(argv + ["--samples", "2", *flags]) == 0
        with open(out / "shapley_meta.txt") as fh:
            meta = dict(line.split(" = ", 1) for line in fh.read().splitlines())
        with open(out / "shapley.csv", "rb") as fh:
            return meta["seed"], fh.read()

    default_seed, default_bytes = shapley()
    assert default_seed == "4"
    assert shapley("--seed", "4") == (default_seed, default_bytes)
    flag_seed, flag_bytes = shapley("--seed", "1")
    assert flag_seed == "1"
    assert flag_bytes != default_bytes


def test_cli_import_loads_no_scipy():
    """`import fairpool.cli` loads neither numpy nor scipy: the package has no
    runtime dependency."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = (
        "import fairpool.cli, sys; "
        "loaded = [m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')]; "
        "assert not loaded, loaded"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
