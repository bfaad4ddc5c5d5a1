"""The benchmark harness's view of the package: every layer its tracer
patches exists, and its output checks import. A refactor that renames a
traced function fails here rather than in a traced benchmark run."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

from fairpool.cli import build_parser, main

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def traced_layers():
    """The (module, attribute, span name) triples of LAYERS in
    perfbench/worker.py, read from its source without importing it."""
    with open(os.path.join(PERFBENCH, "worker.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/worker.py defines no LAYERS")


def test_every_traced_layer_resolves_on_the_package():
    layers = traced_layers()
    assert layers
    for module, attr, _ in layers:
        owner = importlib.import_module(module)
        for part in attr.split("."):  # "Class.method" entries patch the class
            assert hasattr(owner, part), f"{module}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"


def load_perfbench(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_checks_import_cleanly():
    load_perfbench("checks")


def test_audit_run_passes_a_fresh_simulate_output(tmp_path):
    """The output check rebuilds the run's requests, stops and drivers from
    its artifacts, by keyword and by position, and audits them."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "city.width = 3\ncity.height = 3\ncity.neighborhoods = 2\nfleet.num_drivers = 2\n"
        "demand.rate_per_epoch = 2.0\ndemand.num_epochs = 8\nseed = 5\n"
    )
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(run_dir)]) == 0
    assert len((run_dir / "stops.csv").read_text().splitlines()) > 1  # the audit sees stops
    assert load_perfbench("checks").audit_run(str(run_dir)) == []


def test_every_benchmark_command_parses():
    """Each argv that perfbench/run.py passes to the CLI parses, and a
    sweep's grid flags land in the sweep's own dests."""
    run = load_perfbench("run")
    parser = build_parser()
    for name, workload in run.load_workloads().items():
        for argv in run.commands(workload, "day.cfg", "rep", run.r_grid(0)):
            if argv[0] == "report-each":  # the harness's own loop over cells
                continue
            try:
                args = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{name}: {argv} does not parse")
            if args.command == "sweep":
                sweep = workload["sweep"]
                assert (args.objectives, args.lambdas) == (sweep["objective"], sweep["lambda"])


def test_worker_counts_every_coalition_epoch_in_its_own_process(tmp_path):
    """epochs_per_s divides the epochs the worker counts by patching
    fairpool.simulate.run_epoch in its own process. A tiny simulate ->
    exact shapley pipeline (3 drivers, 4 epochs) must count 2**3 * 4 of
    them: the simulate run plus all 7 coalition replays, none of them run
    where the counter cannot see them."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "city.width = 3\ncity.height = 3\ncity.neighborhoods = 2\nfleet.num_drivers = 3\n"
        "demand.rate_per_epoch = 2.0\ndemand.num_epochs = 4\nseed = 5\n"
    )
    run = str(tmp_path / "run")
    spec = {
        "src": os.path.join(PERFBENCH, os.pardir, "src"),
        "commands": [
            ["simulate", "--config", str(cfg), "--out", run],
            ["shapley", run, "--out", run, "--method", "exact"],
        ],
        "mode": "plain",
        "spawned": time.monotonic(),
    }
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [(s["command"], s["exit"]) for s in result["stages"]] == [("simulate", 0), ("shapley", 0)]
    assert result["epochs"] == 2**3 * 4
