"""fairpool benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--instance measured|held_out]

Run from the root of a checkout; the package is imported from its `src`
directory. Workloads are defined in workloads.json next to this file, or
`--workload all` runs each in turn.

Every repetition of a workload's CLI pipeline runs in a fresh worker process
(worker.py), so set-up time and peak memory belong to that workload alone.
BLAS/OpenMP thread pools are pinned to one thread in every worker.

The end-to-end times are measured against a yardstick: yardstick/fairpool is
a frozen copy of the package as it was when the benchmark was defined. On a
shared 2-vCPU virtual machine the host's speed drifts by up to 1.5x over tens
of seconds to minutes, which no statistic over one run can remove. So every
run alternates repetitions of the program under test with repetitions of the
yardstick on the same workload (program, yardstick, yardstick, program, ...),
and each time is reported as

    program mean over the run * (yardstick reference / yardstick mean over the run)

where the yardstick reference is a fixed figure per workload in
workloads.json. The result reads in seconds of a host running at the
reference speed; a program change moves it as it moves the raw time, and
host drift cancels because both sides run in the same window. The raw means
are printed as well.

--trace 0: set-up probes (a fresh process that stops at its first epoch),
  alternating program and yardstick, then alternating untraced repetitions
  for about S seconds. Prints the end-to-end metrics.
--trace 1: untraced and traced repetitions of the program alternate for
  about S seconds. Prints the per-layer metrics of the traced repetitions
  (medians, raw) and the tracing overhead. Spans of the last traced
  repetition are written to .perfbench/<workload>/spans.npz, outside every
  run's output directory.

After the timed region every program repetition's artifacts are checked
(journal audit, Shapley efficiency, payout floor, sweep failures, report
re-read), the artifact sets must hash identically across repetitions, and
the traced deterministic counts must repeat across repetitions and across
invocations on the same source. The yardstick's repetitions must exit 0 and
hash identically too. The last stdout line is the result JSON.

--seed only sets the payout r grid of the Shapley workload; the fairpool
config seed of each workload is pinned in workloads.json (see its "about").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
YARDSTICK = os.path.join(HERE, "yardstick")
SIDES = {"program": SRC, "yardstick": YARDSTICK}
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 12  # per run, half of them on the yardstick
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0  # a whole invocation ends within this, workers included
R_GRID_SIZE = 11

# per-layer metric units by name suffix; every other metric is a count
UNITS = [("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio"), ("_pct", "pct")]

# Deterministic counts from a traced repetition: (label, span name, field)
COUNTS = [
    ("route_feasible_calls", "matching.route_feasible", "calls"),
    ("solver_calls", "matching.solve_assignment", "calls"),
    ("delta_objective_calls", "objectives.delta_objective", "calls"),
    ("td_updates", "value.td_update", "calls"),
    ("epochs", "matching.run_epoch", "calls"),
    ("coalitions", "redistribution.coalition_incomes", "calls"),
    ("oracle_calls", "redistribution.oracle", "calls"),
]


def load_workloads() -> dict:
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)["workloads"]


def r_grid(seed: int) -> list[float]:
    """Payout risk grid: both endpoints plus interior points drawn from seed."""
    rng = random.Random(seed)
    interior = {round(rng.uniform(0.01, 0.99), 4) for _ in range(R_GRID_SIZE - 2)}
    return sorted({0.0, 1.0} | interior)


def write_config(workload: dict, config_seed: int, path: str) -> None:
    lines = [f"seed = {config_seed}"] + [f"{k} = {v}" for k, v in workload["config"].items()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def commands(workload: dict, cfg: str, rep_dir: str, grid: list[float]) -> list[list[str]]:
    run = os.path.join(rep_dir, "run")
    reread = os.path.join(rep_dir, "reread")
    if workload["pipeline"] == "shapley":
        return [
            ["simulate", "--config", cfg, "--out", run],
            ["shapley", run, "--out", run, "--method", "exact"],
            ["redistribute", run, "--out", run, "--mode", "keep_income",
             "--r", ",".join(repr(r) for r in grid)],
            ["report", run, "--out", reread],
        ]
    if workload["pipeline"] == "simulate":
        return [["simulate", "--config", cfg, "--out", run], ["report", run, "--out", reread]]
    sweep = workload["sweep"]
    out = os.path.join(rep_dir, "grid")
    return [
        ["sweep", "--config", cfg, "--out", out, "--objective", sweep["objective"],
         "--lambda", sweep["lambda"]],
        ["report-each", out, reread],
    ]


def sim_runs(workload: dict) -> tuple[str, int]:
    """The stage that runs the simulations, and how many full-day runs it
    makes: coalition resimulations, training episodes, sweep cells."""
    config = workload["config"]
    episodes = int(config.get("value.episodes", 0))
    if workload["pipeline"] == "shapley":
        return "shapley", 2 ** int(config["fleet.num_drivers"]) - 1
    if workload["pipeline"] == "simulate":
        return "simulate", 1 + episodes
    sweep = workload["sweep"]
    cells = len(sweep["objective"].split(",")) * len(sweep["lambda"].split(","))
    return "sweep", cells * (1 + episodes)


def source_digest() -> str:
    """Hash of the package and benchmark sources, to key recorded counts."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "fairpool"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py") or name == "workloads.json":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def artifact_digest(rep_dir: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(rep_dir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, rep_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_worker(spec: dict, started: float) -> dict | None:
    """Run one worker to completion, within the invocation's time limit
    counted from `started`. Returns its result, or None if it failed."""
    env = dict(os.environ, **THREAD_PIN)
    spec = dict(spec, spawned=time.monotonic())
    timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.stderr.strip():
        print(proc.stderr.strip()[-2000:], file=sys.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); the median when there are ten samples or fewer."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def layer_metrics(rep: dict, plain_wall: float) -> dict[str, float]:
    layers = rep["layers"]

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def latency(name: str) -> dict[str, float]:
        durations = get(name, "durations") or [0.0]
        pct, value = tail(durations)
        return {
            f"{name}.p50_ms": statistics.median(durations) * 1e3,
            f"{name}.tail_ms": value * 1e3,
            f"{name}.tail_pct": pct,
        }

    calls = get("redistribution.oracle", "calls")
    resims = get("redistribution.coalition_incomes", "calls")
    route_calls = get("matching.route_feasible", "calls")
    return {
        "matching.route_feasible.calls": route_calls,
        "matching.route_feasible.busy_s": get("matching.route_feasible", "busy_s"),
        "matching.route_feasible.feasible_ratio": rep["feasible"] / route_calls if route_calls else 0.0,
        "matching.enumerate_feasible.self_s": get("matching.enumerate_feasible", "self_s"),
        "matching.enumerate_feasible.actions": rep["actions"],
        "matching.solve_assignment.calls": get("matching.solve_assignment", "calls"),
        "matching.solve_assignment.busy_s": get("matching.solve_assignment", "busy_s"),
        "matching.solve_assignment.max_ms": get("matching.solve_assignment", "max_s") * 1e3,
        "objectives.delta_objective.calls": get("objectives.delta_objective", "calls"),
        "objectives.delta_objective.busy_s": get("objectives.delta_objective", "busy_s"),
        "value.state_key.calls": get("value.state_key", "calls"),
        "value.estimate.calls": get("value.estimate", "calls"),
        "value.td_update.calls": get("value.td_update", "calls"),
        "value.busy_s": layers["value"]["busy_s"],
        "matching.run_epoch.calls": get("matching.run_epoch", "calls"),
        "matching.run_epoch.self_s": get("matching.run_epoch", "self_s"),
        **latency("matching.run_epoch"),
        "simulate.run_simulation.calls": get("simulate.run_simulation", "calls"),
        **latency("simulate.run_simulation"),
        "simulate.train_synthetic.calls": get("simulate.train_synthetic", "calls"),
        "fleet.advance_fleet.busy_s": get("fleet.advance_fleet", "busy_s"),
        "fleet.apply_matching.busy_s": get("fleet.apply_matching", "busy_s"),
        "redistribution.oracle.calls": calls,
        "redistribution.oracle.memo_hit_ratio": (calls - resims) / calls if calls else 0.0,
        "redistribution.coalitions": resims,
        "redistribution.redistribute.calls": get("redistribution.redistribute", "calls"),
        "cli.run_one.self_s": get("cli.run_one", "self_s"),
        "cli.cmd_report.busy_s": get("cli.cmd_report", "busy_s"),
        "reporting.fairness_metrics.busy_s": get("reporting.fairness_metrics", "busy_s"),
        "city.build_graph.busy_s": get("city.build_graph", "busy_s"),
        "demand.build_batches.busy_s": get("demand.build_batches", "busy_s"),
        "trace.wall_s": rep["wall_s"],
        "trace.overhead_s": rep["wall_s"] - plain_wall,
        "trace.spans": rep["spans"],
    }


def counts_of(rep: dict) -> dict[str, int]:
    layers = rep["layers"]
    counts = {label: layers.get(name, {}).get(key, 0) for label, name, key in COUNTS}
    counts["route_feasible_feasible"] = rep["feasible"]
    counts["actions"] = rep["actions"]
    counts["oracle_memo_hits"] = counts["oracle_calls"] - counts["coalitions"]
    return counts


def check_recorded_counts(key: str, counts: dict) -> str | None:
    """Counts must repeat across invocations on the same source: the first
    traced invocation records them, later ones compare."""
    path = os.path.join(WORK, "counts.json")
    recorded = {}
    if os.path.exists(path):
        with open(path) as fh:
            recorded = json.load(fh)
    digest = source_digest()
    entry = recorded.get(key)
    if entry is not None and entry["source"] == digest:
        if entry["counts"] != counts:
            return f"counts differ from an earlier invocation: {entry['counts']} != {counts}"
        return None
    recorded[key] = {"source": digest, "counts": counts}
    with open(path, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
    return None


def run_workload(name: str, workload: dict, seed: int, seconds: int, trace: bool,
                 instance: str, started: float) -> dict:
    config_seed = workload[f"{instance}_seed"]
    if config_seed is None:
        raise SystemExit(f"workload {name} has no {instance} seed")
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg = os.path.join(work, "workload.cfg")
    write_config(workload, config_seed, cfg)
    grid = r_grid(seed)
    print(f"workload {name}: instance {instance} (config seed {config_seed}), --seed {seed}, "
          f"trace {int(trace)}; thread pools pinned: "
          + " ".join(f"{k}={v}" for k, v in THREAD_PIN.items()))

    # program and yardstick take turns as A B B A, so a steady drift weighs
    # on both sides alike; the traced run alternates untraced and traced
    if trace:
        schedule = [("program", "plain"), ("program", "traced")]
    else:
        schedule = [("program", "plain"), ("yardstick", "plain"),
                    ("yardstick", "plain"), ("program", "plain")]

    probes: dict[str, list[float]] = {"program": [], "yardstick": []}
    if not trace:
        for k in range(SETUP_PROBES):
            side = schedule[k % len(schedule)][0]
            probe_dir = os.path.join(work, f"probe{k}")
            out = run_worker({"mode": "probe", "src": SIDES[side],
                              "commands": commands(workload, cfg, probe_dir, grid)}, started)
            if out is not None and out["setup_s"] is not None:
                probes[side].append(out["setup_s"])
            shutil.rmtree(probe_dir, ignore_errors=True)

    reps: list[tuple[str, str, str, dict | None]] = []  # (side, mode, rep dir, worker result)
    window_start = time.monotonic()
    last: dict[tuple[str, str], float] = {}
    while True:
        side, mode = schedule[len(reps) % len(schedule)]
        expect = last.get((side, mode), 0.0)
        elapsed = time.monotonic() - window_start
        # stop only after an even number of repetitions, when both sides
        # (or both modes) have run equally often
        if len(reps) % 2 == 0 and len(reps) >= len(schedule) and elapsed + 0.5 * expect > seconds:
            break
        if time.monotonic() - started > RUN_LIMIT_S - 2 * expect:
            break
        rep_dir = os.path.join(work, f"{side}{len(reps)}")
        spec = {"mode": mode, "src": SIDES[side], "commands": commands(workload, cfg, rep_dir, grid),
                "spans_path": os.path.join(work, "spans.npz")}
        t = time.monotonic()
        out = run_worker(spec, started)
        last[(side, mode)] = time.monotonic() - t
        reps.append((side, mode, rep_dir, out))
        if out is None:
            break

    # ---- outside the timed region: output checks and determinism ----
    sys.path.insert(0, SRC)
    from checks import check_rep

    stage, runs = sim_runs(workload)
    cells = runs // (1 + int(workload["config"].get("value.episodes", 0)))
    problems: list[str] = []
    attempted = failed = 0
    digests: dict[str, list[str]] = {"program": [], "yardstick": []}
    checked: dict[str, list] = {}
    for side, mode, rep_dir, out in reps:
        digest = artifact_digest(rep_dir) if out else "none"
        digests[side].append(digest)
        if side == "yardstick":
            if out is None or any(s["exit"] != 0 for s in out["stages"]):
                problems.append(f"yardstick repetition {rep_dir} failed")
            continue
        stages = out["stages"] if out else []
        if digest not in checked:
            checked[digest] = check_rep(workload["pipeline"], rep_dir, stages, len(grid), cells)
        ops = checked[digest]
        attempted += len(ops)
        failed += sum(not ok for _, ok, _ in ops)
        problems += [f"{op}: {why}" for op, ok, why in ops if not ok]
    for side, found in digests.items():
        if len(set(found)) > 1:
            problems.append(f"{side} artifact sets differ across repetitions: {sorted(set(found))}")
    plain = [out for side, mode, _, out in reps if side == "program" and mode == "plain" and out]
    traced = [out for side, mode, _, out in reps if mode == "traced" and out]
    yard = [out for side, _, _, out in reps if side == "yardstick" and out]
    if not plain or (trace and not traced) or (not trace and not yard):
        problems.append("no repetition completed")

    print(f"repetitions: {len(plain)} untraced, {len(traced)} traced, {len(yard)} yardstick"
          + ("" if trace else f"; set-up probes {len(probes['program'])} program, "
             f"{len(probes['yardstick'])} yardstick"))
    print(f"fail_ratio {failed}/{attempted} operations (CLI commands and sweep cells)")
    found = digests["program"]
    print(f"artifact sha256 {found[0] if found else 'none'} "
          f"({'identical across' if len(set(found)) == 1 else 'DIFFERS across'} {len(found)} repetitions)")

    metrics: dict[str, dict] = {}
    if plain and yard and not trace:
        reference = workload["yardstick_reference"][instance]

        def stage_s(out: dict) -> float:
            return sum(s["seconds"] for s in out["stages"] if s["command"] == stage)

        def setups(side: str, outs: list[dict]) -> list[float]:
            return probes[side] + [o["setup_s"] for o in outs if o["setup_s"] is not None]

        raw_wall = statistics.mean(o["wall_s"] for o in plain)
        yard_wall = statistics.mean(o["wall_s"] for o in yard)
        speed = reference["wall_s"] / yard_wall
        raw_setup = statistics.median(setups("program", plain))
        yard_setup = statistics.median(setups("yardstick", yard))
        wall = raw_wall * speed
        values = {
            "wall_s": (wall, "s"),
            "setup_s": (raw_setup * reference["setup_s"] / yard_setup, "s"),
            "epochs_per_s": (plain[0]["epochs"] / wall, "1/s"),
            "sim_runs_per_s": (runs / (statistics.mean(stage_s(o) for o in plain) * speed), "1/s"),
            "peak_rss_mb": (statistics.median(o["peak_rss_mb"] for o in plain), "MB"),
        }
        for key, (value, unit) in values.items():
            metrics[key] = {"value": value, "unit": unit}
            print(f"{key} {value:.6g} {unit}")
        print(f"raw means: program wall {raw_wall:.4f} s over {len(plain)}, yardstick wall "
              f"{yard_wall:.4f} s over {len(yard)} (reference {reference['wall_s']} s, "
              f"host factor {speed:.4f}); set-up medians program {raw_setup:.4f} s, "
              f"yardstick {yard_setup:.4f} s (reference {reference['setup_s']} s)")
        for side, outs in (("program", plain), ("yardstick", yard)):
            print(f"{side} wall_s per repetition " + " ".join(f"{o['wall_s']:.4f}" for o in outs))
            print(f"{side} setup_s per probe, then per repetition "
                  + " ".join(f"{x:.4f}" for x in setups(side, outs)))
        print(f"epochs per repetition {plain[0]['epochs']}; {stage} stage runs {runs} full-day simulations")
    if traced and plain and trace:
        per_rep = [layer_metrics(o, statistics.median(p["wall_s"] for p in plain)) for o in traced]
        counts = [counts_of(o) for o in traced]
        if any(c != counts[0] for c in counts):
            problems.append(f"traced counts differ across repetitions: {counts}")
        recorded = check_recorded_counts(f"{name}/{instance}", counts[0])
        if recorded:
            problems.append(recorded)
        for key in per_rep[0]:
            values = [r[key] for r in per_rep]
            value = values[0] if len(set(values)) == 1 else statistics.median(values)
            unit = next((u for suffix, u in UNITS if key.endswith(suffix)), "count")
            metrics[key] = {"value": value, "unit": unit}
            print(f"{key} {value:.6g} {unit}")
        print("deterministic counts " + json.dumps(counts[0], sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    return {"correct": not problems, "attempted": max(attempted, 1),
            "failed": failed if attempted else 1, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description="fairpool benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--instance", choices=["measured", "held_out"], default="measured",
                        help="which pinned config seed of the workload to run")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fairpool", "cli.py")):
        print(f"error: no fairpool sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    names = sorted(workloads) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, workloads[name], args.seed, args.seconds,
                                     bool(args.trace), args.instance, time.monotonic())
    print(json.dumps(results[names[0]] if len(names) == 1 else results, sort_keys=True))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
