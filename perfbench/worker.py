"""One repetition of a workload pipeline, in a fresh process.

Started by run.py as

    python3 worker.py SPEC_JSON

where SPEC_JSON holds the directory to import fairpool from (the checkout's
`src`, or the benchmark's frozen yardstick copy), the pipeline's CLI
commands, the mode (`probe`, `plain` or `traced`), the parent's monotonic
clock just before the spawn, and (traced mode) where to write the spans.
The commands run in this process through `fairpool.cli.main`, so the
interpreter and package import are paid once and counted in set-up.

Modes:
- probe: stop at the first dispatch epoch; only set-up time is reported.
- plain: the pipeline with tracing off, apart from a counter on run_epoch
  that also stamps the first epoch.
- traced: every layer function listed in LAYERS is wrapped where its caller
  looks it up, and each call is recorded as a span in memory. Spans are
  written once the pipeline has ended.

The last stdout line is a JSON object with the measurements.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from array import array

# (module, attribute, span name). Each name is patched in the module whose
# code calls it, because the callers bind the name at import time.
LAYERS = [
    ("fairpool.matching", "route_feasible", "matching.route_feasible"),
    ("fairpool.matching", "enumerate_feasible", "matching.enumerate_feasible"),
    ("fairpool.matching", "solve_assignment", "matching.solve_assignment"),
    ("fairpool.matching", "delta_objective", "objectives.delta_objective"),
    ("fairpool.matching", "state_key", "value.state_key"),
    ("fairpool.matching", "apply_matching", "fleet.apply_matching"),
    ("fairpool.value", "ValueModel.estimate", "value.estimate"),
    ("fairpool.simulate", "td_update", "value.td_update"),
    ("fairpool.simulate", "run_epoch", "matching.run_epoch"),
    ("fairpool.simulate", "advance_fleet", "fleet.advance_fleet"),
    ("fairpool.simulate", "run_simulation", "simulate.run_simulation"),
    ("fairpool.cli", "run_simulation", "simulate.run_simulation"),
    ("fairpool.cli", "train_synthetic", "simulate.train_synthetic"),
    ("fairpool.cli", "build_graph", "city.build_graph"),
    ("fairpool.cli", "build_batches", "demand.build_batches"),
    ("fairpool.cli", "run_one", "cli.run_one"),
    ("fairpool.cli", "cmd_report", "cli.cmd_report"),
    ("fairpool.cli", "fairness_metrics", "reporting.fairness_metrics"),
    ("fairpool.cli", "shapley_exact", "redistribution.shapley_exact"),
    ("fairpool.cli", "redistribute", "redistribution.redistribute"),
    ("fairpool.redistribution", "ResimulationOracle.incomes", "redistribution.oracle"),
    ("fairpool.redistribution", "coalition_incomes", "redistribution.coalition_incomes"),
]


class FirstEpoch(BaseException):
    """Raised by a probe at its first epoch. A BaseException, so the CLI's
    own `except Exception` handlers let it through."""


# span names whose every duration is returned, for percentiles
KEEP_DURATIONS = ("matching.run_epoch", "simulate.run_simulation")


class Tracer:
    """Spans kept in flat arrays: name id, start, end, parent span index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack: list[int] = []
        self.feasible = [0]  # route_feasible calls that returned a plan
        self.actions = [0]  # actions enumerate_feasible returned

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack,
        )
        clock = time.perf_counter
        feasible, actions = self.feasible, self.actions

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        if name == "matching.route_feasible":
            def tallied(*args, **kwargs):
                out = traced(*args, **kwargs)
                feasible[0] += out is not None
                return out
            return tallied
        if name == "matching.enumerate_feasible":
            def tallied(*args, **kwargs):
                out = traced(*args, **kwargs)
                actions[0] += len(out)
                return out
            return tallied
        return traced

    def summary(self) -> dict:
        """Per span name: calls, busy (sum of durations), self (busy minus the
        time covered by direct children) and the longest span; every duration
        for the names in KEEP_DURATIONS. "value" is the value layer as a whole:
        value spans not nested in another value span (td_update calls
        estimate)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_s": 0.0, "durations": []}
            for name in self.names
        }
        out["value"] = {"busy_s": 0.0}
        is_value = [name.startswith("value.") for name in self.names]
        for i, d in enumerate(dur):
            nid = self.span_name[i]
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["busy_s"] += d
            rec["self_s"] += d - child[i]
            rec["max_s"] = max(rec["max_s"], d)
            p = self.parent[i]
            if is_value[nid] and (p < 0 or not is_value[self.span_name[p]]):
                out["value"]["busy_s"] += d
        for name in KEEP_DURATIONS:
            if name in out:
                out[name]["durations"] = [
                    d for d, nid in zip(dur, self.span_name) if self.names[nid] == name
                ]
        return out

    def dump(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def _patch(dotted_module: str, attr: str, make) -> None:
    module = sys.modules[dotted_module]
    owner = module
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(module, cls_name)
    setattr(owner, attr, make(getattr(owner, attr)))


def expand(commands: list[list[str]]):
    """Yield CLI argv lists. `["report-each", GRID, OUT]` stands for one
    `report` per run directory the sweep wrote under GRID, with output under
    OUT; it is expanded only once the sweep has run."""
    for argv in commands:
        if argv[0] != "report-each":
            yield argv
            continue
        grid, out = argv[1], argv[2]
        for name in sorted(os.listdir(grid)) if os.path.isdir(grid) else []:
            if os.path.isdir(os.path.join(grid, name)):
                yield ["report", os.path.join(grid, name), "--out", os.path.join(out, name)]


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import fairpool.cli as cli  # imports every module patched below

    tracer = Tracer() if spec["mode"] == "traced" else None
    if tracer is not None:
        for module, attr, name in LAYERS:
            _patch(module, attr, lambda fn, name=name: tracer.wrap(name, fn))

    epochs = {"count": 0, "first": None}

    def count_epochs(fn):
        def counted(*args, **kwargs):
            if epochs["first"] is None:
                epochs["first"] = time.monotonic()
                if spec["mode"] == "probe":
                    raise FirstEpoch
            epochs["count"] += 1
            return fn(*args, **kwargs)

        return counted

    _patch("fairpool.simulate", "run_epoch", count_epochs)

    stages = []
    t0 = time.perf_counter()
    try:
        for argv in expand(spec["commands"]):
            start = time.perf_counter()
            code = cli.main(argv)
            stages.append({"command": argv[0], "exit": code, "seconds": time.perf_counter() - start})
    except FirstEpoch:
        pass
    wall = time.perf_counter() - t0

    result = {
        "setup_s": None if epochs["first"] is None else epochs["first"] - spec["spawned"],
        "wall_s": wall,
        "stages": stages,
        "epochs": epochs["count"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["feasible"] = tracer.feasible[0]
        result["actions"] = tracer.actions[0]
        result["spans"] = len(tracer.start)
        tracer.dump(spec["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
