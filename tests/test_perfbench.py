"""The benchmark harness's view of the package: every layer its tracer
patches exists, and its output checks import. A refactor that renames a
traced function fails here rather than in a traced benchmark run."""

import ast
import importlib
import importlib.util
import os

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


def test_output_checks_import_cleanly():
    path = os.path.join(PERFBENCH, "checks.py")
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
