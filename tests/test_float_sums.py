"""Float sums that reach an artifact keep their bits on every Python.

Python 3.12 made the built-in ``sum`` over floats compensated (Neumaier
summation), so ``sum([0.1] * 10)`` is 1.0 there and 0.9999999999999999 on
3.11. fairpool adds floats either left to right from 0.0
(``objectives.left_sum``) or in numpy's pairwise order
(``objectives.pairwise_sum``), never through ``sum``. One test shadows ``sum``
in every fairpool module with each behaviour and checks that no output moves;
another walks the package's syntax trees so that no float ``sum`` comes back.
"""

import ast
import importlib
import os
import pkgutil
from types import SimpleNamespace

import helpers
import fairpool
from fairpool.cli import main
from fairpool.objectives import NeighborhoodTallies, ObjectiveSpec, ObjectiveState, delta_objective
from fairpool.redistribution import ResimulationOracle

# Integer counts, whose sum is exact on every Python.
INTEGER_SUMS = {
    ("matching.py", "sum(len(a) for a in per_driver)"),
}


def folded_sum(values, start=0):
    """The built-in sum of Python 3.11 and earlier: left to right."""
    total = start
    for x in values:
        total = total + x
    return total


def compensated_sum(values, start=0):
    """The built-in sum of Python 3.12 and later on floats: Neumaier's
    compensated summation. Integers still add exactly."""
    values = list(values)
    if all(isinstance(x, int) for x in values):
        return folded_sum(values, start)
    total = float(start)
    compensation = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def fairpool_modules():
    return [
        importlib.import_module(f"fairpool.{info.name}")
        for info in pkgutil.iter_modules(fairpool.__path__)
    ]


def read(path):
    with open(path) as fh:
        return fh.read()


def outputs_with_sum(builtin_sum, monkeypatch, root):
    """Every output that once went through a float sum, with `sum` in each
    fairpool module bound to `builtin_sum`."""
    with monkeypatch.context() as patch:
        for module in fairpool_modules():
            patch.setattr(module, "sum", builtin_sum, raising=False)
        table = helpers.write_additive_table(root / "table.csv", 10, value=0.1)
        pi_csv = root / "pi.csv"
        pi_csv.write_text("driver_id,pi\n" + "".join(f"{i},0.1\n" for i in range(10)))
        shap = root / "shap"
        assert main(["shapley", table, "--out", str(shap), "--pi", str(pi_csv)]) == 0
        pay = root / "pay"
        assert main(["redistribute", str(shap), "--out", str(pay), "--mode", "keep_income"]) == 0

        tallies = NeighborhoodTallies.empty(1)
        for _ in range(20):
            tallies.add_requested(1)
        state = ObjectiveState(incomes=[0.0, 0.3], tallies=tallies)
        fares, labels = [0.1] * 10, [1] * 10
        deltas = [
            delta_objective(ObjectiveSpec(name, 1.0), state.copy(), 0, fares, labels)
            for name in ("income", "driver_fairness", "rider_fairness")
        ]
        incomes = SimpleNamespace(incomes=lambda mask: {d: 0.1 for d in range(10)})
        value = ResimulationOracle.value(incomes, (1 << 10) - 1)
        return {
            "shapley_meta.txt": read(shap / "shapley_meta.txt"),
            "redistribution.csv": read(pay / "redistribution.csv"),
            "redistribution_summary.csv": read(pay / "redistribution_summary.csv"),
            "deltas": [d.hex() for d in deltas],
            "coalition_value": value.hex(),
        }


def test_float_outputs_do_not_depend_on_the_builtin_sum(tmp_path, monkeypatch):
    assert folded_sum([0.1] * 10) != compensated_sum([0.1] * 10)
    (tmp_path / "folded").mkdir()
    (tmp_path / "compensated").mkdir()
    folded = outputs_with_sum(folded_sum, monkeypatch, tmp_path / "folded")
    compensated = outputs_with_sum(compensated_sum, monkeypatch, tmp_path / "compensated")
    assert compensated == folded
    assert "total_income = 0.9999999999999999\n" in folded["shapley_meta.txt"]
    assert folded["coalition_value"] == (0.9999999999999999).hex()


def test_no_builtin_sum_outside_integer_counts():
    found = set()
    package = os.path.dirname(fairpool.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        source = read(os.path.join(package, name))
        tree = ast.parse(source)
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "sum":
                found.add((name, ast.get_source_segment(source, calls.get(id(node), node))))
    assert sorted(found - INTEGER_SUMS) == []
