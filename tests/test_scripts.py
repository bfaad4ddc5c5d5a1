"""The demo scripts run end to end on tiny arguments."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.mark.parametrize(
    "script, args",
    [
        ("redistribution_demo.py", ["--drivers", "3", "--epochs", "5"]),
        ("objective_comparison.py", ["--seeds", "1", "--epochs", "5", "--drivers", "3"]),
    ],
)
def test_demo_script_exits_cleanly(script, args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
