"""Smoke tests for the demos: each runs as a script, the way its docstring
says (the defense comparison with a shortened round count), exits 0 and
prints its closing line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, last_line",
    [
        ("01_quickstart.py", [], "final  "),
        ("02_defense_comparison.py", ["--rounds", "2"], "scoring defense should hold "),
        ("03_attack_planner.py", [], "scales up too: 60 honest nodes -> "),
    ],
    ids=["01_quickstart", "02_defense_comparison", "03_attack_planner"],
)
def test_demo_runs(script, args, last_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last_line), proc.stdout
