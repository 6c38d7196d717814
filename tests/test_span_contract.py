"""The traced benchmark's span contract, checked in the test gate.

``perfbench/spans.py`` wraps the simulator's public functions by name and
requires some of them to be called in every traced run; a function that is
renamed, or that the engine stops calling, would otherwise first show as a
benchmark run marked incorrect.  ``perfbench/child.py``'s hooks also read
the wrapped calls' arguments and results, so a short traced run of every
workload must pass all of its checks.  Both modules are loaded from their
files and only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sybilsim import engine
from test_golden import label_flip

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path):
    saved = sys.path[:]  # child.py puts perfbench/ first on the path
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


spans = _load("perfbench_spans", PERFBENCH / "spans.py")


def test_every_required_span_is_called(tmp_path):
    cfg = label_flip()
    cfg.rounds = 3
    tracer = spans.Tracer()
    try:
        for name in spans.TARGETS:  # raises if a name no longer resolves
            tracer.wrap(name)
        engine.run_simulation(cfg).write_outputs(tmp_path)
    finally:
        tracer.close()
    calls = {name: entry["calls"] for name, entry in tracer.summary().items()}
    missing = [name for name in spans.REQUIRED_SPANS if not calls.get(name)]
    assert not missing, f"required spans never called: {missing}"


@pytest.mark.parametrize(
    "name, rounds",
    [("labelflip-16", 8), ("paper-99", 4), ("backdoor-ed25519-cap9", 8)],
)
def test_traced_run_passes_every_check(tmp_path, name, rounds):
    child = _load("perfbench_child", PERFBENCH / "child.py")
    workload = child.WORKLOADS[name]
    cfg = workload.config(1)
    cfg.rounds = rounds
    out = child.run_traced(workload, cfg, str(tmp_path), str(tmp_path / "spans.json.gz"))
    assert out["problems"] == []
    assert all(count > 0 for count in out["checked"].values()), out["checked"]
