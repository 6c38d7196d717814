"""The traced benchmark's span contract, checked in the test gate.

``perfbench/spans.py`` wraps the simulator's public functions by name and
requires some of them to be called in every traced run; a function that is
renamed, or that the engine stops calling, would otherwise first show as a
benchmark run marked incorrect.  The module is loaded from its file and
only read.
"""

import importlib.util
from pathlib import Path

from sybilsim import engine
from test_golden import label_flip

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


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
