"""Behaviour pin: short runs must reproduce their committed metrics.csv and digests.

Every aggregation rule is pinned: FedAvg by the quickstart, the plain
rules and SybilWall on the label-flip config, and the three SybilWall
enhancements on the capacity-bounded backdoor config.  One run at paper
scale (99 honest nodes) pins scoring pools of 50 histories and gossip
that relays records over several hops.

Each golden file under ``tests/golden/`` was written by ``sybilsim run``
semantics (``run_simulation`` then ``write_outputs``) on the config built
here.  A restructuring of the engine must reproduce them byte for byte; a
golden file changes only together with a stated reason in CHANGES.md.

Accuracies and attack scores are counts over the test set, so a one-ulp
change in a model rarely reaches ``metrics.csv``.  Each run therefore also
pins a ``.digest`` file with two sha256 digests: ``evaluated`` over the
parameters of every model the engine evaluates (each active honest node's
aggregated model before quantization, and the current model of each offline
or recovering node, in round and id order), and ``final`` over the final
models and then the final histories, in id order.

Regenerate after an intended behaviour change with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sybilsim import engine
from sybilsim.config import (
    AttackConfig,
    DowntimeEntry,
    SimulationConfig,
    TopologyConfig,
    load_config,
)

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "demos" / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def quickstart():
    return load_config(CONFIGS / "quickstart.yaml")


def label_flip():
    """Offline and recovery rounds, Sybils that relay gossip, own adversary epochs."""
    cfg = load_config(CONFIGS / "label_flip_defense.yaml")
    cfg.rounds = 20
    cfg.adversary_epochs = 4
    cfg.downtime = [DowntimeEntry(node=5, start=4, length=3)]
    return cfg.validate()


def backdoor():
    """A 9-record database that keeps evicting, Sybils that relay nothing."""
    cfg = load_config(CONFIGS / "backdoor_enhancements.yaml")
    cfg.rounds = 20
    cfg.gossip.capacity = 9
    cfg.gossip.sybils_gossip = False
    return cfg.validate()


def paper_99():
    """Config defaults (99 honest nodes, sybilwall) at radius 0.2 from
    topology seed 1, label flip at phi = 1."""
    return SimulationConfig(
        seed=1,
        rounds=6,
        topology=TopologyConfig(radius=0.2, seed=1),
        attack=AttackConfig(kind="label_flip", phi=1.0),
    ).validate()


def with_rule(build, rule):
    def config():
        cfg = build()
        cfg.aggregator = rule
        return cfg.validate()

    return config


RUNS = {
    "quickstart": quickstart,
    "label_flip": label_flip,
    "backdoor": backdoor,
    "paper_99": paper_99,
}
RUNS.update(
    (f"label_flip.{rule}", with_rule(label_flip, rule))
    for rule in ("foolsgold", "krum", "multikrum", "median")
)
RUNS.update(
    (f"backdoor.{rule}", with_rule(backdoor, rule))
    for rule in ("sybilwall+median", "sybilwall+wmedian", "sybilwall+krumfilter")
)


def run_golden(name, out_dir):
    """Run one config, write its outputs, and return (metrics.csv, digest text)."""
    evaluated = hashlib.sha256()
    evaluate_accuracy = engine.evaluate_accuracy

    def hashing_evaluate(model, data):
        evaluated.update(model.params.tobytes())
        return evaluate_accuracy(model, data)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "evaluate_accuracy", hashing_evaluate)
        result = engine.run_simulation(RUNS[name]())
    result.write_outputs(out_dir)
    final = hashlib.sha256()
    for vectors in (result.final_models, result.final_histories):
        for i in sorted(vectors):
            final.update(vectors[i].tobytes())
    digest = f"evaluated {evaluated.hexdigest()}\nfinal {final.hexdigest()}\n"
    return (Path(out_dir) / "metrics.csv").read_bytes(), digest


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden_metrics(name, tmp_path):
    metrics, digest = run_golden(name, tmp_path)
    assert metrics == (GOLDEN / f"{name}.metrics.csv").read_bytes()
    evaluated, final = digest.splitlines()
    want_evaluated, want_final = (GOLDEN / f"{name}.digest").read_text().splitlines()
    assert evaluated == want_evaluated
    assert final == want_final


DIGEST_IN_CHILD = """
import sys, tempfile
sys.path[:0] = sys.argv[1:3]
from test_golden import run_golden
with tempfile.TemporaryDirectory() as tmp:
    print(run_golden("label_flip", tmp)[1], end="")
"""


def test_digests_do_not_depend_on_blas_thread_count():
    """Similarity scoring multiplies matrices through numpy's BLAS, which
    may split the work across threads; the models must not depend on how."""
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        child = subprocess.run(
            [sys.executable, "-c", DIGEST_IN_CHILD, str(ROOT / "src"), str(ROOT / "tests")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        digests.append(child.stdout)
    assert digests[0] == digests[1] == (GOLDEN / "label_flip.digest").read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for run in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            metrics, digest = run_golden(run, tmp)
        (GOLDEN / f"{run}.metrics.csv").write_bytes(metrics)
        (GOLDEN / f"{run}.digest").write_text(digest)
        print(f"wrote {GOLDEN / run}.metrics.csv and .digest")
