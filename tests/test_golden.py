"""Behaviour pin: short runs must reproduce their committed metrics.csv.

Every aggregation rule is pinned: FedAvg by the quickstart, the plain
rules and SybilWall on the label-flip config, and the three SybilWall
enhancements on the capacity-bounded backdoor config.

Each golden file under ``tests/golden/`` was written by ``sybilsim run``
semantics (``run_simulation`` then ``write_outputs``) on the config built
here.  A restructuring of the engine must reproduce them byte for byte; a
golden file changes only together with a stated reason in CHANGES.md.

Regenerate after an intended behaviour change with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from pathlib import Path

import pytest

from sybilsim.config import DowntimeEntry, load_config
from sybilsim.engine import run_simulation

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


def with_rule(build, rule):
    def config():
        cfg = build()
        cfg.aggregator = rule
        return cfg.validate()

    return config


RUNS = {"quickstart": quickstart, "label_flip": label_flip, "backdoor": backdoor}
RUNS.update(
    (f"label_flip.{rule}", with_rule(label_flip, rule))
    for rule in ("foolsgold", "krum", "multikrum", "median")
)
RUNS.update(
    (f"backdoor.{rule}", with_rule(backdoor, rule))
    for rule in ("sybilwall+median", "sybilwall+wmedian", "sybilwall+krumfilter")
)


def write_metrics(name, out_dir):
    run_simulation(RUNS[name]()).write_outputs(out_dir)
    return Path(out_dir) / "metrics.csv"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden_metrics(name, tmp_path):
    produced = write_metrics(name, tmp_path).read_bytes()
    expected = (GOLDEN / f"{name}.metrics.csv").read_bytes()
    assert produced == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for run in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            data = write_metrics(run, tmp).read_bytes()
        (GOLDEN / f"{run}.metrics.csv").write_bytes(data)
        print(f"wrote {GOLDEN / run}.metrics.csv")
