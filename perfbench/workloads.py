"""The benchmark's workloads: frozen simulator configs built from a seed.

``--seed`` becomes the run seed, which draws the data, the partition, the
initial model, the keys, the training batches and the gossip choices.  The
network is built from topology seed 1 on every workload, so the graph (and
with it the per-round message count) is the same for every seed, and with
``--seed 1`` each workload is exactly the config it was copied from.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict

TOPOLOGY_SEED = 1

# demos/configs/label_flip_defense.yaml at the commit that added this
# benchmark, copied so that editing a demo cannot change a workload.
LABEL_FLIP_DEFENSE = {
    "seed": 1,
    "rounds": 150,
    "aggregator": "sybilwall",
    "honest_nodes": 16,
    "degree_bound": 8,
    "topology": {"radius": 0.7},
    "data": {
        "kind": "blobs",
        "classes": 10,
        "per_class": 40,
        "test_per_class": 25,
        "dim": 64,
        "spread": 0.12,
        "alpha": 0.1,
    },
    "train": {"learning_rate": 0.05, "local_epochs": 10, "batch_size": 8},
    "attack": {"kind": "label_flip", "phi": 1.0, "source": 1, "target": 2},
    "gossip": {"lam": 0.8},
    "rule_params": {"kappa": 8.0},
}

# demos/configs/backdoor_enhancements.yaml, copied the same way, with the
# Krum filter and real ed25519 signatures.
BACKDOOR_ED25519_CAP9 = {
    **LABEL_FLIP_DEFENSE,
    "aggregator": "sybilwall+krumfilter",
    "attack": {
        "kind": "backdoor",
        "phi": 1.0,
        "target": 2,
        "pattern_size": 3,
        "pattern_value": 1.0,
    },
    "gossip": {"lam": 0.8, "capacity": 9, "scheme": "ed25519"},
}

# The config defaults (99 honest nodes, degree bound 8, sybilwall, blake2,
# unbounded database) with a label flip at phi = 1.  Radius 0.2 instead of
# the default 0.4: after capping both give 112 nodes of degree <= 7, but at
# 0.4 cap_degrees alone takes about 430 s.
PAPER_99_ROUNDS = 20
PAPER_99 = {
    "seed": 1,
    "rounds": PAPER_99_ROUNDS,
    "topology": {"radius": 0.2},
    "attack": {"kind": "label_flip", "phi": 1.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict
    # setup-only processes per timed full run, so setup_s has several samples
    setup_repeats: int
    # the traced run must see update_db evict records
    expects_evictions: bool = False

    def config_dict(self, seed: int) -> dict:
        raw = copy.deepcopy(self.base)
        raw["seed"] = seed
        raw["topology"]["seed"] = TOPOLOGY_SEED
        return raw

    def config(self, seed: int):
        from sybilsim.config import config_from_dict

        return config_from_dict(self.config_dict(seed))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("labelflip-16", LABEL_FLIP_DEFENSE, setup_repeats=2),
        Workload("paper-99", PAPER_99, setup_repeats=1),
        Workload(
            "backdoor-ed25519-cap9",
            BACKDOOR_ED25519_CAP9,
            setup_repeats=2,
            expects_evictions=True,
        ),
    )
}
