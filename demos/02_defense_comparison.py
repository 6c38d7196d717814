"""Aggregation rules head to head under a label-flip Sybil attack.

Runs the same attacked network once per rule and prints final accuracy
next to the attack score (accuracy on the flipped evaluation segment, so
lower means the poison took less).  Uses a shortened round count to stay
interactive; pass --rounds 150 for the full picture.

    python3 demos/02_defense_comparison.py [--rounds N] [--seed S]
"""

import argparse
import dataclasses
import os

from sybilsim.config import load_config
from sybilsim.engine import run_simulation

HERE = os.path.dirname(os.path.abspath(__file__))
RULES = ["fedavg", "median", "krum", "foolsgold", "sybilwall"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    base = load_config(os.path.join(HERE, "configs", "label_flip_defense.yaml"))
    base.rounds = args.rounds
    base.seed = args.seed
    print(f"label flip {base.attack.source}->{base.attack.target}, "
          f"phi={base.attack.phi}, {args.rounds} rounds, seed {args.seed}\n")

    print(f"{'rule':<12} {'accuracy':>8} {'attack':>8}")
    for rule in RULES:
        last = run_simulation(dataclasses.replace(base, aggregator=rule)).metrics[-1]
        print(f"{rule:<12} {last.mean_accuracy:8.3f} {last.mean_attack_score:8.3f}")

    print("\nlower attack score = less poison absorbed; the similarity-")
    print("scoring defense should hold accuracy while crushing the attack.")


if __name__ == "__main__":
    main()
