"""Experiment runner: single runs, parameter sweeps, topology inspection.

Exit codes: 0 success, 2 configuration problem, 3 runtime failure.
The output directory is ``--out-dir``, else the environment variable
SYBILSIM_OUT_DIR, else ``runs``; every other knob comes from the config file.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from typing import List, Optional

from .config import AGGREGATORS, ConfigError, SimulationConfig, load_config
from .engine import CSV_HEADER, _fmt, build_network, run_simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

SWEEP_AXES = ("phi", "alpha", "aggregator")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sybilsim",
        description="Simulate decentralized learning under Sybil poisoning.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML config file")
    common.add_argument("--seed", type=int, default=None, help="override the run seed")
    common.add_argument("--out-dir", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[common], help="execute one simulation")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser(
        "sweep", parents=[common], help="run one config across an axis of values"
    )
    sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep.add_argument(
        "--values",
        required=True,
        help="comma-separated values for the axis, e.g. 0.5,1,2",
    )
    sweep.set_defaults(func=cmd_sweep)

    topo = sub.add_parser(
        "topology", parents=[common], help="generate and inspect the network"
    )
    topo.set_defaults(func=cmd_topology)

    val = sub.add_parser("validate", parents=[common], help="check a config file")
    val.set_defaults(func=cmd_validate)
    return parser


def _resolve(args) -> tuple:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.validate()
    return cfg, args.out_dir or os.environ.get("SYBILSIM_OUT_DIR") or "runs"


def cmd_run(args) -> int:
    cfg, out_dir = _resolve(args)
    result = run_simulation(cfg)
    result.write_outputs(out_dir)
    last = result.metrics[-1]
    print(
        f"{cfg.aggregator}: {len(result.metrics)} rounds, "
        f"final accuracy {_fmt(last.mean_accuracy)}, "
        f"final attack score {_fmt(last.mean_attack_score)}"
    )
    print(f"wrote {os.path.join(out_dir, 'metrics.csv')}")
    return EXIT_OK


def _parse_values(axis: str, raw: str) -> List:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("values: must list at least one value")
    if axis == "aggregator":
        for p in parts:
            if p not in AGGREGATORS:
                raise ConfigError(
                    f"values: {p!r} is not one of {', '.join(AGGREGATORS)}"
                )
        values = parts
    else:
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"values: {axis} values must be numbers") from None
    # each value names its run directory, so a repeat would overwrite it
    if len(set(values)) < len(values):
        raise ConfigError(f"values: {axis} lists a value twice")
    return values


def _with_axis(cfg: SimulationConfig, axis: str, value) -> SimulationConfig:
    variant = copy.deepcopy(cfg)
    if axis == "phi":
        if variant.attack is None:
            raise ConfigError("attack: a phi sweep needs an attack section")
        variant.attack.phi = value
    elif axis == "alpha":
        variant.data.alpha = value
    else:
        variant.aggregator = value
    return variant.validate()


def cmd_sweep(args) -> int:
    cfg, out_dir = _resolve(args)
    values = _parse_values(args.axis, args.values)
    variants = [(v, _with_axis(cfg, args.axis, v)) for v in values]
    summary = ["axis,value," + ",".join("final_" + c for c in CSV_HEADER.split(","))]
    for value, variant in variants:
        run_dir = os.path.join(out_dir, f"{args.axis}-{value}")
        result = run_simulation(variant)
        result.write_outputs(run_dir)
        last = result.metrics[-1]
        summary.append(f"{args.axis},{value},{last.csv_line()}")
        print(
            f"{args.axis}={value}: final accuracy {_fmt(last.mean_accuracy)}, "
            f"attack score {_fmt(last.mean_attack_score)}"
        )
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        fh.write("\n".join(summary) + "\n")
    print(f"wrote {summary_path}")
    return EXIT_OK


def cmd_topology(args) -> int:
    cfg, out_dir = _resolve(args)
    plan, full_g = build_network(cfg)
    os.makedirs(out_dir, exist_ok=True)
    topo_path = os.path.join(out_dir, "topology.json")
    with open(topo_path, "w") as fh:
        json.dump(full_g.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"{len(full_g.honest)} honest nodes, {len(full_g.sybils)} sybils, "
        f"{len(full_g.edges)} edges"
    )
    if plan is not None:
        plan_path = os.path.join(out_dir, "attack_plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"scenario: {plan.scenario} (phi={plan.phi})")
        print(f"wrote {topo_path} and {plan_path}")
    else:
        print(f"wrote {topo_path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg, _ = _resolve(args)
    print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    print("config ok")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # anything past validation is a runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
