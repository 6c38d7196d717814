"""Benchmark of the sybilsim simulator: end-to-end and per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

With ``--trace 0`` the workload is run end to end, each run in a fresh
process with nothing wrapped but a marker at the first per-round call, for
about ``--seconds`` seconds of whole cycles (one full run plus a few
set-up-only runs).  It reports the medians of ``run_s``, ``setup_s``,
``round_s`` and ``peak_rss_mb``.  With ``--trace 1`` it makes one untraced
and one traced run and reports the per-layer numbers of the traced one,
with the difference between the two as the tracing overhead.  ``--all``
does both for every workload and prints a table.

Every run's outputs are checked (see ``checks.py``); the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record with the samples, the machine and the commit goes
to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# every run of the benchmark must end within this many seconds
DEADLINE_S = 170.0
# one worker and no extra threads: numpy's BLAS would otherwise start one
# thread per core
CHILD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "round_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def machine() -> dict:
    import cryptography
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "commit": commit,
    }


def per_layer_units() -> dict:
    units = {m: spec[0] for m, spec in spans.SPAN_METRICS.items()}
    units.update({m: spec[0] for m, spec in spans.COUNTER_METRICS.items()})
    units.update({m: spec[0] for m, spec in spans.DERIVED_METRICS.items()})
    return units


class ChildRunner:
    """Starts child processes one at a time against a common deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = perf_counter()
        self.runs = os.path.join(OUT, "runs", f"{workload}-seed{seed}")
        shutil.rmtree(self.runs, ignore_errors=True)
        self.count = 0

    def elapsed(self) -> float:
        return perf_counter() - self.started

    def child(self, mode: str) -> dict:
        out_dir = os.path.join(self.runs, f"{self.count:03d}-{mode}")
        self.count += 1
        left = DEADLINE_S - self.elapsed()
        if left <= 0:
            raise BenchError(f"no time left for a {mode} run of {self.workload}")
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, mode, self.workload, str(self.seed), out_dir],
                cwd=ROOT,
                env=CHILD_ENV,
                capture_output=True,
                text=True,
                timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} run of {self.workload} passed the deadline") from None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"error": " | ".join(tail) or f"exit code {proc.returncode}"}
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _tally(runs: list) -> tuple:
    """(attempted, failed, problems) over full runs; a run that raised
    counts every message of a complete run as failed."""
    done = [r for r in runs if "error" not in r]
    problems = [p for r in done for p in r["problems"]]
    problems += [f"run raised: {r['error']}" for r in runs if "error" in r]
    if not done:
        raise BenchError("no run completed: " + "; ".join(problems))
    per_run = done[0]["messages"]
    failed = per_run * (len(runs) - len(done))
    attempted = sum(r["messages"] for r in done) + failed
    if len({r["csv_sha256"] for r in done}) != 1:
        problems.append("runs of the same workload wrote different metrics.csv")
    return attempted, failed, problems


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end numbers: whole cycles of one full run and some set-up runs."""
    runner = ChildRunner(workload, seed)
    repeats = WORKLOADS[workload].setup_repeats
    fulls, setups = [], []
    while True:
        cycle_start = runner.elapsed()
        full = runner.child("full")
        fulls.append(full)
        if "error" not in full:
            setups.append(full["setup_s"])
        for _ in range(repeats):
            setup = runner.child("setup")
            if "error" in setup:
                raise BenchError(f"set-up run raised: {setup['error']}")
            setups.append(setup["setup_s"])
        cycle = runner.elapsed() - cycle_start
        if runner.elapsed() + cycle > seconds:
            break
    attempted, failed, problems = _tally(fulls)
    done = [r for r in fulls if "error" not in r]
    values = {
        "run_s": statistics.median(r["run_s"] for r in done),
        "setup_s": statistics.median(setups),
        "round_s": statistics.median(r["round_s"] for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": END_TO_END[m]} for m, v in values.items()},
        "problems": problems,
        "samples": {
            "full": fulls,
            "setup_s": setups,
        },
    }


def trace(workload: str, seed: int) -> dict:
    """Per-layer numbers from one traced run, overhead against an untraced one."""
    runner = ChildRunner(workload, seed)
    plain = runner.child("full")
    traced = runner.child("traced")
    attempted, failed, problems = _tally([plain, traced])
    if "error" in plain or "error" in traced:
        raise BenchError("; ".join(problems))
    layers = traced.pop("layers")
    units = per_layer_units()
    layers["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    layers["trace.overhead_pct"] = 100.0 * layers["trace.overhead_s"] / plain["run_s"]
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in layers.items()},
        "problems": problems,
        "samples": {"untraced": plain, "traced": traced},
    }


def record(workload: str, seed: int, seconds: float, tracing: bool, result: dict) -> str:
    path = os.path.join(
        OUT, "results", f"{workload}-seed{seed}-trace{int(tracing)}.json"
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "seconds": seconds,
                "trace": int(tracing),
                "machine": machine(),
                **result,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")
    return path


def run_one(workload: str, seed: int, seconds: float, tracing: bool) -> dict:
    result = trace(workload, seed) if tracing else measure(workload, seed, seconds)
    path = record(workload, seed, seconds, tracing, result)
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"record: {os.path.relpath(path, ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sybilsim", "__init__.py")):
        print(f"error: no simulator source under {ROOT}/src", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.workload is not None:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            keys = ("correct", "attempted", "failed", "metrics")
            print(json.dumps({k: result[k] for k in keys}))
            return 0
        for name in WORKLOADS:
            for tracing in (False, True):
                result = run_one(name, args.seed, args.seconds, tracing)
                print(f"{name} trace={int(tracing)} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                for metric, entry in result["metrics"].items():
                    print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
