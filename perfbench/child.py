"""One simulation in a fresh process; prints one JSON object on stdout.

    python3 perfbench/child.py MODE WORKLOAD SEED OUT_DIR

MODE is ``full`` (run, write outputs, time it), ``setup`` (stop at the
first per-round call and report the set-up time) or ``traced`` (a full run
with every layer wrapped, plus the independent output checks).  The
parent, ``run.py``, starts one child per sample so that no two runs share
a memory high-water mark or warm state.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from sybilsim.aggregation import LOGIT_EPS  # noqa: E402

# The first per-round call every node makes; in round 0 the inbox is empty
# and aggregation keeps the own model, so its first call marks the start of
# round 0 to within microseconds.
MARKER = ("sybilsim.engine", "evaluate_accuracy")
SAMPLE_EVERY = 100  # keep every 100th scored aggregation and SGD call
CLONE_SAMPLES = 16
TAMPER_SAMPLES = 4


class SetupDone(Exception):
    """Raised by the marker in ``setup`` mode to stop the run at round 0."""


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _outputs(result, out_dir: str, rounds: int) -> dict:
    with open(os.path.join(out_dir, "metrics.csv"), "rb") as fh:
        raw = fh.read()
    topo = result.topology
    cfg = result.config
    problems = checks.check_metrics_csv(raw.decode(), rounds)
    problems += checks.check_network(
        topo.edges, topo.honest, cfg.degree_bound, cfg.attack.phi
    )
    return {
        "csv_sha256": hashlib.sha256(raw).hexdigest(),
        # every message composed before the last round is delivered
        "messages": int(sum(result.message_counts[:-1])),
        "problems": problems,
    }


def run_timed(cfg, out_dir: str, stop_at_setup: bool) -> dict:
    import sybilsim.engine as engine

    owner, leaf = spans.resolve(*MARKER)
    original = getattr(owner, leaf)
    marks = []

    def marker(*args, **kwargs):
        marks.append(perf_counter())
        setattr(owner, leaf, original)
        if stop_at_setup:
            raise SetupDone
        return original(*args, **kwargs)

    setattr(owner, leaf, marker)
    try:
        t0 = perf_counter()
        try:
            result = engine.run_simulation(cfg, workers=1)
        except SetupDone:
            return {"setup_s": marks[0] - t0}
        result.write_outputs(out_dir)
        t1 = perf_counter()
    finally:
        setattr(owner, leaf, original)
    if not marks:
        raise RuntimeError(f"{MARKER[0]}.{MARKER[1]} was never called")
    run_s = t1 - t0
    setup_s = marks[0] - t0
    out = {
        "run_s": run_s,
        "setup_s": setup_s,
        "round_s": (run_s - setup_s) / cfg.rounds,
        "peak_rss_mb": _peak_rss_mb(),
    }
    out.update(_outputs(result, out_dir, cfg.rounds))
    return out


class _Recorder:
    """Hooks of the traced run: counters and samples for the checks."""

    def __init__(self, tracer: spans.Tracer):
        self.c = tracer.counters
        self.sybils = frozenset()
        self.signed = set()
        self.weight_calls = 0
        self.weight_samples = []
        self.clone_seen = 0
        self.clone_samples = []
        self.sgd_calls = 0
        self.sgd_samples = []
        self.received = 0
        self.messages = []
        self.verifier = None

    def cap(self, result, _, args, kwargs):
        self.c["topology.cap_removed_edges"] += len(args[0].edges) - len(result.edges)

    def attach(self, result, _, args, kwargs):
        self.sybils = result.sybils

    def train(self, result, _, args, kwargs):
        model, data, cfg = args
        self.c["numerics.train_sample_epochs"] += len(data) * cfg.local_epochs
        if self.sgd_calls % SAMPLE_EVERY == 0:
            self.sgd_samples.append((model.params.copy(), data, cfg, result.params.copy()))
        self.sgd_calls += 1

    def pairs(self, result, _, args, kwargs):
        n = len(args[0])
        self.c["aggregation.score_pairs"] += n * (n - 1) // 2

    def weights(self, result, _, args, kwargs):
        c = args[0]
        sample = (c, kwargs.get("kappa", 1.0), kwargs.get("logit_eps", LOGIT_EPS), result[0])
        if self.weight_calls % SAMPLE_EVERY == 0:
            self.weight_samples.append(sample)
        self.weight_calls += 1
        # calls where a Sybil is a direct neighbor and another Sybil is in
        # the pool; the clone check later makes that one an identical copy
        pool = [i for i, _, _ in c.direct] + [i for i, _ in c.indirect]
        if len(self.sybils.intersection(pool)) < 2 or not any(
            i in self.sybils for i, _, _ in c.direct
        ):
            return
        if self.clone_seen % 7 == 0 and len(self.clone_samples) < CLONE_SAMPLES:
            self.clone_samples.append(sample)
        self.clone_seen += 1

    def sign(self, result, _, args, kwargs):
        self.signed.add((args[0].node_id, args[2]))

    def receive(self, result, _, args, kwargs):
        relayed = result.db_changes["gossip"]
        if relayed in ("inserted", "updated"):
            self.c["gossip.relayed_stored"] += 1
        elif relayed == "ignored":
            self.c["gossip.relayed_ignored"] += 1
        if self.verifier is None:
            self.verifier = args[3]
        if self.received % 1000 == 0 and len(self.messages) < TAMPER_SAMPLES:
            self.messages.append(args[0])
        self.received += 1

    @staticmethod
    def db_size(args, kwargs):
        return len(args[0].records)

    def update(self, result, size_before, args, kwargs):
        if result == "inserted" and len(args[0].records) == size_before:
            self.c["gossip.db_evictions"] += 1


def _tamper_problems(messages, verifier) -> list:
    """A message whose history changed after signing must fail verification."""
    if not messages:
        return ["no message was sampled for the tamper check"]
    from sybilsim.gossip import SignedHistory

    problems = []
    for msg in messages:
        block = msg.own
        if not verifier.check(block):
            problems.append(f"untouched block from node {block.origin} fails verification")
        altered = block.history.copy()
        altered[len(altered) // 2] = np.nextafter(altered[len(altered) // 2], np.inf)
        forged = SignedHistory(altered, block.origin, block.round, block.signature)
        if verifier.check(forged):
            problems.append(
                f"node {block.origin} round {block.round}: altered history still verifies"
            )
    return problems


def _weight_problems(c, weights, kappa, eps) -> list:
    return checks.check_weights(
        c.own[0], [(i, h) for i, _, h in c.direct], c.indirect, weights, kappa, eps
    )


def _clone_problems(samples, sybils) -> list:
    """Give every other Sybil in a sampled pool the exact history of a
    direct Sybil neighbor and rescore with the program: the checks then
    require weight 0 for every clone."""
    from sybilsim.aggregation import ContributionSet, sybilwall_weights

    problems = []
    for c, kappa, eps, _ in samples:
        history = next(h for i, _, h in c.direct if i in sybils)
        cloned = ContributionSet(
            c.own,
            tuple((i, m, history if i in sybils else h) for i, m, h in c.direct),
            tuple((i, history if i in sybils else h) for i, h in c.indirect),
        )
        weights, _ = sybilwall_weights(cloned, kappa=kappa, logit_eps=eps)
        problems += _weight_problems(cloned, weights, kappa, eps)
    return problems


def run_traced(workload, cfg, out_dir: str, spans_path: str) -> dict:
    import sybilsim.engine as engine

    tracer = spans.Tracer()
    rec = _Recorder(tracer)
    hooks = {
        "cap_degrees": (None, rec.cap),
        "attach_sybils": (None, rec.attach),
        "train_sgd": (None, rec.train),
        "foolsgold_scores": (None, rec.pairs),
        "sybilwall_weights": (None, rec.weights),
        "Signer.sign": (None, rec.sign),
        "receive_message": (None, rec.receive),
        "update_db": (rec.db_size, rec.update),
    }
    try:
        for name in spans.TARGETS:
            before, after = hooks.get(name, (None, None))
            tracer.wrap(name, before, after)
        t0 = perf_counter()
        result = engine.run_simulation(cfg, workers=1, trace=True)
        result.write_outputs(out_dir)
        t1 = perf_counter()
    finally:
        tracer.close()
    peak = _peak_rss_mb()

    summary = tracer.summary()
    tracer.counters["gossip.signed_distinct"] = len(rec.signed)
    layers = spans.layer_metrics(summary, tracer.counters)
    out = _outputs(result, out_dir, cfg.rounds)
    problems = out["problems"]
    missing = [n for n in spans.REQUIRED_SPANS if summary.get(n, {}).get("calls", 0) == 0]
    if missing:
        problems.append(f"wrapped functions never called: {missing}")
    if layers["topology.cap_removed_edges"] <= 0:
        problems.append("cap_degrees removed no edge")
    if workload.expects_evictions and layers["gossip.db_evictions"] <= 0:
        problems.append("update_db evicted no record")
    if layers["gossip.messages"] != out["messages"]:
        problems.append(
            f"{layers['gossip.messages']} messages received, {out['messages']} delivered"
        )
    problems += checks.check_inference(result.trained_trace, result.inferred_trace)
    if not rec.weight_samples:
        problems.append("no sybilwall_weights call was sampled")
    if not rec.clone_samples:
        problems.append("no sybilwall_weights call had two Sybils in its pool")
    for c, kappa, eps, weights in rec.weight_samples:
        problems += _weight_problems(c, weights, kappa, eps)
    problems += _clone_problems(rec.clone_samples, rec.sybils)
    if not rec.sgd_samples:
        problems.append("no train_sgd call was sampled")
    for params, data, tcfg, trained in rec.sgd_samples:
        problems += checks.check_sgd(
            params,
            data.features,
            data.labels,
            data.n_classes,
            tcfg.learning_rate,
            tcfg.local_epochs,
            tcfg.batch_size,
            tcfg.seed,
            trained,
        )
    problems += _tamper_problems(rec.messages, rec.verifier)

    tracer.dump(spans_path)
    out.update(
        run_s=t1 - t0,
        peak_rss_mb=peak,
        spans=len(tracer.spans),
        spans_file=os.path.relpath(spans_path, ROOT),
        checked={
            "weights": len(rec.weight_samples) + len(rec.clone_samples),
            "clone_weights": len(rec.clone_samples),
            "sgd": len(rec.sgd_samples),
            "inferred": len(result.inferred_trace),
            "tampered": len(rec.messages),
        },
        layers=layers,
    )
    return out


def main(argv) -> int:
    mode, name, seed, out_dir = argv
    workload = WORKLOADS[name]
    cfg = workload.config(int(seed))
    os.makedirs(out_dir, exist_ok=True)
    if mode == "traced":
        out = run_traced(workload, cfg, out_dir, os.path.join(out_dir, "spans.json.gz"))
    else:
        out = run_timed(cfg, out_dir, stop_at_setup=(mode == "setup"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
