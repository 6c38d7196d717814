"""Span tracing from outside the simulator.

The traced run replaces the public functions each layer exposes with timing
wrappers, under the name the caller looks up at call time (the engine
imports most of them into its own namespace, so those are wrapped on
``sybilsim.engine``).  Each call records a span ``[name, start, end,
parent]``; spans stay in memory until the run ends.  A span's self time is
its duration minus the durations of its direct children.

Hooks run just before a span opens or just after it closes, and count work
at the same boundaries; their cost lands in the caller's self time and is
part of the reported tracing overhead.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

# span name -> (module, attribute path) as the caller looks it up
TARGETS = {
    "run_simulation": ("sybilsim.engine", "run_simulation"),
    "write_outputs": ("sybilsim.engine", "RunResult.write_outputs"),
    "random_geometric_graph": ("sybilsim.topology", "random_geometric_graph"),
    "cap_degrees": ("sybilsim.topology", "cap_degrees"),
    "plan_ssp_attack": ("sybilsim.topology", "plan_ssp_attack"),
    "attach_sybils": ("sybilsim.topology", "attach_sybils"),
    "synth_blobs": ("sybilsim.engine", "synth_blobs"),
    "dirichlet_partition": ("sybilsim.engine", "dirichlet_partition"),
    "poison_dataset": ("sybilsim.engine", "poison_dataset"),
    "attack_score": ("sybilsim.engine", "attack_score"),
    "train_sgd": ("sybilsim.engine", "train_sgd"),
    "evaluate_accuracy": ("sybilsim.engine", "evaluate_accuracy"),
    "foolsgold_scores": ("sybilsim.aggregation", "foolsgold_scores"),
    "sybilwall_weights": ("sybilsim.engine", "sybilwall_weights"),
    "apply_weights": ("sybilsim.engine", "apply_weights"),
    "fedavg": ("sybilsim.engine", "fedavg"),
    "coordinate_median": ("sybilsim.engine", "coordinate_median"),
    "krum_select": ("sybilsim.engine", "krum_select"),
    "multi_krum": ("sybilsim.engine", "multi_krum"),
    "weighted_average": ("sybilsim.engine", "weighted_average"),
    "filter_db": ("sybilsim.engine", "filter_db"),
    "select_gossip": ("sybilsim.engine", "select_gossip"),
    "compose_message": ("sybilsim.engine", "compose_message"),
    "Signer.sign": ("sybilsim.gossip", "Signer.sign"),
    "Verifier.check": ("sybilsim.gossip", "Verifier.check"),
    "receive_message": ("sybilsim.engine", "receive_message"),
    "update_db": ("sybilsim.gossip", "update_db"),
}

# Spans every workload must record: a layer whose function was renamed or
# bypassed would otherwise read as free.  The other combine rules are not
# reached by the sybilwall family.
REQUIRED_SPANS = tuple(
    name
    for name in TARGETS
    if name not in ("coordinate_median", "krum_select", "multi_krum", "weighted_average")
)

# per-layer metric -> (unit, better, how, spans); how is "total" (summed
# durations), "self" (summed self times) or "calls"
SPAN_METRICS = {
    "topology.generate_s": ("s", "lower", "total", ("random_geometric_graph",)),
    "topology.cap_s": ("s", "lower", "total", ("cap_degrees",)),
    "topology.plan_s": ("s", "lower", "total", ("plan_ssp_attack", "attach_sybils")),
    "data.prepare_s": (
        "s", "lower", "total", ("synth_blobs", "dirichlet_partition", "poison_dataset"),
    ),
    "data.attack_score_s": ("s", "lower", "total", ("attack_score",)),
    "numerics.train_s": ("s", "lower", "total", ("train_sgd",)),
    "numerics.train_calls": ("count", "lower", "calls", ("train_sgd",)),
    "numerics.eval_s": ("s", "lower", "total", ("evaluate_accuracy",)),
    "aggregation.score_s": ("s", "lower", "total", ("foolsgold_scores",)),
    "aggregation.score_calls": ("count", "lower", "calls", ("foolsgold_scores",)),
    "aggregation.weights_s": ("s", "lower", "self", ("sybilwall_weights",)),
    "aggregation.combine_s": (
        "s",
        "lower",
        "total",
        ("apply_weights", "fedavg", "coordinate_median", "krum_select", "multi_krum",
         "weighted_average"),
    ),
    "gossip.select_s": ("s", "lower", "total", ("filter_db", "select_gossip")),
    "gossip.compose_s": ("s", "lower", "self", ("compose_message",)),
    "gossip.sign_s": ("s", "lower", "total", ("Signer.sign",)),
    "gossip.sign_calls": ("count", "lower", "calls", ("Signer.sign",)),
    "gossip.verify_s": ("s", "lower", "total", ("Verifier.check",)),
    "gossip.verify_calls": ("count", "lower", "calls", ("Verifier.check",)),
    "gossip.receive_s": ("s", "lower", "self", ("receive_message",)),
    "gossip.db_update_s": ("s", "lower", "total", ("update_db",)),
    "gossip.messages": ("count", "higher", "calls", ("receive_message",)),
    "engine.self_s": ("s", "lower", "self", ("run_simulation",)),
    "engine.write_s": ("s", "lower", "total", ("write_outputs",)),
}

# per-layer metrics counted by hooks: name -> (unit, better)
COUNTER_METRICS = {
    "topology.cap_removed_edges": ("count", "lower"),
    "numerics.train_sample_epochs": ("count", "lower"),
    "aggregation.score_pairs": ("count", "lower"),
    "gossip.signed_distinct": ("count", "higher"),
    "gossip.relayed_stored": ("count", "higher"),
    "gossip.relayed_ignored": ("count", "lower"),
    "gossip.db_evictions": ("count", "lower"),
}

# ratios, and the tracing overhead the parent adds from the untraced run
DERIVED_METRICS = {
    "gossip.sign_per_distinct": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class TraceTargetMissing(RuntimeError):
    """A function the traced run wraps no longer exists under its name."""


def resolve(module: str, path: str):
    """Return (owner, attribute) for ``module`` + dotted ``path``; raise if absent."""
    try:
        owner = importlib.import_module(module)
        *parents, leaf = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        getattr(owner, leaf)
    except (ImportError, AttributeError) as exc:
        raise TraceTargetMissing(f"cannot wrap {module}.{path}: {exc}") from exc
    return owner, leaf


Hook = Callable[[object, object, tuple, dict], None]


class Tracer:
    """Wraps functions in place; ``close`` puts the originals back."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def wrap(
        self,
        name: str,
        before: Optional[Callable[[tuple, dict], object]] = None,
        after: Optional[Hook] = None,
    ) -> None:
        owner, leaf = resolve(*TARGETS[name])
        original = getattr(owner, leaf)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, state, args, kwargs)
            return result

        setattr(owner, leaf, functools.wraps(original)(traced))
        self._undo.append((owner, leaf, original))

    def close(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0}
        )
        for k, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child[k]
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every span as [name, start, end, parent] to a gzipped JSON file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "names": names,
                    "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                },
                fh,
            )


def layer_metrics(summary: Dict[str, Dict[str, float]], counters: Counter) -> Dict[str, float]:
    """Per-layer values from a span summary and the hook counters."""
    out: Dict[str, float] = {}
    for metric, (_, _, how, names) in SPAN_METRICS.items():
        out[metric] = sum(summary.get(n, {}).get(how, 0) for n in names)
    for metric in COUNTER_METRICS:
        out[metric] = counters[metric]
    out["gossip.sign_per_distinct"] = out["gossip.sign_calls"] / max(
        1, out["gossip.signed_distinct"]
    )
    return out
