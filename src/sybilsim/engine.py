"""Synchronous round engine: receive, aggregate, train, gossip, repeat.

Messages composed in round T are delivered at T+1, losslessly unless a
downtime schedule takes a node offline or a message fails verification.
A round runs in five phases, each a pass over the nodes in id order:
receive and aggregate, evaluate, train, copy the designated Sybil's model
to the other Sybils, and compose and deliver.  Honest nodes are evaluated
in ascending id order, which fixes the float sums behind each round's
means.  All randomness is drawn from streams derived only from (run seed,
node id, round, purpose), so a run is fully determined by its config.

Trained models are rounded to multiples of 2^-30 before entering a
history.  On that grid every history sum and difference is exact in IEEE
double precision, which makes remote model reconstruction bit-identical
to the sender's record; the rounding is about 1e-9 per coordinate, far
below any learning-rate step.
"""

from __future__ import annotations

import json
import math
import os
import struct
import subprocess
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .aggregation import (
    ContributionSet,
    apply_weights,
    coordinate_median,
    fedavg,
    foolsgold_scores,
    krum_select,
    multi_krum,
    sybilwall_weights,
    weighted_average,
)
from .config import ConfigError, SimulationConfig, named
from .data import (
    Backdoor,
    LabeledDataset,
    LabelFlip,
    PartitionSpec,
    UndefinedScore,
    attack_score,
    attack_segment,
    corner_block_pattern,
    dirichlet_partition,
    load_idx,
    poison_dataset,
    synth_blobs,
)
from .gossip import (
    GossipPool,
    HistoryDB,
    MessageRejected,
    RoundMessage,
    SignedHistory,
    Signer,
    Verifier,
    compose_message,
    filter_db,
    get_scheme,
    receive_message,
    select_gossip,
)
from .numerics import (
    Architecture,
    Model,
    NumericFailure,
    TrainConfig,
    evaluate_accuracy,
    init_model,
    train_sgd,
)
from .topology import (
    CappingFailure,
    GenerationFailure,
    SSPPlan,
    Topology,
    build_attack_network,
)

HISTORY_GRID = 2.0 ** 30

# seed-stream domains
_INIT, _TRAIN, _GOSSIP, _PARTITION, _DATA = 0, 1, 2, 3, 4

CSV_HEADER = "round,mean_accuracy,mean_attack_score"


def _quantize(vec: np.ndarray) -> np.ndarray:
    return np.round(vec * HISTORY_GRID) / HISTORY_GRID


def _stream(seed: int, domain: int, a: int = 0, b: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, domain, a, b]))


def _train_seed(seed: int, domain: int, a: int, b: int) -> int:
    return int(
        np.random.SeedSequence([seed, domain, a, b]).generate_state(1, np.uint64)[0]
    )


def _fmt(x: float) -> str:
    return f"{x:.12g}"  # NaN prints as "nan"


@dataclass
class RoundMetrics:
    """Per-round summary over honest nodes, measured right after aggregation."""

    round: int
    mean_accuracy: float
    mean_attack_score: float
    degenerate_nodes: int = 0

    def csv_line(self) -> str:
        return f"{self.round},{_fmt(self.mean_accuracy)},{_fmt(self.mean_attack_score)}"


@dataclass
class RunResult:
    metrics: List[RoundMetrics]
    config: SimulationConfig
    topology: Topology
    plan: Optional[SSPPlan]
    final_models: Dict[int, np.ndarray]
    final_histories: Dict[int, np.ndarray]
    activity: Dict[int, Dict[int, str]]
    message_counts: List[int] = field(default_factory=list)  # composed per round
    rejected_counts: List[int] = field(default_factory=list)  # dropped on receipt
    trained_trace: Optional[Dict[Tuple[int, int], np.ndarray]] = None
    inferred_trace: Optional[List[Tuple[int, int, int, np.ndarray]]] = None

    def metrics_csv(self) -> str:
        lines = [CSV_HEADER] + [m.csv_line() for m in self.metrics]
        return "\n".join(lines) + "\n"

    def manifest(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "seed": self.config.seed,
            "package_version": __version__,
            "git_describe": _git_describe(),
            "sybil_count": len(self.topology.sybils),
            "scenario": None if self.plan is None else self.plan.scenario,
        }

    def write_outputs(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
            fh.write(self.metrics_csv())
        manifest = self.manifest()  # before the file opens: no empty manifest
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


@dataclass
class _NodeState:
    """One node, honest or Sybil, and the role it plays in every round."""

    id: int
    model: np.ndarray
    history: np.ndarray
    db: HistoryDB
    prev_known: Dict[int, SignedHistory]  # last accepted block per sender
    dataset: LabeledDataset
    signer: Signer
    neighbors: Sequence[int]
    rule: str  # aggregation rule
    epochs: int  # local training epochs
    relays: bool  # whether its messages carry a gossiped record


def _build_datasets(cfg: SimulationConfig) -> Tuple[LabeledDataset, LabeledDataset]:
    d = cfg.data
    if d.kind == "blobs":
        # one draw for both splits so they share the same class means;
        # synth_blobs lays samples out class by class
        block = d.per_class + d.test_per_class
        full = synth_blobs(
            classes=d.classes,
            per_class=block,
            dim=d.dim,
            spread=d.spread,
            seed=_train_seed(cfg.seed, _DATA, 0, 0),
        )
        train_idx, test_idx = [], []
        for c in range(d.classes):
            start = c * block
            train_idx.extend(range(start, start + d.per_class))
            test_idx.extend(range(start + d.per_class, start + block))
        return full.subset(train_idx), full.subset(test_idx)
    with named("data", ValueError):  # a malformed file; the message names it
        train = load_idx(d.images_path, d.labels_path)
        test = load_idx(d.test_images_path, d.test_labels_path)
    # each IDX pair takes its class count from its own labels; the model and
    # the attack are built from the training pair's
    for path, pair in (("labels_path", train), ("test_labels_path", test)):
        if len(pair) == 0:
            raise ConfigError(f"data.{path}: the IDX pair holds no samples")
    if train.dim == 0:
        raise ConfigError("data.images_path: the IDX images have no pixels")
    if train.n_classes < 2:
        raise ConfigError("data.labels_path: every label is 0, but training needs 2 classes")
    for path, what, got, want in (
        ("test_labels_path", "classes", test.n_classes, train.n_classes),
        ("test_images_path", "pixels per image", test.dim, train.dim),
    ):
        if got != want:
            raise ConfigError(
                f"data.{path}: {got} {what}, but the training files have {want}"
            )
    return train, test


def _build_attack_spec(cfg: SimulationConfig, train_set: LabeledDataset):
    a = cfg.attack
    if a is None:
        return None
    # idx data fixes its class count only once the files are loaded
    for name in ("source", "target") if a.kind == "label_flip" else ("target",):
        if getattr(a, name) >= train_set.n_classes:
            raise ConfigError(
                f"attack.{name}: class out of range for the "
                f"{train_set.n_classes} classes loaded"
            )
    if a.kind == "label_flip":
        return LabelFlip(a.source, a.target)
    if cfg.data.kind == "idx":
        rows, cols = train_set.image_shape
        if a.pattern_size > min(rows, cols):
            raise ConfigError(
                f"attack.pattern_size: a {a.pattern_size}x{a.pattern_size} trigger "
                f"does not fit {rows}x{cols} images"
            )
        pattern = corner_block_pattern(cols, size=a.pattern_size, value=a.pattern_value)
    else:  # validate keeps the trigger within data.dim
        pattern = tuple((i, a.pattern_value) for i in range(a.pattern_size))
    return Backdoor(pattern, a.target)


def _adversary_draw(
    train_set: LabeledDataset, spec, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Pick the adversary's sample indices from the global training pool.

    For label flips, half the draw rounded up comes from the two swapped
    classes, or all of them if they hold fewer samples; the remainder (and
    the whole draw for backdoors) is uniform over what is left.
    """
    n = len(train_set)
    chosen = np.empty(0, dtype=np.intp)
    if isinstance(spec, LabelFlip):
        segment = np.flatnonzero(
            (train_set.labels == spec.t1) | (train_set.labels == spec.t2)
        )
        want = min(len(segment), size - size // 2)
        if want > 0:
            chosen = np.sort(rng.choice(segment, size=want, replace=False))
    keep = np.ones(n, dtype=bool)
    keep[chosen] = False
    rest = np.flatnonzero(keep)
    fill = min(len(rest), size - len(chosen))
    if fill > 0:
        extra = rng.choice(rest, size=fill, replace=False)
        chosen = np.sort(np.concatenate([chosen, extra]))
    return chosen


def _receive_all(
    state: _NodeState,
    inbox: List[RoundMessage],
    verifier: Verifier,
) -> Tuple[Dict[int, Tuple[np.ndarray, np.ndarray]], int]:
    """Process a full inbox in sender order.

    Returns, for each sender whose trained model could be inferred, that
    model and the history it arrived with, and the number of messages
    rejected.  A rejected message is dropped whole: the sender's record and
    last known block stay as they were."""
    received: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    rejected = 0
    for msg in sorted(inbox, key=lambda m: m.own.origin):
        sender = msg.own.origin
        try:
            res = receive_message(
                msg, state.db, state.prev_known.get(sender), verifier, self_id=state.id
            )
        except MessageRejected:
            rejected += 1
            continue
        if res.trained_model is not None:
            received[sender] = (res.trained_model, msg.own.history)
        state.prev_known[sender] = msg.own
    return received, rejected


def _aggregate(
    kappa: float,
    state: _NodeState,
    received: Dict[int, Tuple[np.ndarray, np.ndarray]],
    pool: GossipPool,
    sizes: Dict[int, int],
) -> Tuple[np.ndarray, bool]:
    """One node's aggregation under its rule.

    ``received`` holds each direct neighbor's inferred model and history;
    the node's gossip ``pool`` only adds the sybilwall family's indirect
    histories, those of origins it inferred no model from.  With no neighbor
    model available yet (bootstrap rounds, isolation) every rule degrades to
    keeping the own model.  Returns (vector, degenerate flag) where the flag
    marks a similarity score computed without a baseline (single foreign
    history)."""
    if not received:
        return state.model.copy(), False
    own = (state.id, state.model, state.history)
    direct = tuple((j, *received[j]) for j in sorted(received))
    everyone = (own,) + direct
    name = state.rule
    models = [m for _, m, _ in everyone]
    if name == "fedavg":
        counts = [max(1, sizes[i]) for i, _, _ in everyone]
        return fedavg(list(zip(models, counts))), False
    if name == "median":
        return coordinate_median(models), False
    if name in ("krum", "multikrum"):
        # Krum tolerates f Byzantine inputs among n when n >= 2f + 3
        n = len(models)
        if n < 3:
            return np.stack(models).mean(axis=0), False
        f = (n - 3) // 2
        if name == "krum":
            return krum_select(models, f), False
        return multi_krum(models, f, math.ceil(n / 2)), False
    if name == "foolsgold":
        scores = foolsgold_scores([(i, h) for i, _, h in everyone], kappa=kappa)
        total = sum(scores.values())
        if total <= 0:
            return state.model.copy(), False
        return weighted_average(models, [scores[i] / total for i, _, _ in everyone]), False
    # the sybilwall family
    enhancement = name.partition("+")[2] or None
    indirect = tuple(
        (r.block.origin, r.block.history) for r in pool.records if r.block.origin not in received
    )
    c = ContributionSet(own=own, direct=direct, indirect=indirect)
    weights, degenerate = sybilwall_weights(c, kappa=kappa)
    return apply_weights(c, weights, enhancement), degenerate


def _compose_outbox(
    state: _NodeState, pool: GossipPool, rnd: int, lam: float, seed: int
) -> Dict[int, RoundMessage]:
    rng = _stream(seed, _GOSSIP, state.id, rnd)
    own = state.signer.sign(state.history, rnd)
    state.history = own.history  # the block's read-only copy; the engine only rebinds it
    picks = [None] * len(state.neighbors)
    if state.relays:
        picks = select_gossip(pool, state.neighbors, lam, rng)
    return {j: compose_message(own, pick) for j, pick in zip(state.neighbors, picks)}


def build_network(cfg: SimulationConfig) -> Tuple[Optional[SSPPlan], Topology]:
    """The attack plan (None without an attack) and the full network of a run.

    The graph comes from ``topology.seed`` when set, else from the run seed.
    A radius too small for a connected graph, or a degree bound that capping
    cannot reach, is a ``ConfigError`` naming the setting.
    """
    phi = cfg.attack.phi if cfg.attack is not None else None
    topo_seed = cfg.topology.seed if cfg.topology.seed is not None else cfg.seed
    with named("topology.radius", GenerationFailure), named("degree_bound", CappingFailure):
        _, plan, full_g = build_attack_network(
            cfg.honest_nodes, cfg.topology.radius, cfg.degree_bound, phi, topo_seed
        )
    return plan, full_g


def run_simulation(
    cfg: SimulationConfig, workers: int = 1, trace: bool = False
) -> RunResult:
    """Execute a full configured run.

    Each round makes five passes over the nodes in id order on the calling
    thread: receive and aggregate (a node back from downtime only receives);
    evaluate every honest node in ascending id order, before any training;
    train each start model; copy the designated Sybil's model and history
    to the other Sybils; compose and deliver.  ``workers`` has no effect; it
    stays so that existing callers keep working.
    """
    cfg.validate()
    seed = cfg.seed
    plan, full_g = build_network(cfg)
    train_set, test_set = _build_datasets(cfg)
    arch = Architecture(input_dim=train_set.dim, n_classes=train_set.n_classes)
    spec = _build_attack_spec(cfg, train_set)
    with named("data.test_labels_path", UndefinedScore):  # a label flip on idx test labels
        segment = None if spec is None else attack_segment(test_set, spec)

    parts = dirichlet_partition(
        train_set,
        PartitionSpec(
            cfg.honest_nodes, cfg.data.alpha, _train_seed(seed, _PARTITION, 0, 0)
        ),
    )
    poisoned = None
    if spec is not None:
        # The adversary owns an average-node-sized sample of the training
        # distribution, drawn independently of the honest partition so that
        # attack strength does not swing with one Dirichlet share.  A
        # label-flip attacker curates half of it from the two swapped
        # classes: that is where its poison has to out-vote honest data.
        adv_rng = _stream(seed, _PARTITION, 0, 1)
        adv_size = max(1, round(len(train_set) / cfg.honest_nodes))
        picked = _adversary_draw(train_set, spec, adv_size, adv_rng)
        poisoned = poison_dataset(train_set.subset(picked), spec)

    scheme = get_scheme(cfg.gossip.scheme)
    all_ids = sorted(full_g.nodes)
    keypairs = {
        i: scheme.keypair(struct.pack("<qq", seed, i)) for i in all_ids
    }
    verifier = Verifier(scheme, {i: keypairs[i][1] for i in all_ids})

    init = init_model(arch, _train_seed(seed, _INIT, 0, 0))
    adjacency = full_g.adjacency()
    dim = init.params.size

    def fresh_state(i, dataset, rule, epochs, relays) -> _NodeState:
        return _NodeState(
            id=i,
            model=init.params.copy(),
            history=np.zeros(dim),
            db=HistoryDB(capacity=cfg.gossip.capacity),
            prev_known={},
            dataset=dataset,
            signer=Signer(scheme, i, keypairs[i][0]),
            neighbors=adjacency[i],
            rule=rule,
            epochs=epochs,
            relays=relays,
        )

    # The adversary runs the honest loop with FedAvg on poisoned data: one
    # designated Sybil aggregates what it received and trains, and every
    # other Sybil sends copies of that model's history.
    honest_ids = sorted(full_g.honest)
    sybil_ids = sorted(full_g.sybils)
    designated = sybil_ids[0] if sybil_ids else None
    trainers = set(honest_ids + sybil_ids[:1])
    adversary_epochs = cfg.adversary_epochs or cfg.train.local_epochs  # None when unset
    nodes = {
        i: fresh_state(i, parts[i], cfg.aggregator, cfg.train.local_epochs, True)
        for i in honest_ids
    }
    for s in sybil_ids:
        nodes[s] = fresh_state(
            s, poisoned, "fedavg", adversary_epochs, cfg.gossip.sybils_gossip
        )
    sizes = {i: len(state.dataset) for i, state in nodes.items()}

    offline: Dict[int, set] = {i: set() for i in all_ids}
    for entry in cfg.downtime:
        offline[entry.node].update(range(entry.start, entry.start + entry.length))

    activity: Dict[int, Dict[int, str]] = {i: {} for i in honest_ids}
    trained_trace: Dict[Tuple[int, int], np.ndarray] = {}
    inferred_trace: List[Tuple[int, int, int, np.ndarray]] = []

    inboxes: Dict[int, List[RoundMessage]] = {i: [] for i in all_ids}
    metrics: List[RoundMetrics] = []
    message_counts: List[int] = []
    rejected_counts: List[int] = []

    def at_node(i: int):  # a node's numeric failure names the node and the round
        return named(f"node {i} round {rnd}", NumericFailure, as_=NumericFailure)

    for rnd in range(cfg.rounds):
        up = [i for i in all_ids if rnd not in offline[i]]
        active = [i for i in up if rnd - 1 not in offline[i]]

        # receive and aggregate: one pass keeps one node's inferred models alive;
        # only receipt changes a database, so its pool also serves the relays
        starts: Dict[int, Model] = {}
        pools: Dict[int, GossipPool] = {}
        rejected = degenerates = composed = 0
        for i in up:
            state = nodes[i]
            received, dropped = _receive_all(state, inboxes[i], verifier)
            pools[i] = filter_db(state.db, i)
            rejected += dropped
            if trace:
                for sender, (vec, _) in sorted(received.items()):
                    trained_in = state.prev_known[sender].round
                    inferred_trace.append((i, sender, trained_in, vec.copy()))
            # in its recovery round a node only collects; other Sybils copy
            if i not in trainers or rnd - 1 in offline[i]:
                continue
            with at_node(i):
                aggregated, degenerate = _aggregate(
                    cfg.rule_params.kappa, state, received, pools[i], sizes
                )
            starts[i] = Model(aggregated, arch)
            if i in full_g.honest:
                degenerates += degenerate

        # evaluate before any training, in id order: the means sum in that order
        accuracies, atks = [], []
        for i in honest_ids:
            if i in starts:
                activity[i][rnd], model = "active", starts[i]
            else:
                activity[i][rnd] = "offline" if rnd in offline[i] else "recovery"
                model = Model(nodes[i].model, arch)
            accuracies.append(evaluate_accuracy(model, test_set))
            if segment is not None:
                atks.append(attack_score(model, segment))

        for i, start in starts.items():
            state = nodes[i]
            trained = start.params
            with at_node(i):
                if len(state.dataset) > 0:
                    tcfg = TrainConfig(
                        learning_rate=cfg.train.learning_rate,
                        local_epochs=state.epochs,
                        batch_size=cfg.train.batch_size,
                        seed=_train_seed(seed, _TRAIN, i, rnd),
                    )
                    trained = train_sgd(start, state.dataset, tcfg).params
                state.model = _quantize(trained)
                if not np.all(np.isfinite(state.model)):
                    raise NumericFailure("trained model overflows the history grid")
            state.history = state.history + state.model

        for s in sybil_ids[1:]:
            nodes[s].model = nodes[designated].model
            nodes[s].history = nodes[designated].history

        # every inbox was read above; refill them for the next round
        inboxes = {i: [] for i in all_ids}
        for i in active:
            state = nodes[i]
            if trace:
                trained_trace[(i, rnd)] = state.model.copy()
            with at_node(i):
                outbox = _compose_outbox(state, pools[i], rnd, cfg.gossip.lam, seed)
            composed += len(outbox)
            # deliver for next round, dropping mail to offline nodes
            for j, msg in outbox.items():
                if rnd + 1 not in offline[j]:
                    inboxes[j].append(msg)
        message_counts.append(composed)
        rejected_counts.append(rejected)
        atk = float(np.mean(atks)) if atks else float("nan")
        metrics.append(RoundMetrics(rnd, float(np.mean(accuracies)), atk, degenerates))

    final_models = {i: nodes[i].model.copy() for i in honest_ids}
    final_histories = {i: nodes[i].history.copy() for i in honest_ids}
    return RunResult(
        metrics=metrics,
        config=cfg,
        topology=full_g,
        plan=plan,
        final_models=final_models,
        final_histories=final_histories,
        activity=activity,
        message_counts=message_counts,
        rejected_counts=rejected_counts,
        trained_trace=trained_trace if trace else None,
        inferred_trace=inferred_trace if trace else None,
    )
