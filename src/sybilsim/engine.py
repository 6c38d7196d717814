"""Synchronous round engine: receive, aggregate, train, gossip, repeat.

Messages composed in round T are delivered at T+1, losslessly unless a
downtime schedule takes a node offline or a message fails verification.
Nodes step one at a time in id order, honest nodes first.  All randomness
is drawn from streams derived only from (run seed, node id, round,
purpose), so a run is fully determined by its config.

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
from .config import ConfigError, SimulationConfig
from .data import (
    Backdoor,
    LabeledDataset,
    LabelFlip,
    PartitionSpec,
    attack_score,
    corner_block_pattern,
    dirichlet_partition,
    load_idx,
    poison_dataset,
    synth_blobs,
)
from .gossip import (
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
from .topology import SSPPlan, Topology, build_attack_network

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
    direct_counts: Optional[Dict[Tuple[int, int], int]] = None

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
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)
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
    except OSError:
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
    train = load_idx(d.images_path, d.labels_path)
    test = load_idx(d.test_images_path, d.test_labels_path)
    # each IDX pair takes its class count from its own labels; the model and
    # the attack are built from the training pair's
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
    dim = train_set.dim
    if cfg.data.kind == "idx":
        width = int(round(math.sqrt(dim)))
        pattern = corner_block_pattern(width, size=a.pattern_size, value=a.pattern_value)
    else:
        pattern = tuple(
            (i, a.pattern_value) for i in range(min(a.pattern_size, dim))
        )
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
            received[sender] = (res.trained_model, res.block.history)
        state.prev_known[sender] = res.block
    return received, rejected


def _aggregate(
    kappa: float,
    state: _NodeState,
    received: Dict[int, Tuple[np.ndarray, np.ndarray]],
    sizes: Dict[int, int],
) -> Tuple[np.ndarray, bool]:
    """One node's aggregation under its rule.

    ``received`` holds each direct neighbor's inferred model and history;
    the gossip database only adds the sybilwall family's indirect pool.
    With no neighbor model available yet (bootstrap rounds, isolation) every
    rule degrades to keeping the own model.  Returns (vector, degenerate
    flag) where the flag marks a similarity score computed without a
    baseline (single foreign history)."""
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
        weights = {i: s / total for i, s in scores.items()}
        return weighted_average(ContributionSet(own=own, direct=direct), weights), False
    # the sybilwall family
    enhancement = name.partition("+")[2] or None
    indirect = tuple(
        (p, rec.block.history)
        for p, rec in sorted(state.db.records.items())
        if p != state.id and p not in received
    )
    c = ContributionSet(own=own, direct=direct, indirect=indirect)
    weights, degenerate = sybilwall_weights(c, kappa=kappa)
    return apply_weights(c, weights, enhancement), degenerate


def _compose_outbox(
    state: _NodeState, rnd: int, lam: float, seed: int
) -> Dict[int, RoundMessage]:
    rng = _stream(seed, _GOSSIP, state.id, rnd)
    own = SignedHistory(
        state.history, state.id, rnd, state.signer.sign(state.history, rnd)
    )
    outbox = {}
    for j in state.neighbors:
        selected = None
        if state.relays:
            selected = select_gossip(filter_db(state.db, state.id, j), lam, rng)
        outbox[j] = compose_message(own, selected)
    return outbox


def _evaluate(
    model: Model, test_set: LabeledDataset, spec
) -> Tuple[float, Optional[float]]:
    """Test accuracy and, under an attack, the attack score of one model."""
    accuracy = evaluate_accuracy(model, test_set)
    return accuracy, attack_score(model, test_set, spec) if spec is not None else None


def build_network(cfg: SimulationConfig) -> Tuple[Optional[SSPPlan], Topology]:
    """The attack plan (None without an attack) and the full network of a run.

    The graph comes from ``topology.seed`` when set, else from the run seed.
    """
    phi = cfg.attack.phi if cfg.attack is not None else None
    topo_seed = cfg.topology.seed if cfg.topology.seed is not None else cfg.seed
    _, plan, full_g = build_attack_network(
        cfg.honest_nodes, cfg.topology.radius, cfg.degree_bound, phi, topo_seed
    )
    return plan, full_g


def run_simulation(
    cfg: SimulationConfig, workers: int = 1, trace: bool = False
) -> RunResult:
    """Execute a full configured run.

    Nodes step one after another in id order on the calling thread.
    ``workers`` has no effect; it stays so that existing callers keep
    working.
    """
    cfg.validate()
    seed = cfg.seed
    plan, full_g = build_network(cfg)
    train_set, test_set = _build_datasets(cfg)
    arch = Architecture(input_dim=train_set.dim, n_classes=train_set.n_classes)
    spec = _build_attack_spec(cfg, train_set)

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
    adversary_epochs = (
        cfg.adversary_epochs
        if cfg.adversary_epochs is not None
        else cfg.train.local_epochs
    )
    nodes = {
        i: fresh_state(i, parts[i], cfg.aggregator, cfg.train.local_epochs, True)
        for i in honest_ids
    }
    sizes = {i: len(parts[i]) for i in honest_ids}
    for s in sybil_ids:
        nodes[s] = fresh_state(
            s, poisoned, "fedavg", adversary_epochs, cfg.gossip.sybils_gossip
        )
        sizes[s] = len(poisoned)

    offline: Dict[int, set] = {i: set() for i in all_ids}
    for entry in cfg.downtime:
        offline[entry.node].update(range(entry.start, entry.start + entry.length))

    activity: Dict[int, Dict[int, str]] = {i: {} for i in honest_ids}
    trained_trace: Dict[Tuple[int, int], np.ndarray] = {}
    inferred_trace: List[Tuple[int, int, int, np.ndarray]] = []
    direct_counts: Dict[Tuple[int, int], int] = {}

    def train(state: _NodeState, start: Model, rnd: int) -> None:
        """Train from ``start`` on the node's data and extend its history."""
        trained = start.params
        if len(state.dataset) > 0:
            tcfg = TrainConfig(
                learning_rate=cfg.train.learning_rate,
                local_epochs=state.epochs,
                batch_size=cfg.train.batch_size,
                seed=_train_seed(seed, _TRAIN, state.id, rnd),
            )
            try:
                trained = train_sgd(start, state.dataset, tcfg).params
            except NumericFailure as exc:
                raise NumericFailure(f"node {state.id} round {rnd}: {exc}") from exc
        state.model = _quantize(trained)
        if not np.all(np.isfinite(state.model)):
            raise NumericFailure(
                f"node {state.id} round {rnd}: trained model overflows the history grid"
            )
        state.history = state.history + state.model

    inboxes: Dict[int, List[RoundMessage]] = {i: [] for i in all_ids}
    metrics: List[RoundMetrics] = []
    message_counts: List[int] = []
    rejected_counts: List[int] = []

    for rnd in range(cfg.rounds):
        next_inboxes: Dict[int, List[RoundMessage]] = {i: [] for i in all_ids}
        scores: List[Tuple[float, Optional[float]]] = []
        composed = rejected = degenerates = 0
        for i in all_ids:
            state = nodes[i]
            honest = i in full_g.honest
            if rnd in offline[i]:
                activity[i][rnd] = "offline"
                scores.append(_evaluate(Model(state.model, arch), test_set, spec))
                continue
            received, dropped = _receive_all(state, inboxes[i], verifier)
            rejected += dropped
            if trace:
                for sender, (vec, _) in sorted(received.items()):
                    trained_in = state.prev_known[sender].round
                    inferred_trace.append((i, sender, trained_in, vec.copy()))
            if rnd - 1 in offline[i]:
                # recovery round: collect only, resume fully next round
                activity[i][rnd] = "recovery"
                scores.append(_evaluate(Model(state.model, arch), test_set, spec))
                continue
            if honest or i == designated:
                aggregated, degenerate = _aggregate(
                    cfg.rule_params.kappa, state, received, sizes
                )
                start = Model(aggregated, arch)
                if honest:
                    activity[i][rnd] = "active"
                    scores.append(_evaluate(start, test_set, spec))
                    degenerates += degenerate
                    if trace:
                        direct_counts[(i, rnd)] = len(received)
                train(state, start, rnd)
            else:
                state.model = nodes[designated].model
                state.history = nodes[designated].history
            if trace:
                trained_trace[(i, rnd)] = state.model.copy()
            outbox = _compose_outbox(state, rnd, cfg.gossip.lam, seed)
            composed += len(outbox)
            # deliver for next round, dropping mail to offline nodes
            for j, msg in outbox.items():
                if rnd + 1 not in offline[j]:
                    next_inboxes[j].append(msg)
        inboxes = next_inboxes
        message_counts.append(composed)
        rejected_counts.append(rejected)

        atks = [atk for _, atk in scores if atk is not None]
        metrics.append(
            RoundMetrics(
                round=rnd,
                mean_accuracy=float(np.mean([acc for acc, _ in scores])),
                mean_attack_score=float(np.mean(atks)) if atks else float("nan"),
                degenerate_nodes=degenerates,
            )
        )

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
        direct_counts=direct_counts if trace else None,
    )
