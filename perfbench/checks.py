"""Independent checks of the simulator's outputs.

Each checker returns a list of problems, empty when the output is right.
None of them calls the simulator code it checks: they recompute from the
method's definition or test a property the method must have.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

CSV_HEADER = "round,mean_accuracy,mean_attack_score"
WEIGHT_TOL = 1e-9
SGD_RTOL = 1e-9


def check_metrics_csv(text: str, rounds: int) -> List[str]:
    """Header, rows 0..rounds-1 in order, every value a number in [0, 1]."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"metrics.csv header is {lines[:1]!r}, want {CSV_HEADER!r}"]
    rows = lines[1:]
    if len(rows) != rounds:
        return [f"metrics.csv has {len(rows)} rows, want {rounds}"]
    problems = []
    for want, line in enumerate(rows):
        fields = line.split(",")
        if len(fields) != 3 or fields[0] != str(want):
            problems.append(f"metrics.csv row {want + 1} reads {line!r}")
            continue
        for value in fields[1:]:
            try:
                x = float(value)
            except ValueError:
                x = math.nan
            if not 0.0 <= x <= 1.0:
                problems.append(f"metrics.csv round {want}: value {value!r} outside [0, 1]")
    return problems


def check_network(
    edges: Iterable[Tuple[int, int]],
    honest: Iterable[int],
    degree_bound: int,
    phi: float,
) -> List[str]:
    """Degree bound, honest connectivity and the attack-edge spread.

    Every node not in ``honest`` is a Sybil; an attack edge joins an honest
    node to a Sybil.  There must be exactly ceil(n * phi) of them, and the
    per-honest-node counts may differ by at most one.
    """
    edges = [tuple(e) for e in edges]
    honest = set(honest)
    problems = []
    degree: Counter = Counter()
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    over = sorted(n for n, d in degree.items() if d > degree_bound)
    if over:
        problems.append(f"nodes {over[:10]} exceed degree bound {degree_bound}")

    adj: Dict[int, List[int]] = {n: [] for n in honest}
    for a, b in edges:
        if a in honest and b in honest:
            adj[a].append(b)
            adj[b].append(a)
    if honest:
        start = min(honest)
        seen = {start}
        queue = deque([start])
        while queue:
            for m in adj[queue.popleft()]:
                if m not in seen:
                    seen.add(m)
                    queue.append(m)
        if seen != honest:
            problems.append(
                f"honest subgraph is disconnected: {len(honest) - len(seen)} of "
                f"{len(honest)} nodes unreachable from node {start}"
            )

    per_honest: Counter = Counter()
    for a, b in edges:
        if (a in honest) != (b in honest):
            per_honest[a if a in honest else b] += 1
    total = sum(per_honest.values())
    want = math.ceil(len(honest) * phi)
    if total != want:
        problems.append(f"{total} attack edges, want ceil({len(honest)} * {phi}) = {want}")
    counts = [per_honest[n] for n in honest]
    if counts and max(counts) - min(counts) > 1:
        problems.append(
            f"attack edges per honest node range over {min(counts)}..{max(counts)}"
        )
    return problems


def reference_scores(
    histories: Sequence[np.ndarray], kappa: float, logit_eps: float
) -> np.ndarray:
    """Similarity scores from the method's definition, as array operations."""
    h = np.stack([np.asarray(v, dtype=np.float64) for v in histories])
    norms = np.sqrt(np.einsum("ij,ij->i", h, h))
    gram = h @ h.T
    denom = np.outer(norms, norms)
    cos = np.divide(gram, denom, out=np.zeros_like(gram), where=denom != 0.0)
    np.fill_diagonal(cos, 0.0)
    row_max = cos.max(axis=1)
    # pardon: s_ij scaled by max_i / max_j wherever max_i < max_j
    lower = row_max[:, None] < row_max[None, :]
    ratio = np.divide(
        row_max[:, None], row_max[None, :], out=np.ones_like(cos), where=lower
    )
    pardoned = np.where(lower, cos * ratio, cos)
    scores = 1.0 - pardoned.max(axis=1)
    top = scores.max()
    if top <= 0.0:
        return np.zeros(len(histories))
    w = np.clip(scores / top, logit_eps, 1.0 - logit_eps)
    return np.clip(kappa * (np.log(w) - np.log1p(-w) + 0.5), 0.0, 1.0)


def reference_weights(
    own_id: int,
    direct: Sequence[Tuple[int, np.ndarray]],
    indirect: Sequence[Tuple[int, np.ndarray]],
    kappa: float,
    logit_eps: float,
) -> Dict[int, float]:
    """Normalized own + direct weights: score the pool without the own
    history, keep the direct scores, reinsert the own model at
    max(1, largest direct score), normalize.  A lone foreign history gets
    0.5 for want of a baseline."""
    pool = list(direct) + list(indirect)
    if len(pool) == 1:
        raw = {pool[0][0]: 0.5}
    else:
        scores = reference_scores([h for _, h in pool], kappa, logit_eps)
        raw = {node: float(s) for (node, _), s in zip(pool, scores)}
    weights = {node: raw[node] for node, _ in direct}
    weights[own_id] = max(1.0, max(weights.values()))
    total = sum(weights.values())
    return {node: w / total for node, w in weights.items()}


def check_weights(
    own_id: int,
    direct: Sequence[Tuple[int, np.ndarray]],
    indirect: Sequence[Tuple[int, np.ndarray]],
    weights: Dict[int, float],
    kappa: float,
    logit_eps: float,
) -> List[str]:
    """Weights match the reference within 1e-9, and every direct neighbor
    whose history has an identical copy elsewhere in the pool gets 0."""
    want = reference_weights(own_id, direct, indirect, kappa, logit_eps)
    if set(weights) != set(want):
        return [f"weights cover {sorted(weights)}, want {sorted(want)}"]
    problems = []
    worst = max(abs(weights[n] - want[n]) for n in want)
    if worst > WEIGHT_TOL:
        problems.append(f"node {own_id}: weights differ from the reference by {worst:.3g}")
    pool = list(direct) + list(indirect)
    for node, history in direct:
        cloned = any(
            other != node and np.array_equal(history, h) for other, h in pool
        )
        if cloned and weights[node] != 0.0:
            problems.append(
                f"node {own_id} gives weight {weights[node]:.3g} to node {node}, "
                "whose history has an identical clone in the pool"
            )
    return problems


def reference_sgd(
    params: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    learning_rate: float,
    epochs: int,
    batch_size: int,
    seed: int,
) -> np.ndarray:
    """Softmax regression by mini-batch SGD on mean cross-entropy.

    Parameters are the row-major (classes x dim) weight matrix followed by
    the biases.  Each epoch visits the samples in the order of one
    ``permutation`` draw from ``numpy.random.default_rng(seed)``.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    n, dim = x.shape
    w = params[: n_classes * dim].reshape(n_classes, dim).copy()
    b = params[n_classes * dim :].copy()
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = x[idx], y[idx]
            z = xb @ w.T + b
            e = np.exp(z - z.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            p[np.arange(len(idx)), yb] -= 1.0
            p /= len(idx)
            w -= learning_rate * (p.T @ xb)
            b -= learning_rate * p.sum(axis=0)
    return np.concatenate([w.ravel(), b])


def check_sgd(
    params: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    learning_rate: float,
    epochs: int,
    batch_size: int,
    seed: int,
    trained: np.ndarray,
) -> List[str]:
    """``trained`` matches the reference SGD within 1e-9 relative."""
    want = reference_sgd(
        params, features, labels, n_classes, learning_rate, epochs, batch_size, seed
    )
    if trained.shape != want.shape:
        return [f"trained model has shape {trained.shape}, want {want.shape}"]
    err = float(np.max(np.abs(trained - want)))
    scale = max(float(np.max(np.abs(want))), 1e-300)
    if err > SGD_RTOL * scale:
        return [f"SGD result differs from the reference by {err / scale:.3g} relative"]
    return []


def check_inference(trained_trace: dict, inferred_trace: list) -> List[str]:
    """Every model a receiver inferred equals the sender's trained model
    for that round, bit for bit."""
    if not inferred_trace:
        return ["the traced run inferred no models"]
    bad = [
        (receiver, sender, rnd)
        for receiver, sender, rnd, vec in inferred_trace
        if vec.tobytes() != trained_trace[(sender, rnd)].tobytes()
    ]
    if bad:
        return [f"{len(bad)} of {len(inferred_trace)} inferred models differ, first {bad[0]}"]
    return []
