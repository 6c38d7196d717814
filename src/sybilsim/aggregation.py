"""Aggregation rules for decentralized rounds.

Covers the plain weighted average, similarity-scored averaging with a
pardoning step, distance-based selection (Krum and its multi-model and
filtering variants), coordinate-wise medians, and the trust-own-model
variant used as the main defense.  Score vectors are plain dicts keyed by
node id; weights stay in [0, 1] until a caller normalizes them.

All functions are pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

LOGIT_EPS = 1e-5
# A best raw score this close to zero is rounding in the cosines, not a
# direction: exact clones score 1 - cos with cos a few ulps from 1.
SCORE_FLOOR = 64 * np.finfo(np.float64).eps


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("parameter vectors must be 1-D")
    return arr


@dataclass(frozen=True)
class ContributionSet:
    """Everything one node brings to a single aggregation.

    ``own`` and each ``direct`` entry carry (node id, model, history);
    ``indirect`` entries carry (node id, history) and take part in the
    similarity scoring only, never in the final average.
    """

    own: Tuple[int, np.ndarray, np.ndarray]
    direct: Tuple[Tuple[int, np.ndarray, np.ndarray], ...]
    indirect: Tuple[Tuple[int, np.ndarray], ...] = ()

    def __post_init__(self):
        own = (int(self.own[0]), _as_vector(self.own[1]), _as_vector(self.own[2]))
        direct = tuple(
            (int(i), _as_vector(m), _as_vector(h)) for i, m, h in self.direct
        )
        indirect = tuple((int(i), _as_vector(h)) for i, h in self.indirect)
        dim = own[1].size
        vectors = [own[1], own[2]]
        vectors += [v for _, m, h in direct for v in (m, h)]
        vectors += [h for _, h in indirect]
        if any(v.size != dim for v in vectors):
            raise ValueError("all vectors in a contribution set must share one length")
        ids = [own[0]] + [i for i, _, _ in direct] + [i for i, _ in indirect]
        if len(ids) != len(set(ids)):
            raise ValueError("node ids must be distinct across own/direct/indirect")
        object.__setattr__(self, "own", own)
        object.__setattr__(self, "direct", direct)
        object.__setattr__(self, "indirect", indirect)


def fedavg(models: Sequence[Tuple[np.ndarray, int]]) -> np.ndarray:
    """Average models weighted by their sample counts."""
    if not models:
        raise ValueError("fedavg needs at least one model")
    vectors = [_as_vector(m) for m, _ in models]
    counts = np.array([c for _, c in models], dtype=np.float64)
    if np.any(counts <= 0):
        raise ValueError("sample counts must be positive")
    dim = vectors[0].size
    if any(v.size != dim for v in vectors):
        raise ValueError("model length mismatch")
    weights = counts / counts.sum()
    return np.einsum("i,ij->j", weights, np.stack(vectors))


def foolsgold_scores(
    histories: Sequence[Tuple[int, np.ndarray]],
    kappa: float = 1.0,
    logit_eps: float = LOGIT_EPS,
) -> Dict[int, float]:
    """Score histories so near-duplicates end up near zero.

    Pipeline: pairwise cosine similarity from one Gram matrix, H @ H.T
    divided by the outer product of the row norms, with self-similarity
    fixed at zero and every pair whose either history has norm zero (no
    direction) fixed at zero; one pardoning pass scaling s_ij by the ratio
    of pre-pardon row maxima whenever row i's maximum is smaller than row
    j's; complement of the row maximum; rescale so the best score is 1, or
    score every history 0 when the best is within ``SCORE_FLOOR`` of zero;
    then a bounded logit w -> clip(kappa * (ln(w / (1 - w)) + 0.5), 0, 1)
    with inputs clipped to [logit_eps, 1 - logit_eps].
    """
    if len(histories) < 2:
        raise ValueError("need at least two histories for a similarity baseline")
    ids = [int(i) for i, _ in histories]
    if len(ids) != len(set(ids)):
        raise ValueError("duplicate node ids in histories")
    vectors = [_as_vector(h) for _, h in histories]
    if any(v.size != vectors[0].size for v in vectors):
        raise ValueError("histories must share one length")
    stacked = np.array(vectors)
    norms = np.linalg.norm(stacked, axis=1)
    directed = norms != 0.0
    sim = np.divide(
        stacked @ stacked.T,
        np.outer(norms, norms),
        out=np.zeros((len(vectors), len(vectors))),
        where=directed[:, None] & directed[None, :],
    )
    np.fill_diagonal(sim, 0.0)
    row_max = sim.max(axis=1)
    max_i, max_j = row_max[:, None], row_max[None, :]
    pardoned = np.divide(sim * max_i, max_j, out=sim.copy(), where=max_i < max_j)
    scores = 1.0 - pardoned.max(axis=1)
    top = scores.max()
    if top <= SCORE_FLOOR:
        return {node: 0.0 for node in ids}
    scores = scores / top
    scores = np.clip(scores, logit_eps, 1.0 - logit_eps)
    scores = kappa * (np.log(scores / (1.0 - scores)) + 0.5)
    scores = np.clip(scores, 0.0, 1.0)
    return dict(zip(ids, scores.tolist()))


def krum_score(models: Sequence[np.ndarray], f: int) -> List[float]:
    """Sum of squared distances to the n - f - 2 nearest other models."""
    vectors = [_as_vector(m) for m in models]
    n = len(vectors)
    if f < 0:
        raise ValueError("f must be >= 0")
    if n < f + 3:
        raise ValueError(f"krum needs at least f + 3 = {f + 3} models, got {n}")
    stacked = np.stack(vectors)
    diff = stacked[:, None, :] - stacked[None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    keep = n - f - 2
    scores = []
    for i in range(n):
        others = np.sort(np.delete(d2[i], i))
        scores.append(float(others[:keep].sum()))
    return scores


def krum_select(models: Sequence[np.ndarray], f: int) -> np.ndarray:
    """The single model with the lowest score; ties go to the lowest index."""
    scores = krum_score(models, f)
    best = int(np.argmin(scores))
    return _as_vector(models[best]).copy()


def multi_krum(models: Sequence[np.ndarray], f: int, m: int) -> np.ndarray:
    """Unweighted mean of the m lowest-scoring models; ties by input index."""
    scores = krum_score(models, f)
    if not 1 <= m <= len(models):
        raise ValueError(f"m must lie in [1, {len(models)}]")
    order = np.argsort(scores, kind="stable")[:m]
    return np.stack([_as_vector(models[i]) for i in order]).mean(axis=0)


def coordinate_median(models: Sequence[np.ndarray]) -> np.ndarray:
    """Per-coordinate median; an even count takes the mean of the two middles."""
    if not models:
        raise ValueError("median needs at least one model")
    vectors = [_as_vector(m) for m in models]
    dim = vectors[0].size
    if any(v.size != dim for v in vectors):
        raise ValueError("model length mismatch")
    return np.median(np.stack(vectors), axis=0)


def sybilwall_weights(
    c: ContributionSet,
    kappa: float = 1.0,
    logit_eps: float = LOGIT_EPS,
) -> Tuple[Dict[int, float], bool]:
    """Normalized aggregation weights over own + direct models.

    Scores direct and indirect histories together, excluding the
    aggregator's own, keeps only direct neighbors' weights, and reinserts
    the own model at the maximum retained weight with a floor of 1.0.
    Returns the normalized weights and a flag that is True when only a
    single foreign history existed, in which case that neighbor is given a
    raw weight of 0.5 because there is no similarity baseline.
    """
    if not c.direct:
        raise ValueError("need at least one direct neighbor to aggregate")
    pool = [(i, h) for i, _, h in c.direct] + list(c.indirect)
    degenerate = len(pool) == 1
    if degenerate:
        scores = {pool[0][0]: 0.5}
    else:
        scores = foolsgold_scores(pool, kappa=kappa, logit_eps=logit_eps)
    weights = {i: scores[i] for i, _, _ in c.direct}
    weights[c.own[0]] = max(1.0, max(weights.values()))
    total = sum(weights.values())
    return {i: w / total for i, w in weights.items()}, degenerate


def weighted_average(c: ContributionSet, weights: Dict[int, float]) -> np.ndarray:
    """Convex combination of the own and direct models under ``weights``."""
    _check_weight_cover(c, weights)
    out = weights[c.own[0]] * c.own[1]
    for i, model, _ in c.direct:
        out = out + weights[i] * model
    return out


def _check_weight_cover(c: ContributionSet, weights: Dict[int, float]) -> None:
    needed = {c.own[0]} | {i for i, _, _ in c.direct}
    if not needed <= set(weights):
        missing = sorted(needed - set(weights))
        raise ValueError(f"weights missing for nodes {missing}")


def enhance_median(c: ContributionSet, weights: Dict[int, float]) -> np.ndarray:
    """Coordinate-wise median of the ceil(k/2) highest-weighted models."""
    _check_weight_cover(c, weights)
    entries = [(c.own[0], c.own[1])] + [(i, m) for i, m, _ in c.direct]
    keep = math.ceil(len(entries) / 2)
    entries.sort(key=lambda e: (-weights[e[0]], e[0]))
    return coordinate_median([m for _, m in entries[:keep]])


def enhance_weighted_median(c: ContributionSet, weights: Dict[int, float]) -> np.ndarray:
    """Per coordinate, the smallest value whose cumulative weight reaches half."""
    _check_weight_cover(c, weights)
    entries = [(c.own[0], c.own[1])] + [(i, m) for i, m, _ in c.direct]
    stacked = np.stack([m for _, m in entries])
    w = np.array([weights[i] for i, _ in entries], dtype=np.float64)
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    order = np.argsort(stacked, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(stacked, order, axis=0)
    sorted_w = np.cumsum(w[order], axis=0)
    threshold = total / 2.0 - 1e-12 * total
    first = np.argmax(sorted_w >= threshold, axis=0)
    return np.take_along_axis(sorted_vals, first[None, :], axis=0)[0]


def enhance_krum_filter(
    c: ContributionSet, weights: Dict[int, float], f: int = 1
) -> np.ndarray:
    """Weighted average with the model Krum ranks last zeroed out.

    Krum's distance sum grows with eccentricity, so the largest sum marks
    the entry farthest from every group of agreeing models; that is where
    a poisoned contribution sits once the honest nodes have converged.
    Fewer than f + 3 models leaves the weights untouched.
    """
    _check_weight_cover(c, weights)
    entries = [(c.own[0], c.own[1])] + [(i, m) for i, m, _ in c.direct]
    filtered = dict(weights)
    if len(entries) >= f + 3:
        scores = krum_score([m for _, m in entries], f)
        filtered[entries[int(np.argmax(scores))][0]] = 0.0
    total = sum(filtered[i] for i, _ in entries)
    if total <= 0:
        return c.own[1].copy()
    normalized = {i: filtered[i] / total for i, _ in entries}
    return weighted_average(c, normalized)


def apply_weights(
    c: ContributionSet, weights: Dict[int, float], enhancement: Optional[str] = None
) -> np.ndarray:
    """Combine the own and direct models under ``weights``.

    ``enhancement`` picks the combination step: None for the plain weighted
    average, or one of "median", "wmedian", "krumfilter".
    """
    if enhancement is None:
        return weighted_average(c, weights)
    if enhancement == "median":
        return enhance_median(c, weights)
    if enhancement == "wmedian":
        return enhance_weighted_median(c, weights)
    if enhancement == "krumfilter":
        return enhance_krum_filter(c, weights)
    raise ValueError(f"unknown enhancement {enhancement!r}")
