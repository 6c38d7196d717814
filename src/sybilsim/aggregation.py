"""Aggregation rules for decentralized rounds.

Covers the plain weighted average, similarity-scored averaging with a
pardoning step, distance-based selection (Krum and its multi-model and
filtering variants), coordinate-wise medians, and the trust-own-model
variant used as the main defense.  Scores and weights are plain dicts keyed
by node id, in [0, 1] until a caller normalizes them; the one combine step,
``weighted_average``, takes models and weights as aligned sequences.
Every rule checks its vectors in one place, ``_vectors``: each must be 1-D
and all must share one length.

All functions are pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .numerics import NumericFailure

LOGIT_EPS = 1e-5
# A best raw score this close to zero is rounding in the cosines, not a
# direction: exact clones score 1 - cos with cos a few ulps from 1.
SCORE_FLOOR = 64 * np.finfo(np.float64).eps

# the combine steps ``apply_weights`` offers after SybilWall's weighting
ENHANCEMENTS = ("median", "wmedian", "krumfilter")
AGGREGATORS = ("fedavg", "foolsgold", "krum", "multikrum", "median", "sybilwall",
               *(f"sybilwall+{e}" for e in ENHANCEMENTS))


def _vectors(vs) -> List[np.ndarray]:
    """Each of ``vs`` as a float64 array, checked to be 1-D and of one length."""
    out = [np.asarray(v, dtype=np.float64) for v in vs]
    if any(v.ndim != 1 for v in out):
        raise ValueError("parameter vectors must be 1-D")
    if len({v.size for v in out}) > 1:
        raise ValueError("parameter vectors must share one length")
    return out


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
        vectors = iter(_vectors([
            self.own[1], self.own[2], *(v for _, m, h in self.direct for v in (m, h)),
            *(h for _, h in self.indirect),
        ]))
        own = (int(self.own[0]), next(vectors), next(vectors))
        direct = tuple((int(i), next(vectors), next(vectors)) for i, _, _ in self.direct)
        indirect = tuple((int(i), next(vectors)) for i, _ in self.indirect)
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
    vectors = _vectors(m for m, _ in models)
    counts = np.array([c for _, c in models], dtype=np.float64)
    if np.any(counts <= 0):
        raise ValueError("sample counts must be positive")
    return weighted_average(vectors, counts / counts.sum())


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
    with inputs clipped to [logit_eps, 1 - logit_eps].  A history whose
    norm overflows has no usable cosine, so it raises ``NumericFailure``.
    """
    if len(histories) < 2:
        raise ValueError("need at least two histories for a similarity baseline")
    ids = [int(i) for i, _ in histories]
    if len(ids) != len(set(ids)):
        raise ValueError("duplicate node ids in histories")
    stacked = np.array(_vectors(h for _, h in histories))
    norms = np.linalg.norm(stacked, axis=1)
    if not np.all(np.isfinite(norms)):
        raise NumericFailure("history norms overflow, so cosines cannot be scored")
    directed = norms != 0.0
    sim = np.divide(
        stacked @ stacked.T,
        np.outer(norms, norms),
        out=np.zeros((len(ids), len(ids))),
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


def _krum(models: Sequence[np.ndarray], f: int) -> Tuple[np.ndarray, np.ndarray]:
    """The models stacked as rows, and each row's Krum score."""
    vectors = _vectors(models)
    n = len(vectors)
    if f < 0:
        raise ValueError("f must be >= 0")
    if n < f + 3:
        raise ValueError(f"krum needs at least f + 3 = {f + 3} models, got {n}")
    stacked = np.array(vectors)
    upper, lower = np.triu_indices(n, 1)
    diff = stacked[upper] - stacked[lower]
    diff *= diff
    dist = diff.sum(axis=1)
    if np.isposinf(dist).any():
        raise NumericFailure("model distances overflow, so Krum cannot rank the models")
    d2 = np.empty((n, n))
    d2[upper, lower] = d2[lower, upper] = dist
    others = np.sort(d2[~np.eye(n, dtype=bool)].reshape(n, n - 1), axis=1)
    return stacked, others[:, : n - f - 2].sum(axis=1)


def krum_score(models: Sequence[np.ndarray], f: int) -> List[float]:
    """Sum of squared distances to the n - f - 2 nearest other models.  A
    distance too large for a double leaves no ranking: ``NumericFailure``."""
    return _krum(models, f)[1].tolist()


def krum_select(models: Sequence[np.ndarray], f: int) -> np.ndarray:
    """The single model with the lowest score; ties go to the lowest index."""
    stacked, scores = _krum(models, f)
    return stacked[int(np.argmin(scores))].copy()


def multi_krum(models: Sequence[np.ndarray], f: int, m: int) -> np.ndarray:
    """Unweighted mean of the m lowest-scoring models; ties by input index."""
    stacked, scores = _krum(models, f)
    if not 1 <= m <= len(models):
        raise ValueError(f"m must lie in [1, {len(models)}]")
    return stacked[np.argsort(scores, kind="stable")[:m]].mean(axis=0)


def coordinate_median(models: Sequence[np.ndarray]) -> np.ndarray:
    """Per-coordinate median; an even count takes the mean of the two middles."""
    if not models:
        raise ValueError("median needs at least one model")
    return np.median(np.array(_vectors(models)), axis=0)


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


def weighted_average(models: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """``w0 * m0 + w1 * m1 + ...``, the terms added in the order given."""
    terms = (w * m for w, m in zip(weights, models, strict=True))
    out = next(terms, None)
    if out is None:
        raise ValueError("weighted_average needs at least one model")
    for term in terms:
        out += term
    return out


def apply_weights(
    c: ContributionSet, weights: Dict[int, float], enhancement: Optional[str] = None
) -> np.ndarray:
    """Combine the own and direct models under ``weights``.

    ``enhancement`` picks the combination step:

    - None: the weighted average.
    - "median": the coordinate-wise median of the ceil(k/2) highest-weighted
      of the k models, ties going to the lower node id.
    - "wmedian": per coordinate, the smallest value whose cumulative weight
      reaches half the total; all-zero weights are an error.
    - "krumfilter": the weighted average, renormalized, after zeroing the
      model Krum (f = 1) ranks last.  Krum's distance sum grows with
      eccentricity, so the largest sum marks the model farthest from every
      group of agreeing models; that is where a poisoned contribution sits
      once the honest nodes have converged.  Fewer than 4 models are left
      unfiltered, and weights that all end up zero keep the own model.
    """
    if enhancement not in (None, *ENHANCEMENTS):
        raise ValueError(f"unknown enhancement {enhancement!r}")
    ids = [c.own[0]] + [i for i, _, _ in c.direct]
    missing = sorted(i for i in ids if i not in weights)
    if missing:
        raise ValueError(f"weights missing for nodes {missing}")
    models = [c.own[1]] + [m for _, m, _ in c.direct]
    w = np.array([weights[i] for i in ids], dtype=np.float64)
    if enhancement == "median":
        ranked = sorted(range(len(ids)), key=lambda k: (-w[k], ids[k]))
        return coordinate_median([models[k] for k in ranked[: math.ceil(len(ids) / 2)]])
    if enhancement == "wmedian":
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")
        stacked = np.array(models)
        order = np.argsort(stacked, axis=0, kind="stable")
        sorted_vals = np.take_along_axis(stacked, order, axis=0)
        sorted_w = np.cumsum(w[order], axis=0)
        threshold = total / 2.0 - 1e-12 * total
        first = np.argmax(sorted_w >= threshold, axis=0)
        return np.take_along_axis(sorted_vals, first[None, :], axis=0)[0]
    if enhancement == "krumfilter":
        if len(models) >= 4:
            w[int(np.argmax(krum_score(models, 1)))] = 0.0
        # summed left to right: numpy's pairwise w.sum() regroups from 8 terms
        total = sum(w.tolist())
        if total <= 0:
            return c.own[1].copy()
        w = w / total
    return weighted_average(models, w)
