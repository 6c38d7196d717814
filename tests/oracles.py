"""Plain-Python oracles for the rules the tests check the library against.

Each rule is stated once here: the similarity scorer, brute-force Krum
scores, the sorted coordinate median and the attack-edge total.  The
oracles stay deliberately different in structure from the library (loops
over lists where the library uses arrays), so a shared mistake is
unlikely, and this module imports nothing from ``sybilsim``.  It holds no
tests.  The benchmark's checks are to load this file by path in place of
their own scorer and edge count (ROADMAP item 4, stage B), as
``tests/test_span_contract.py`` loads perfbench's modules.
"""

import math
import sys

import numpy as np

# a best raw score at or below this scores every history 0
SCORE_FLOOR = 64 * sys.float_info.epsilon


def similarity_scores(histories, kappa=1.0, eps=1e-5):
    """Score ``(node, history)`` pairs: pardoned max cosine, rescale, logit."""
    n = len(histories)
    vecs = [np.asarray(h, dtype=float) for _, h in histories]

    def cos(a, b):
        na, nb = math.sqrt(float(a @ a)), math.sqrt(float(b @ b))
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(a @ b) / (na * nb)

    sim = [[cos(vecs[i], vecs[j]) if i != j else 0.0 for j in range(n)]
           for i in range(n)]
    maxima = [max(row) for row in sim]
    adjusted = [row[:] for row in sim]
    for i in range(n):
        for j in range(n):
            if i != j and maxima[i] < maxima[j]:
                adjusted[i][j] = sim[i][j] * maxima[i] / maxima[j]
    raw = [1.0 - max(row) for row in adjusted]
    top = max(raw)
    if top <= SCORE_FLOOR:
        return {node: 0.0 for node, _ in histories}
    out = {}
    for (node, _), score in zip(histories, raw):
        w = min(max(score / top, eps), 1.0 - eps)
        w = kappa * (math.log(w / (1.0 - w)) + 0.5)
        out[node] = min(max(w, 0.0), 1.0)
    return out


def krum_scores(models, f):
    """Each model's summed squared distance to its n - f - 2 nearest others."""
    n = len(models)
    keep = n - f - 2
    scores = []
    for i in range(n):
        dists = sorted(
            sum((a - b) ** 2 for a, b in zip(models[i], models[j]))
            for j in range(n)
            if j != i
        )
        scores.append(sum(dists[:keep]))
    return scores


def sorted_median(models):
    """Each coordinate's middle value, or the mean of the middle pair."""
    stacked = np.stack(models)
    out = []
    for col in stacked.T:
        v = sorted(col)
        k = len(v)
        out.append(v[k // 2] if k % 2 else (v[k // 2 - 1] + v[k // 2]) / 2.0)
    return np.array(out)


def attack_edge_total(n, phi):
    """Attack edges on ``n`` honest nodes at ``phi``: ceil(n * phi - 1e-9),
    and at least 1 for any phi > 0."""
    return max(1, math.ceil(n * phi - 1e-9))
