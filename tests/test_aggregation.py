"""Aggregation rule checks.

The similarity pipeline is verified against a separate step-by-step
reimplementation on random fixtures, Krum against brute-force distance
enumeration, and the median variants against hand-worked examples.
"""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest

from sybilsim.aggregation import (
    ContributionSet,
    apply_weights,
    coordinate_median,
    fedavg,
    foolsgold_scores,
    krum_score,
    krum_select,
    multi_krum,
    sybilwall_weights,
    weighted_average,
)
from sybilsim.numerics import NumericFailure


class TestFedavg:
    def test_single_model_is_identity(self):
        out = fedavg([(np.array([1.0, -2.0]), 7)])
        assert np.array_equal(out, [1.0, -2.0])

    def test_equal_counts_average(self):
        out = fedavg([(np.array([1.0, 1.0]), 3), (np.array([3.0, 3.0]), 3)])
        assert out == pytest.approx([2.0, 2.0])

    def test_count_weighting(self):
        out = fedavg([(np.array([0.0]), 1), (np.array([4.0]), 3)])
        assert out == pytest.approx([3.0])

    def test_rejects_empty_and_bad_counts(self):
        with pytest.raises(ValueError):
            fedavg([])
        with pytest.raises(ValueError):
            fedavg([(np.array([1.0]), 0)])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            fedavg([(np.array([1.0]), 1), (np.array([1.0, 2.0]), 1)])


def _oracle_scores(histories, kappa=1.0, eps=1e-5):
    """Plain-python rebuild of the similarity scoring, kept deliberately
    different in structure from the library version."""
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
    if top <= 64 * sys.float_info.epsilon:
        return {node: 0.0 for node, _ in histories}
    out = {}
    for (node, _), score in zip(histories, raw):
        w = min(max(score / top, eps), 1.0 - eps)
        w = kappa * (math.log(w / (1.0 - w)) + 0.5)
        out[node] = min(max(w, 0.0), 1.0)
    return out


class TestFoolsgoldScores:
    def test_matches_oracle_on_random_fixtures(self):
        rng = np.random.default_rng(17)
        for trial in range(60):
            n = int(rng.integers(2, 8))
            dim = int(rng.integers(2, 5))
            kappa = float(rng.uniform(0.5, 8.0))
            histories = [(i, rng.normal(size=dim)) for i in range(n)]
            got = foolsgold_scores(histories, kappa=kappa)
            want = _oracle_scores(histories, kappa=kappa)
            for node in want:
                assert got[node] == pytest.approx(want[node], abs=1e-9)

    def test_clone_pair_crushed_distinct_kept(self):
        clone = np.array([1.0, 1.0, 0.0])
        distinct = np.array([0.0, 0.0, 1.0])
        scores = foolsgold_scores([(0, clone), (1, clone.copy()), (2, distinct)])
        assert scores[0] == 0.0
        assert scores[1] == 0.0
        assert scores[2] == 1.0

    def test_all_orthogonal_equal_weights(self):
        scores = foolsgold_scores([(i, np.eye(4)[i]) for i in range(4)])
        assert len(set(scores.values())) == 1
        assert scores[0] == 1.0

    def test_duplicates_suppressed_below_point_01(self):
        """k exact duplicates all land below 0.01 whenever the honest
        histories are mutually dissimilar."""
        rng = np.random.default_rng(5)
        for k in (2, 3, 5):
            for _ in range(20):
                dup = rng.normal(size=30)
                while True:
                    honest = [rng.normal(size=30) for _ in range(4)]
                    cosines = [
                        abs(float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b)))
                        for idx, a in enumerate(honest)
                        for b in honest[idx + 1:]
                    ]
                    if max(cosines) < 0.5:
                        break
                pool = [(i, dup.copy()) for i in range(k)]
                pool += [(100 + i, h) for i, h in enumerate(honest)]
                scores = foolsgold_scores(pool)
                for i in range(k):
                    assert scores[i] < 0.01
                assert max(scores[100 + i] for i in range(4)) > 0.5

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        histories = [(i, rng.normal(size=6)) for i in range(5)]
        scaled = [(i, 37.5 * h) for i, h in histories]
        a = foolsgold_scores(histories, kappa=3.0)
        b = foolsgold_scores(scaled, kappa=3.0)
        for node in a:
            assert a[node] == pytest.approx(b[node], abs=1e-12)

    def test_identical_pool_scores_zero(self):
        """A pool of exact copies leaves no positive score to rescale; the
        vector is chosen so its norm is float-exact."""
        v = np.array([3.0, 4.0])
        scores = foolsgold_scores([(0, v), (1, v.copy()), (2, v.copy())])
        assert all(s == 0.0 for s in scores.values())

    @pytest.mark.parametrize("k", [2, 3])
    def test_clone_only_pools_score_zero(self, k):
        """Copies of one history on the engine's 2^-30 grid: their cosines
        can round a few ulps below 1, which is no direction to rescale."""
        rng = np.random.default_rng(k)
        for _ in range(200):
            h = np.round(rng.normal(size=650) * 2.0**30) / 2.0**30
            scores = foolsgold_scores([(i, h.copy()) for i in range(k)])
            assert list(scores.values()) == [0.0] * k

    def test_kappa_steepens(self):
        """A mid-ratio survivor saturates under a large kappa but stays
        fractional at kappa one."""
        rng = np.random.default_rng(2)
        histories = [(0, rng.normal(size=8)), (1, rng.normal(size=8)),
                     (2, rng.normal(size=8))]
        soft = foolsgold_scores(histories, kappa=1.0)
        hard = foolsgold_scores(histories, kappa=8.0)
        for node in soft:
            if 0.0 < soft[node] < 1.0:
                assert hard[node] >= soft[node]

    def test_zero_history_scores_as_orthogonal(self):
        """A zero history has no direction: it is dissimilar to everything,
        and scoring it divides by no zero norm."""
        clone = np.array([1.0, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scores = foolsgold_scores(
                [(0, np.zeros(3)), (1, clone), (2, clone.copy())]
            )
        assert scores == {0: 1.0, 1: 0.0, 2: 0.0}

    @pytest.mark.parametrize(
        "n, dim", [(2, 650), (9, 650), (16, 650), (53, 170)]
    )
    def test_matches_oracle_at_engine_pool_shapes(self, n, dim):
        """Pools shaped like the engine's, on its 2^-30 history grid, with a
        zero history, an exact clone pair and a history whose norm is a few
        grid steps; clones score exactly zero and nothing divides by zero."""
        rng = np.random.default_rng(n * dim)

        def history(scale=1.0):
            return np.round(rng.normal(scale=scale, size=dim) * 2.0**30) / 2.0**30

        clone = history()
        tiny = history(scale=2.0**-30)
        assert 0.0 < np.linalg.norm(tiny) < 2.0**-20
        if n == 2:
            pools = [[np.zeros(dim), history()], [tiny, history()], [clone, tiny]]
        else:
            specials = [np.zeros(dim), clone, clone.copy(), tiny]
            pools = [specials + [history() for _ in range(n - 4)]]
        for vectors in pools:
            pool = list(enumerate(vectors))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = foolsgold_scores(pool)
            want = _oracle_scores(pool)
            assert got.keys() == want.keys()
            for node in want:
                assert got[node] == pytest.approx(want[node], rel=0, abs=1e-12)
            if n > 2:
                assert got[1] == got[2] == 0.0

    def test_overflowing_norm_is_not_scored(self):
        """History 0 is parallel to history 1, but its squared norm leaves the
        double range; scoring it would read its cosines as 0."""
        histories = [(0, np.full(3, 1e200)), (1, np.ones(3)), (2, np.arange(3.0))]
        with np.errstate(over="ignore"):
            with pytest.raises(NumericFailure, match="norms overflow"):
                foolsgold_scores(histories)

    def test_rejects_histories_of_different_lengths(self):
        with pytest.raises(ValueError):
            foolsgold_scores([(0, np.array([1.0])), (1, np.array([1.0, 2.0]))])

    def test_rejects_short_or_duplicate_input(self):
        with pytest.raises(ValueError):
            foolsgold_scores([(0, np.array([1.0]))])
        with pytest.raises(ValueError):
            foolsgold_scores([(0, np.array([1.0])), (0, np.array([2.0]))])


def _brute_krum_scores(models, f):
    n = len(models)
    keep = n - f - 2
    scores = []
    for i in range(n):
        dists = sorted(
            sum((a - b) ** 2 for a, b in zip(models[i], models[j]))
            for j in range(n) if j != i
        )
        scores.append(sum(dists[:keep]))
    return scores


class TestKrum:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for trial in range(200):
            n = int(rng.integers(3, 8))
            f = int(rng.integers(0, max(1, n - 2)))
            if n < f + 3:
                continue
            models = [rng.normal(size=3) for _ in range(n)]
            got = krum_score(models, f)
            want = _brute_krum_scores(models, f)
            assert got == pytest.approx(want, abs=1e-9)
            best = int(np.argmin(want))
            assert np.array_equal(krum_select(models, f), models[best])

    def test_identical_models_score_zero(self):
        models = [np.array([1.0, 2.0])] * 4
        assert krum_score(models, 1) == [0.0, 0.0, 0.0, 0.0]
        assert np.array_equal(krum_select(models, 1), models[0])

    def test_outlier_has_max_score(self):
        rng = np.random.default_rng(3)
        cluster = [rng.normal(scale=0.1, size=4) for _ in range(5)]
        outlier = np.full(4, 50.0)
        scores = krum_score(cluster + [outlier], 1)
        assert int(np.argmax(scores)) == 5

    def test_too_few_models_rejected(self):
        with pytest.raises(ValueError, match="4"):
            krum_score([np.zeros(2)] * 3, 1)
        with pytest.raises(ValueError):
            krum_score([np.zeros(2)] * 3, -1)

    def test_multi_krum_m1_equals_select(self):
        rng = np.random.default_rng(6)
        models = [rng.normal(size=3) for _ in range(6)]
        assert np.array_equal(multi_krum(models, 1, 1), krum_select(models, 1))

    def test_multi_krum_full_m_is_mean(self):
        rng = np.random.default_rng(7)
        models = [rng.normal(size=3) for _ in range(5)]
        out = multi_krum(models, 1, 5)
        assert out == pytest.approx(np.mean(models, axis=0))

    def test_multi_krum_brute_force(self):
        rng = np.random.default_rng(9)
        models = [rng.normal(size=3) for _ in range(5)]
        scores = _brute_krum_scores(models, 1)
        order = np.argsort(scores, kind="stable")[:2]
        want = np.mean([models[i] for i in order], axis=0)
        assert multi_krum(models, 1, 2) == pytest.approx(want)

    def test_multi_krum_bad_m(self):
        with pytest.raises(ValueError):
            multi_krum([np.zeros(2)] * 5, 1, 6)

    @pytest.mark.parametrize(
        "rule", [lambda ms: krum_select(ms, 0), lambda ms: multi_krum(ms, 0, 2)],
        ids=["krum_select", "multi_krum"],
    )
    def test_overflowing_distances_are_not_ranked(self, rule):
        """Model 0's squared distances leave the double range, so every score
        is inf and a pick would fall to the lowest index."""
        models = [np.full(2, 1e200), np.zeros(2), np.ones(2)]
        with np.errstate(over="ignore"):
            with pytest.raises(NumericFailure, match="distances overflow"):
                rule(models)


def _delete_per_row_krum_score(models, f):
    """``krum_score`` as it was first written: the full (n, n, D) difference,
    then each row's distances with ``np.delete``, sorted and summed."""
    stacked = np.stack([np.asarray(m, dtype=np.float64) for m in models])
    n = len(stacked)
    diff = stacked[:, None, :] - stacked[None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    keep = n - f - 2
    scores = []
    for i in range(n):
        others = np.sort(np.delete(d2[i], i))
        scores.append(float(others[:keep].sum()))
    return scores


class TestKrumMatchesReference:
    """Each pair's distance computed once and one sort per matrix give the
    same bits as the per-row rule, also where row sums of 8 or more take
    numpy's pairwise summation."""

    @pytest.mark.parametrize("dim", [1, 7, 170, 650])
    def test_random_pools_with_clones(self, dim):
        rng = np.random.default_rng(dim)
        for n, f in itertools.product(range(3, 21), (0, None)):
            f = int(rng.integers(0, n - 2)) if f is None else f
            scale = float(rng.choice([1e-3, 1.0, 1e3]))
            models = [rng.normal(scale=scale, size=dim) for _ in range(n)]
            for _ in range(int(rng.integers(0, n // 2 + 1))):
                models[int(rng.integers(n))] = models[int(rng.integers(n))].copy()
            got = np.array(krum_score(models, f))
            want = np.array(_delete_per_row_krum_score(models, f))
            assert got.tobytes() == want.tobytes(), (dim, n, f)

    def test_non_finite_distances_match(self):
        # Node 0 has two finite distances and two NaN ones, so its three
        # nearest others include a NaN: its score is NaN, never inf.
        nan = np.array([np.nan, 0.0])
        models = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]), nan, nan]
        with np.errstate(invalid="ignore"):
            got = np.array(krum_score(models, 0))
            want = np.array(_delete_per_row_krum_score(models, 0))
        assert got.tobytes() == want.tobytes()


class TestCoordinateMedian:
    def test_odd_count_drops_outlier(self):
        out = coordinate_median([np.array([1.0]), np.array([2.0]), np.array([100.0])])
        assert out == pytest.approx([2.0])

    def test_even_count_mid_pair(self):
        out = coordinate_median([np.array([1.0]), np.array([3.0])])
        assert out == pytest.approx([2.0])

    def test_single_model_identity(self):
        out = coordinate_median([np.array([5.0, -1.0])])
        assert np.array_equal(out, [5.0, -1.0])

    def test_permutation_invariant_and_bounded(self):
        rng = np.random.default_rng(11)
        models = [rng.normal(size=5) for _ in range(7)]
        base = coordinate_median(models)
        perm = rng.permutation(7)
        assert np.array_equal(base, coordinate_median([models[i] for i in perm]))
        stacked = np.stack(models)
        assert np.all(base >= stacked.min(axis=0))
        assert np.all(base <= stacked.max(axis=0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            coordinate_median([])


def _cset(own_model, directs, indirects=(), own_hist=None):
    dim = len(own_model)
    own_hist = np.zeros(dim) if own_hist is None else own_hist
    return ContributionSet(
        own=(0, np.asarray(own_model, dtype=float), own_hist),
        direct=tuple(
            (i, np.asarray(m, dtype=float), np.asarray(h, dtype=float))
            for i, m, h in directs
        ),
        indirect=tuple((i, np.asarray(h, dtype=float)) for i, h in indirects),
    )


class TestSybilwallWeights:
    def test_degenerate_single_history(self):
        c = _cset([0.0, 0.0], [(1, [2.0, 2.0], [1.0, 0.0])])
        weights, degenerate = sybilwall_weights(c)
        assert degenerate
        assert weights[0] == pytest.approx(2 / 3)
        assert weights[1] == pytest.approx(1 / 3)

    def test_own_weight_floor(self):
        """Own model never falls below any single neighbor, even when every
        neighbor scores the maximum."""
        c = _cset(
            [0.0, 0.0, 0.0],
            [
                (1, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
                (2, [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]),
                (3, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]),
            ],
        )
        weights, degenerate = sybilwall_weights(c)
        assert not degenerate
        assert weights[0] == max(weights.values())
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_clone_neighbors_fall_back_to_own(self):
        shared = np.array([3.0, 4.0, 0.0])
        c = _cset(
            [5.0, 5.0, 5.0],
            [(1, [9.0, 9.0, 9.0], shared), (2, [9.0, 9.0, 9.0], shared.copy())],
        )
        weights, _ = sybilwall_weights(c)
        out = apply_weights(c, weights)
        assert out == pytest.approx([5.0, 5.0, 5.0])

    def test_indirect_clone_suppresses_direct(self):
        """One local attack edge is enough to score zero when an identical
        history arrives from farther away."""
        shared = np.array([0.0, 1.0, 1.0])
        honest = np.array([1.0, 0.0, 0.0])
        c = _cset(
            [1.0, 1.0, 1.0],
            [(1, [8.0, 8.0, 8.0], shared), (2, [2.0, 0.0, 0.0], honest)],
            indirects=[(7, shared.copy())],
        )
        weights, _ = sybilwall_weights(c)
        assert weights[1] == 0.0
        assert weights[2] > 0.0
        assert 7 not in weights

    def test_indirect_clone_zeroes_direct_at_engine_shape(self):
        """The same at the engine's history length and grid: eight direct
        neighbors and eight gossiped histories, one of them a copy of
        direct neighbor 3's history."""
        rng = np.random.default_rng(21)

        def history():
            return np.round(rng.normal(size=650) * 2.0**30) / 2.0**30

        directs = [(i, history(), history()) for i in range(1, 9)]
        indirects = [(20 + i, history()) for i in range(7)]
        indirects.append((40, directs[2][2].copy()))
        c = _cset(history(), directs, indirects, own_hist=history())
        weights, degenerate = sybilwall_weights(c)
        assert not degenerate
        assert weights[3] == 0.0
        assert all(weights[i] > 0.0 for i in range(1, 9) if i != 3)
        assert 40 not in weights

    def test_clone_only_foreign_pool_gets_no_weight(self):
        """Every direct and gossiped history is a copy of one Sybil history:
        the clones get weight 0 and the own model all of it."""
        rng = np.random.default_rng(22)
        for k in (2, 3):
            for _ in range(20):
                sybil = np.round(rng.normal(size=650) * 2.0**30) / 2.0**30
                directs = [(i, rng.normal(size=650), sybil.copy()) for i in range(1, k + 1)]
                c = _cset(
                    rng.normal(size=650),
                    directs,
                    indirects=[(40, sybil.copy())],
                    own_hist=rng.normal(size=650),
                )
                weights, degenerate = sybilwall_weights(c)
                assert not degenerate
                assert weights == {0: 1.0, **{i: 0.0 for i in range(1, k + 1)}}

    def test_convex_combination(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            directs = [
                (i + 1, rng.normal(size=4), rng.normal(size=4)) for i in range(k)
            ]
            indirects = [(50 + i, rng.normal(size=4)) for i in range(int(rng.integers(0, 3)))]
            c = _cset(rng.normal(size=4), directs, indirects, own_hist=rng.normal(size=4))
            weights, _ = sybilwall_weights(c, kappa=2.0)
            assert all(w >= 0.0 for w in weights.values())
            assert sum(weights.values()) == pytest.approx(1.0)
            out = apply_weights(c, weights)
            models = np.stack([c.own[1]] + [m for _, m, _ in c.direct])
            assert np.all(out >= models.min(axis=0) - 1e-12)
            assert np.all(out <= models.max(axis=0) + 1e-12)

    def test_no_direct_neighbors_rejected(self):
        c = ContributionSet(own=(0, np.ones(2), np.ones(2)), direct=())
        with pytest.raises(ValueError):
            sybilwall_weights(c)


class TestWeightedAverage:
    def test_explicit_combination(self):
        out = weighted_average([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.75, 0.25])
        assert out == pytest.approx([0.75, 0.25])

    def test_missing_weight_rejected(self):
        c = _cset([1.0], [(1, [2.0], [1.0])])
        with pytest.raises(ValueError, match="missing"):
            apply_weights(c, {0: 1.0})
        with pytest.raises(ValueError):
            weighted_average([c.own[1], c.direct[0][1]], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            weighted_average([], [])

    def test_adds_left_to_right(self):
        # (1 + 2^-53) + 2^-53 rounds to 1 twice; 1 + (2^-53 + 2^-53) does not
        tiny = 2.0**-53
        out = weighted_average([np.array([1.0]), np.array([tiny]), np.array([tiny])], [1, 1, 1])
        assert out[0] == 1.0


class TestEnhanceMedian:
    def test_keeps_top_half_by_weight(self):
        c = _cset(
            [10.0],
            [(1, [0.0], [1.0]), (2, [2.0], [1.0]), (3, [99.0], [1.0])],
        )
        weights = {0: 0.4, 1: 0.9, 2: 0.9, 3: 0.1}
        out = apply_weights(c, weights, "median")
        assert out == pytest.approx([1.0])

    def test_tie_break_prefers_lower_id(self):
        c = _cset([0.0], [(1, [4.0], [1.0]), (2, [100.0], [1.0])])
        out = apply_weights(c, {0: 0.5, 1: 0.5, 2: 0.5}, "median")
        assert out == pytest.approx([2.0])

    def test_single_entry_majority(self):
        c = _cset([3.0], [(1, [9.0], [1.0])])
        out = apply_weights(c, {0: 1.0, 1: 0.2}, "median")
        assert out == pytest.approx([3.0])


class TestEnhanceWeightedMedian:
    def test_lower_median_on_equal_pair(self):
        c = _cset([0.0], [(1, [4.0], [1.0])])
        out = apply_weights(c, {0: 1.0, 1: 1.0}, "wmedian")
        assert out == pytest.approx([0.0])

    def test_weight_mass_shifts_pick(self):
        c = _cset([0.0], [(1, [4.0], [1.0])])
        out = apply_weights(c, {0: 1.0, 1: 3.0}, "wmedian")
        assert out == pytest.approx([4.0])

    def test_equal_weights_reduce_to_median(self):
        c = _cset([1.0], [(1, [5.0], [1.0]), (2, [9.0], [1.0])])
        out = apply_weights(c, {0: 1.0, 1: 1.0, 2: 1.0}, "wmedian")
        assert out == pytest.approx([5.0])

    def test_zero_weight_values_ignored(self):
        c = _cset([7.0], [(1, [-50.0], [1.0]), (2, [7.0], [1.0])])
        out = apply_weights(c, {0: 1.0, 1: 0.0, 2: 1.0}, "wmedian")
        assert out == pytest.approx([7.0])

    def test_per_coordinate_independence(self):
        c = _cset([0.0, 9.0], [(1, [4.0, 1.0], [1.0, 1.0])])
        out = apply_weights(c, {0: 1.0, 1: 3.0}, "wmedian")
        assert out == pytest.approx([4.0, 1.0])

    def test_all_zero_weights_rejected(self):
        c = _cset([0.0], [(1, [4.0], [1.0])])
        with pytest.raises(ValueError):
            apply_weights(c, {0: 0.0, 1: 0.0}, "wmedian")


class TestEnhanceKrumFilter:
    def test_zeroes_the_farthest_outlier(self):
        c = _cset(
            [0.0],
            [(1, [0.1], [1.0]), (2, [0.2], [1.0]), (3, [5.0], [1.0]),
             (4, [5.2], [1.0])],
        )
        weights = {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}
        out = apply_weights(c, weights, "krumfilter")
        scores = _brute_krum_scores([[0.0], [0.1], [0.2], [5.0], [5.2]], 1)
        assert int(np.argmax(scores)) == 4
        want = (0.0 + 0.1 + 0.2 + 5.0) / 4
        assert out == pytest.approx([want])

    def test_own_model_can_be_filtered(self):
        # the aggregating node itself is the most eccentric entry here
        c = _cset(
            [0.0],
            [(1, [4.0], [1.0]), (2, [8.0], [1.0]), (3, [5.0], [1.0]),
             (4, [5.0], [1.0])],
        )
        scores = _brute_krum_scores([[0.0], [4.0], [8.0], [5.0], [5.0]], 1)
        assert int(np.argmax(scores)) == 0
        out = apply_weights(c, {i: 1.0 for i in range(5)}, "krumfilter")
        want = (4.0 + 8.0 + 5.0 + 5.0) / 4
        assert out == pytest.approx([want])

    def test_clone_pair_survives_filtering(self):
        # exact duplicates sit at distance zero of each other, so the
        # filter lands on the lone outlier, never the clones
        c = _cset(
            [5.1],
            [(1, [5.0], [1.0]), (2, [5.0], [1.0]), (3, [4.9], [1.0]),
             (4, [-3.0], [1.0])],
        )
        scores = _brute_krum_scores([[5.1], [5.0], [5.0], [4.9], [-3.0]], 1)
        assert int(np.argmax(scores)) == 4
        out = apply_weights(c, {i: 1.0 for i in range(5)}, "krumfilter")
        assert out == pytest.approx([(5.1 + 5.0 + 5.0 + 4.9) / 4])

    def test_small_sets_left_unfiltered(self):
        c = _cset([0.0], [(1, [4.0], [1.0]), (2, [8.0], [1.0])])
        weights = {0: 0.5, 1: 0.25, 2: 0.25}
        out = apply_weights(c, weights, "krumfilter")
        assert out == pytest.approx(apply_weights(c, weights))

    def test_all_weight_on_filtered_model_returns_own(self):
        c = _cset(
            [0.0],
            [(1, [1.0], [1.0]), (2, [-10.0], [1.0]), (3, [0.2], [1.0]),
             (4, [0.5], [1.0])],
        )
        scores = _brute_krum_scores([[0.0], [1.0], [-10.0], [0.2], [0.5]], 1)
        assert int(np.argmax(scores)) == 2
        out = apply_weights(c, {0: 0.0, 1: 0.0, 2: 0.7, 3: 0.0, 4: 0.0}, "krumfilter")
        assert out == pytest.approx([0.0])


class TestDispatch:
    def test_plain_equals_weighted_average(self):
        rng = np.random.default_rng(19)
        c = _cset(
            rng.normal(size=3),
            [(1, rng.normal(size=3), rng.normal(size=3)),
             (2, rng.normal(size=3), rng.normal(size=3))],
        )
        weights, _ = sybilwall_weights(c)
        models = [c.own[1]] + [m for _, m, _ in c.direct]
        want = weighted_average(models, [weights[i] for i in (0, 1, 2)])
        assert apply_weights(c, weights) == pytest.approx(want)

    def test_unknown_enhancement_rejected(self):
        c = _cset([0.0], [(1, [1.0], [1.0])])
        weights, _ = sybilwall_weights(c)
        with pytest.raises(ValueError, match="unknown"):
            apply_weights(c, weights, enhancement="trimmed")


# The per-rule combines that ``weighted_average`` and ``apply_weights``
# replaced, kept verbatim as the reference for the single combine path.


def _ref_fedavg(models):
    if not models:
        raise ValueError("fedavg needs at least one model")
    vectors = [np.asarray(m, dtype=np.float64) for m, _ in models]
    counts = np.array([c for _, c in models], dtype=np.float64)
    if np.any(counts <= 0):
        raise ValueError("sample counts must be positive")
    dim = vectors[0].size
    if any(v.size != dim for v in vectors):
        raise ValueError("parameter vectors must share one length")
    weights = counts / counts.sum()
    return np.einsum("i,ij->j", weights, np.stack(vectors))


def _ref_weighted_average(c, weights):
    _ref_check_weight_cover(c, weights)
    out = weights[c.own[0]] * c.own[1]
    for i, model, _ in c.direct:
        out = out + weights[i] * model
    return out


def _ref_check_weight_cover(c, weights):
    needed = {c.own[0]} | {i for i, _, _ in c.direct}
    if not needed <= set(weights):
        missing = sorted(needed - set(weights))
        raise ValueError(f"weights missing for nodes {missing}")


def _ref_enhance_median(c, weights):
    _ref_check_weight_cover(c, weights)
    entries = [(c.own[0], c.own[1])] + [(i, m) for i, m, _ in c.direct]
    keep = math.ceil(len(entries) / 2)
    entries.sort(key=lambda e: (-weights[e[0]], e[0]))
    return coordinate_median([m for _, m in entries[:keep]])


def _ref_enhance_weighted_median(c, weights):
    _ref_check_weight_cover(c, weights)
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


def _ref_enhance_krum_filter(c, weights, f=1):
    _ref_check_weight_cover(c, weights)
    entries = [(c.own[0], c.own[1])] + [(i, m) for i, m, _ in c.direct]
    filtered = dict(weights)
    if len(entries) >= f + 3:
        scores = krum_score([m for _, m in entries], f)
        filtered[entries[int(np.argmax(scores))][0]] = 0.0
    total = sum(filtered[i] for i, _ in entries)
    if total <= 0:
        return c.own[1].copy()
    normalized = {i: filtered[i] / total for i, _ in entries}
    return _ref_weighted_average(c, normalized)


_REF_APPLY = {
    None: _ref_weighted_average,
    "median": _ref_enhance_median,
    "wmedian": _ref_enhance_weighted_median,
    "krumfilter": _ref_enhance_krum_filter,
}


def _outcome(fn, *args):
    """The result's bytes, or the error type and message."""
    try:
        return fn(*args).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


class TestFoldMatchesReference:
    """Bit-for-bit agreement with the reference on engine-shaped inputs:
    the own model plus 1-8 direct models of 650 values on the 2^-30 grid,
    with clones, zeroed weights and sybilwall's normalized weights."""

    @staticmethod
    def _trial(rng):
        def grid(scale=1.0):
            return np.round(rng.normal(scale=scale, size=650) * 2.0**30) / 2.0**30

        k = int(rng.integers(1, 9))
        ids = [0] + sorted(rng.choice(np.arange(1, 40), size=k, replace=False).tolist())
        models = [grid(float(rng.choice([1e-3, 1.0]))) for _ in ids]
        for a in range(1, len(ids)):
            if rng.random() < 0.25:  # a clone of an earlier model
                models[a] = models[int(rng.integers(0, a))].copy()
        directs = [(i, m, grid()) for i, m in zip(ids[1:], models[1:])]
        c = _cset(models[0], directs, [(50, grid())], own_hist=grid())
        if rng.random() < 0.5:
            weights, _ = sybilwall_weights(c, kappa=float(rng.choice([1.0, 8.0])))
        else:
            raw = rng.random(len(ids)) * (rng.random(len(ids)) < 0.6)
            weights = dict(zip(ids, raw.tolist()))
        counts = rng.integers(1, 60, size=len(ids)).tolist()
        return c, weights, counts

    def test_random_engine_shaped_inputs(self):
        rng = np.random.default_rng(2306)
        for _ in range(300):
            c, weights, counts = self._trial(rng)
            models = [c.own[1]] + [m for _, m, _ in c.direct]
            ids = [c.own[0]] + [i for i, _, _ in c.direct]
            pairs = list(zip(models, counts))
            assert fedavg(pairs).tobytes() == _ref_fedavg(pairs).tobytes()
            total = sum(weights.values())
            if total > 0:
                ordered = [weights[i] / total for i in ids]
                want = _ref_weighted_average(c, {i: weights[i] / total for i in ids})
                assert weighted_average(models, ordered).tobytes() == want.tobytes()
            for mode, ref in _REF_APPLY.items():
                assert _outcome(apply_weights, c, weights, mode) == _outcome(
                    ref, c, weights
                ), mode

    def test_error_cases_raise_the_same_message(self):
        c = _cset([0.0, 1.0], [(1, [4.0, 2.0], [1.0, 1.0]), (2, [3.0, 3.0], [1.0, 2.0])])
        for weights in ({0: 1.0}, {1: 1.0, 2: 1.0}, {}, {0: 0.0, 1: 0.0, 2: 0.0}):
            for mode, ref in _REF_APPLY.items():
                got = _outcome(apply_weights, c, weights, mode)
                assert got == _outcome(ref, c, weights), (weights, mode)
        for bad in ([], [(np.ones(2), 0)], [(np.ones(2), 1), (np.ones(3), 1)]):
            assert _outcome(fedavg, bad) == _outcome(_ref_fedavg, bad)

    def test_all_negative_zero_coordinate(self):
        """The one place the fold differs: einsum summed from +0.0, so a
        coordinate that is -0.0 in every model averaged to +0.0; the terms
        alone add to -0.0.  The two compare equal as numbers."""
        models = [(np.array([-0.0, 1.0]), 1), (np.array([-0.0, 3.0]), 3)]
        got, want = fedavg(models), _ref_fedavg(models)
        assert np.array_equal(got, want)
        assert np.signbit(got[0]) and not np.signbit(want[0])


class TestContributionSet:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ContributionSet(
                own=(0, np.ones(3), np.ones(3)),
                direct=((1, np.ones(2), np.ones(3)),),
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ContributionSet(
                own=(0, np.ones(2), np.ones(2)),
                direct=((0, np.ones(2), np.ones(2)),),
            )

    def test_duplicate_indirect_id_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ContributionSet(
                own=(0, np.ones(2), np.ones(2)),
                direct=((1, np.ones(2), np.ones(2)),),
                indirect=((1, np.ones(2)),),
            )


# Every entry point takes three vectors; ContributionSet puts the third in
# an indirect history, the one slot no model check would reach.
_ENTRY_POINTS = {
    "fedavg": lambda vs: fedavg([(v, 1) for v in vs]),
    "foolsgold_scores": lambda vs: foolsgold_scores(list(enumerate(vs))),
    "krum_score": lambda vs: krum_score(vs, 0),
    "krum_select": lambda vs: krum_select(vs, 0),
    "multi_krum": lambda vs: multi_krum(vs, 0, 2),
    "coordinate_median": coordinate_median,
    "ContributionSet": lambda vs: ContributionSet(
        own=(0, vs[0], vs[0]), direct=((1, vs[1], vs[1]),), indirect=((2, vs[2]),)
    ),
}


class TestVectorChecks:
    """One check decides what a valid aggregation input is, so every rule
    rejects a bad vector with the same message."""

    @pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.ones((1, 2)), "parameter vectors must be 1-D"),
            (np.ones(3), "parameter vectors must share one length"),
        ],
        ids=["2-D", "length"],
    )
    def test_one_message_per_fault(self, name, bad, message):
        with pytest.raises(ValueError) as exc:
            _ENTRY_POINTS[name]([np.ones(2), np.zeros(2), bad])
        assert str(exc.value) == message
