"""Tests of the benchmark's own checkers: each must accept the simulator's
real output and reject a deliberately wrong one.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import checks  # noqa: E402
import spans  # noqa: E402
from sybilsim.aggregation import ContributionSet, sybilwall_weights  # noqa: E402
from sybilsim.data import LabeledDataset  # noqa: E402
from sybilsim.numerics import Architecture, TrainConfig, init_model, train_sgd  # noqa: E402
from sybilsim.topology import build_attack_network  # noqa: E402

KAPPA, EPS = 8.0, 1e-5


def _pool():
    rng = np.random.default_rng(5)
    h = {i: rng.normal(size=30) for i in (0, 1, 2, 3)}
    clone = rng.normal(size=30)
    own = (0, rng.normal(size=30), h[0])
    direct = ((1, rng.normal(size=30), h[1]), (2, rng.normal(size=30), h[2]),
              (10, rng.normal(size=30), clone))
    indirect = ((3, h[3]), (11, clone.copy()))
    return ContributionSet(own, direct, indirect)


def _check(c, weights):
    return checks.check_weights(
        c.own[0], [(i, h) for i, _, h in c.direct], list(c.indirect), weights, KAPPA, EPS
    )


class TestScoringOracle:
    def test_accepts_program_weights_and_clone_gets_zero(self):
        c = _pool()
        weights, _ = sybilwall_weights(c, kappa=KAPPA, logit_eps=EPS)
        assert weights[10] == 0.0
        assert _check(c, weights) == []

    def test_rejects_weight_on_cloned_sybil(self):
        c = _pool()
        weights, _ = sybilwall_weights(c, kappa=KAPPA, logit_eps=EPS)
        weights[10] = 0.1
        total = sum(weights.values())
        wrong = {i: w / total for i, w in weights.items()}
        problems = _check(c, wrong)
        assert any("identical clone" in p for p in problems)
        assert any("differ from the reference" in p for p in problems)

    def test_rejects_small_weight_error(self):
        c = _pool()
        weights, _ = sybilwall_weights(c, kappa=KAPPA, logit_eps=EPS)
        weights[1] += 1e-8
        assert _check(c, weights)


@pytest.fixture(scope="module")
def network():
    _, _, full = build_attack_network(16, 0.7, 8, 1.0, 1)
    return set(full.edges), set(full.honest)


class TestNetworkChecker:
    def test_accepts_built_network(self, network):
        edges, honest = network
        assert checks.check_network(edges, honest, 8, 1.0) == []

    def test_rejects_degree_nine_node(self, network):
        edges, honest = network
        edges = set(edges)
        node = min(honest)
        others = sorted(honest - {node})
        for other in others:
            degree = sum(node in e for e in edges)
            if degree == 9:
                break
            edges.add((node, other) if node < other else (other, node))
        problems = checks.check_network(edges, honest, 8, 1.0)
        assert sum(node in e for e in edges) == 9
        assert any("exceed degree bound 8" in p for p in problems)

    def test_rejects_disconnected_honest_part(self, network):
        edges, honest = network
        node = max(honest)
        cut = {(a, b) for a, b in edges if not (node in (a, b) and {a, b} <= honest)}
        problems = checks.check_network(cut, honest, 8, 1.0)
        assert any("disconnected" in p for p in problems)

    def test_rejects_missing_attack_edge(self, network):
        edges, honest = network
        attack = next(e for e in sorted(edges) if (e[0] in honest) != (e[1] in honest))
        problems = checks.check_network(set(edges) - {attack}, honest, 8, 1.0)
        assert any("attack edges, want" in p for p in problems)

    def test_rejects_uneven_attack_edges(self, network):
        edges, honest = network
        attack = next(e for e in sorted(edges) if (e[0] in honest) != (e[1] in honest))
        sybil = attack[0] if attack[0] not in honest else attack[1]
        moved = set(edges) - {attack}
        target = next(
            h for h in sorted(honest)
            if h not in attack and (min(h, sybil), max(h, sybil)) not in moved
        )
        moved.add((min(target, sybil), max(target, sybil)))
        problems = checks.check_network(moved, honest, 8, 1.0)
        assert any("range over 0..2" in p for p in problems)


class TestSgdOracle:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.data = LabeledDataset(rng.uniform(size=(21, 6)), rng.integers(0, 4, 21), 4)
        self.model = init_model(Architecture(input_dim=6, n_classes=4), 7)
        self.cfg = TrainConfig(learning_rate=0.05, local_epochs=3, batch_size=8, seed=99)

    def _check(self, trained, learning_rate=0.05):
        return checks.check_sgd(
            self.model.params, self.data.features, self.data.labels, 4,
            learning_rate, 3, 8, 99, trained,
        )

    def test_accepts_program_sgd(self):
        assert self._check(train_sgd(self.model, self.data, self.cfg).params) == []

    def test_rejects_wrong_learning_rate(self):
        trained = train_sgd(self.model, self.data, self.cfg).params
        assert self._check(trained, learning_rate=0.051)
        wrong = TrainConfig(learning_rate=0.06, local_epochs=3, batch_size=8, seed=99)
        assert self._check(train_sgd(self.model, self.data, wrong).params)

    def test_rejects_other_permutation_stream(self):
        other = TrainConfig(learning_rate=0.05, local_epochs=3, batch_size=8, seed=98)
        assert self._check(train_sgd(self.model, self.data, other).params)


class TestMetricsCsv:
    GOOD = checks.CSV_HEADER + "\n0,0.5,0.25\n1,0.75,0\n"

    def test_accepts(self):
        assert checks.check_metrics_csv(self.GOOD, 2) == []

    @pytest.mark.parametrize(
        "text",
        [
            "round,acc,atk\n0,0.5,0.25\n1,0.75,0\n",
            checks.CSV_HEADER + "\n0,0.5,0.25\n",
            checks.CSV_HEADER + "\n0,0.5,0.25\n2,0.75,0\n",
            checks.CSV_HEADER + "\n0,0.5,0.25\n1,1.5,0\n",
            checks.CSV_HEADER + "\n0,0.5,nan\n1,0.75,0\n",
        ],
    )
    def test_rejects(self, text):
        assert checks.check_metrics_csv(text, 2)


def test_inference_check_rejects_a_one_ulp_difference():
    trained = {(1, 4): np.array([0.5, 0.25])}
    exact = [(0, 1, 4, np.array([0.5, 0.25]))]
    assert checks.check_inference(trained, exact) == []
    off = [(0, 1, 4, np.array([0.5, np.nextafter(0.25, 1.0)]))]
    assert checks.check_inference(trained, off)


class TestTracer:
    def test_missing_target_fails_loudly(self, monkeypatch):
        monkeypatch.setitem(spans.TARGETS, "gone", ("sybilsim.topology", "no_such_fn"))
        with pytest.raises(spans.TraceTargetMissing):
            spans.Tracer().wrap("gone")

    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()
        tracer.spans[:] = [["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0],
                           ["inner", 6.0, 7.0, 0]]
        summary = tracer.summary()
        assert summary["outer"] == {"calls": 1, "total": 10.0, "self": 6.0}
        assert summary["inner"]["calls"] == 2 and summary["inner"]["self"] == 4.0

    def test_wrap_records_and_restores(self):
        import sybilsim.topology as topology

        original = topology.cap_degrees
        tracer = spans.Tracer()
        tracer.wrap("cap_degrees")
        try:
            build_attack_network(8, 0.9, 4, None, 2)
        finally:
            tracer.close()
        assert topology.cap_degrees is original
        assert tracer.summary()["cap_degrees"]["calls"] == 1
