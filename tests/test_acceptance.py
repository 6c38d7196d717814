"""Release gate: exact property suites plus trend reproduction.

Every check prints one PASS/FAIL line with its measured numbers (run with
-s to see them all), then asserts.  The oracle and property checks are
sub-minute; the trend checks run batches of full 150-round simulations
over five seeds each and dominate the runtime.  Each trend test submits
all its runs to one process pool with a worker per core; the runs share
nothing, and a fast check pins pooled results to serial ones.
"""

import dataclasses
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from sybilsim.aggregation import (
    coordinate_median,
    foolsgold_scores,
    krum_score,
    krum_select,
    multi_krum,
)
from sybilsim.config import (
    AttackConfig,
    DataConfig,
    DowntimeEntry,
    GossipConfig,
    RuleParams,
    SimulationConfig,
    TopologyConfig,
    TrainSection,
    load_config,
)
from sybilsim.engine import run_simulation
from sybilsim.gossip import (
    HistoryDB,
    HistoryRecord,
    SignedHistory,
    filter_db,
    select_gossip,
)
from sybilsim.topology import build_attack_network, validate_topology
from test_engine import direct_counts

SEEDS = (1, 2, 3, 4, 5)
QUICKSTART = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "demos", "configs",
    "quickstart.yaml",
)

# knobs for the enhancement comparison (backdoor, one attack edge per
# honest node): a bounded history db keeps the scoring pool contested, so
# the plain defense leaks enough for the enhancements to have work to do
ENHANCEMENT_CAPACITY = 9
ENHANCEMENT_ALPHA = 0.1


def _report(name, ok, detail):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# --- independent oracles, deliberately different in structure ---------------


def _brute_krum_scores(models, f):
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


def _sorted_median(models):
    stacked = np.stack(models)
    out = []
    for col in stacked.T:
        v = sorted(col)
        k = len(v)
        out.append(v[k // 2] if k % 2 else (v[k // 2 - 1] + v[k // 2]) / 2.0)
    return np.array(out)


def _scoring_oracle(histories, kappa=1.0, eps=1e-5):
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


# --- shared simulation batches ----------------------------------------------


def _config(seed, aggregator, alpha, attack, capacity=None):
    """One 150-round trend run: 16 honest nodes on the 64-dimensional blobs."""
    return SimulationConfig(
        seed=seed,
        rounds=150,
        aggregator=aggregator,
        honest_nodes=16,
        degree_bound=8,
        topology=TopologyConfig(radius=0.7),
        data=DataConfig(
            kind="blobs", classes=10, per_class=40, test_per_class=25,
            dim=64, spread=0.12, alpha=alpha,
        ),
        train=TrainSection(learning_rate=0.05, local_epochs=10, batch_size=8),
        attack=attack,
        gossip=GossipConfig(lam=0.8, capacity=capacity),
        rule_params=RuleParams(kappa=8.0),
    )


def _trend(aggregator, phi, alpha):
    """The seed batch of a label-flip run."""
    attack = AttackConfig(kind="label_flip", phi=phi, source=1, target=2)
    return [_config(seed, aggregator, alpha, attack) for seed in SEEDS]


def _enhancement(aggregator):
    """The seed batch of a backdoor run against a bounded history db."""
    attack = AttackConfig(
        kind="backdoor", phi=1.0, target=2, pattern_size=3, pattern_value=1.0
    )
    return [
        _config(seed, aggregator, ENHANCEMENT_ALPHA, attack, ENHANCEMENT_CAPACITY)
        for seed in SEEDS
    ]


def _final_metrics(cfg):
    # only the last round travels back: a RunResult does not pickle
    return run_simulation(cfg).metrics[-1]


def _pooled(configs):
    """Final-round metrics of each config, run on one process per core."""
    workers = min(len(configs), os.cpu_count() or 1)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        return list(pool.map(_final_metrics, configs))


def _means(*batches):
    """Mean final (accuracy, attack score) of each batch; all share one pool."""
    finals = iter(_pooled([cfg for batch in batches for cfg in batch]))
    out = []
    for batch in batches:
        last = [next(finals) for _ in batch]
        out.append((
            float(np.mean([m.mean_accuracy for m in last])),
            float(np.mean([m.mean_attack_score for m in last])),
        ))
    return out


# --- the gate ----------------------------------------------------------------


def test_robust_rule_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 8))
        f = int(rng.integers(0, n - 2))
        dim = int(rng.integers(2, 7))
        models = [rng.normal(size=dim) for _ in range(n)]
        expected = _brute_krum_scores(models, f)
        got = krum_score(models, f)
        worst = max(worst, max(abs(a - b) for a, b in zip(expected, got)))
        assert np.array_equal(
            krum_select(models, f), models[int(np.argmin(expected))]
        )
        m = int(rng.integers(1, n + 1))
        order = sorted(range(n), key=lambda i: (expected[i], i))[:m]
        assert np.allclose(
            multi_krum(models, f, m),
            np.stack([models[i] for i in order]).mean(axis=0),
            atol=1e-9,
        )
    for _ in range(50):
        k = int(rng.integers(1, 9))
        models = [rng.normal(size=5) for _ in range(k)]
        assert np.allclose(
            coordinate_median(models), _sorted_median(models), atol=1e-12
        )
    fg_worst = 0.0
    for _ in range(60):
        n = int(rng.integers(3, 7))
        kappa = float(rng.uniform(0.5, 8.0))
        dim = int(rng.integers(3, 9))
        histories = [(i, rng.normal(size=dim)) for i in range(n)]
        got = foolsgold_scores(histories, kappa=kappa)
        expected = _scoring_oracle(histories, kappa=kappa)
        fg_worst = max(
            fg_worst, max(abs(got[i] - expected[i]) for i in got)
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and fg_worst <= 1e-9 and elapsed < 60
    _report(
        "oracle-equivalence",
        ok,
        f"krum dev {worst:.2e}, scoring dev {fg_worst:.2e}, {elapsed:.1f}s",
    )


def test_clone_suppression_weights():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    dim = 32
    worst_clone, worst_honest = 0.0, 1.0
    for trial in range(100):
        k = (2, 3, 5)[trial % 3]
        honest = int(rng.integers(1, 5))
        while True:
            vecs = rng.normal(size=(honest + 1, dim))
            unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
            gram = unit @ unit.T
            if np.all(gram[np.triu_indices(honest + 1, k=1)] < 0.5):
                break
        histories = [(i, vecs[i]) for i in range(honest)]
        histories += [(100 + j, vecs[honest].copy()) for j in range(k)]
        scores = foolsgold_scores(histories)
        for i, _ in histories:
            if i >= 100:
                worst_clone = max(worst_clone, scores[i])
            else:
                worst_honest = min(worst_honest, scores[i])
    elapsed = time.perf_counter() - start
    ok = worst_clone < 0.01 and worst_honest > 0.5 and elapsed < 60
    _report(
        "clone-suppression",
        ok,
        f"max clone weight {worst_clone:.2e}, min honest weight "
        f"{worst_honest:.3f}, {elapsed:.1f}s",
    )


def test_gossip_selection_distribution():
    lam = 0.8
    db = HistoryDB()
    for origin, dist in ((4, 1), (5, 2), (6, 3)):
        db.records[origin] = HistoryRecord(
            block=SignedHistory(np.zeros(3), origin, 3, b""),
            distance=dist,
            forwarder=9,
        )
    pool = filter_db(db, self_id=0)
    (keep,) = pool.eligible([1])
    assert [r.distance for r, k in zip(pool.records, keep) if k] == [1, 2, 3]
    rng = np.random.default_rng(123)
    draws = 100_000
    counts = {1: 0, 2: 0, 3: 0}
    for pick in select_gossip(pool, [1] * draws, lam, rng):
        counts[pick.distance] += 1
    weights = np.array([lam * math.exp(-lam * d) for d in (1, 2, 3)])
    expected = draws * weights / weights.sum()
    observed = np.array([counts[1], counts[2], counts[3]], dtype=float)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    # 1% upper critical value of chi-square with two degrees of freedom
    ok = chi2 < 9.210340371976184
    _report(
        "gossip-distribution",
        ok,
        f"chi2 {chi2:.3f} < 9.210, frequencies "
        + ", ".join(f"{counts[d] / draws:.3f}" for d in (1, 2, 3)),
    )


def test_outage_reconstruction_and_resume():
    cfg = SimulationConfig(
        seed=4,
        rounds=8,
        aggregator="sybilwall",
        honest_nodes=16,
        degree_bound=8,
        topology=TopologyConfig(radius=0.7),
        data=DataConfig(
            kind="blobs", classes=4, per_class=10, test_per_class=5,
            dim=16, spread=0.15, alpha=0.5,
        ),
        train=TrainSection(learning_rate=0.05, local_epochs=2, batch_size=8),
        gossip=GossipConfig(lam=0.8),
        rule_params=RuleParams(kappa=8.0),
        downtime=[DowntimeEntry(node=5, start=4, length=1)],
    )
    res = run_simulation(cfg, trace=True)
    mismatches = sum(
        not np.array_equal(vec, res.trained_trace[(sender, rnd)])
        for _, sender, rnd, vec in res.inferred_trace
    )
    lifecycle = (
        res.activity[5][3],
        res.activity[5][4],
        res.activity[5][5],
        res.activity[5][6],
    )
    counts = direct_counts(res)
    resumed = (5, 5) not in counts and counts.get((5, 6), 0) >= 1
    ok = (
        mismatches == 0
        and len(res.inferred_trace) > 0
        and lifecycle == ("active", "offline", "recovery", "active")
        and resumed
    )
    _report(
        "outage-reconstruction",
        ok,
        f"{len(res.inferred_trace)} reconstructions, {mismatches} mismatches, "
        f"lifecycle {'/'.join(lifecycle)}, aggregation back with "
        f"{counts.get((5, 6), 0)} direct models",
    )


def test_defense_cuts_attack_score_of_plain_averaging():
    start = time.perf_counter()
    (defense_acc, defense_atk), (plain_acc, plain_atk) = _means(
        _trend("sybilwall", 1.0, 0.1), _trend("fedavg", 1.0, 0.1)
    )
    elapsed = time.perf_counter() - start
    ok = (
        defense_atk < 0.5 * plain_atk
        and defense_acc >= plain_acc - 0.05
        and elapsed < 900
    )
    _report(
        "defense-vs-averaging",
        ok,
        f"attack {defense_atk:.3f} vs {plain_atk:.3f}, accuracy "
        f"{defense_acc:.3f} vs {plain_acc:.3f}, {elapsed:.0f}s",
    )


def test_dense_attack_overwhelms_plain_averaging_only():
    (plain_acc, plain_atk), (defense_acc, defense_atk) = _means(
        _trend("fedavg", 4.0, 0.1), _trend("sybilwall", 4.0, 0.1)
    )
    ok = plain_atk > 0.8 and defense_atk < 0.3
    _report(
        "dense-attack-collapse",
        ok,
        f"plain averaging attack {plain_atk:.3f} > 0.8, "
        f"defense attack {defense_atk:.3f} < 0.3",
    )


def test_extra_sybils_add_nothing():
    (_, sparse_atk), (_, dense_atk) = _means(
        _trend("sybilwall", 0.5, 0.1), _trend("sybilwall", 2.0, 0.1)
    )
    ok = dense_atk < sparse_atk
    _report(
        "sybil-density-monotonicity",
        ok,
        f"attack at phi=2 {dense_atk:.3f} < attack at phi=0.5 {sparse_atk:.3f}",
    )


def test_noniid_data_amplifies_the_attack():
    (skewed_acc, skewed_atk), (mixed_acc, mixed_atk) = _means(
        _trend("sybilwall", 1.0, 0.05), _trend("sybilwall", 1.0, 1.0)
    )
    ok = skewed_atk >= mixed_atk and mixed_acc >= skewed_acc
    _report(
        "data-skew-effect",
        ok,
        f"attack {skewed_atk:.3f} (alpha 0.05) >= {mixed_atk:.3f} (alpha 1.0), "
        f"accuracy {mixed_acc:.3f} >= {skewed_acc:.3f}",
    )


def test_attack_plan_validity_over_random_instances():
    rng = np.random.default_rng(3001)
    for trial in range(100):
        n = int(rng.integers(8, 25))
        phi = float(rng.uniform(0.1, 4.0))
        honest_g, plan, full_g = build_attack_network(
            n, 0.7, 8, phi, seed=int(rng.integers(0, 2**31))
        )
        assert len(plan.attack_edges) == math.ceil(n * phi)
        counts = plan.edges_per_honest()
        per_node = [counts.get(i, 0) for i in honest_g.nodes]
        assert max(per_node) - min(per_node) <= 1
        validate_topology(full_g)
        assert max(len(full_g.neighbors(i)) for i in full_g.nodes) <= 8
    _report(
        "attack-plan-validity",
        True,
        "100 random (graph, phi) instances: edge totals, spread, degree, "
        "connectivity all hold",
    )


def test_example_config_runs_byte_identical(tmp_path):
    cfg = load_config(QUICKSTART)
    first = run_simulation(cfg, workers=1)
    second = run_simulation(load_config(QUICKSTART), workers=3)
    first.write_outputs(tmp_path / "a")
    second.write_outputs(tmp_path / "b")
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    ok = a == b and len(a) > 0
    _report(
        "byte-identical-reruns",
        ok,
        f"{len(a)} byte csv identical across reruns and worker counts",
    )


def test_enhancements_trade_accuracy_for_suppression():
    names = ("sybilwall+median", "sybilwall+wmedian", "sybilwall+krumfilter")
    (plain_acc, plain_atk), *enhanced = _means(
        _enhancement("sybilwall"), *(_enhancement(name) for name in names)
    )
    details = [f"plain atk {plain_atk:.3f} acc {plain_acc:.3f}"]
    ok = True
    for name, (acc, atk) in zip(names, enhanced):
        details.append(f"{name.split('+')[1]} atk {atk:.3f} acc {acc:.3f}")
        ok = ok and atk <= plain_atk and plain_acc >= acc - 0.02
    _report("enhancement-tradeoff", ok, "; ".join(details))


def test_pooled_runs_equal_serial_runs():
    """The process pool changes where a run happens, never what it returns."""
    batches = _trend("sybilwall", 1.0, 0.1), _enhancement("sybilwall+krumfilter")
    configs = [dataclasses.replace(cfg, rounds=3) for b in batches for cfg in b[:2]]
    pooled = _pooled(configs)
    serial = [_final_metrics(cfg) for cfg in configs]
    _report(
        "pooled-equals-serial",
        pooled == serial,
        f"{len(configs)} short runs, final rounds "
        + ", ".join(f"{m.mean_accuracy:.3f}/{m.mean_attack_score:.3f}" for m in pooled),
    )
