"""End-to-end behaviour of the synchronous round engine.

These tests run small simulations and check the global invariants the
engine promises: bit-identical reruns, lossless message accounting,
dropping of messages that fail verification, exact history
reconstruction on the receiver side, and the offline / recovery
lifecycle.
"""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

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
from sybilsim.data import LabelFlip, synth_blobs
import sybilsim.engine
from sybilsim.engine import (
    CSV_HEADER,
    HISTORY_GRID,
    _adversary_draw,
    _NodeState,
    _receive_all,
    run_simulation,
)
from sybilsim.gossip import (
    Blake2Scheme,
    HistoryDB,
    RoundMessage,
    SignedHistory,
    Signer,
    Verifier,
    compose_message,
    get_scheme,
)
from sybilsim.numerics import NumericFailure
from test_golden import backdoor, label_flip
from test_gossip import _CountingScheme


def _cfg(**over):
    """Small, fast baseline run: 8 honest nodes, no attack, 6 rounds."""
    base = dict(
        seed=11,
        rounds=6,
        aggregator="fedavg",
        honest_nodes=8,
        degree_bound=8,
        topology=TopologyConfig(radius=0.7),
        data=DataConfig(
            kind="blobs",
            classes=4,
            per_class=10,
            test_per_class=5,
            dim=16,
            spread=0.15,
            alpha=0.5,
        ),
        train=TrainSection(learning_rate=0.05, local_epochs=2, batch_size=8),
        gossip=GossipConfig(lam=0.8),
    )
    base.update(over)
    return SimulationConfig(**base)


def _attack_cfg(**over):
    base = dict(
        aggregator="sybilwall",
        attack=AttackConfig(
            kind="backdoor", phi=1.0, target=2, pattern_size=3, pattern_value=1.0
        ),
        rule_params=RuleParams(kappa=8.0),
        rounds=8,
    )
    base.update(over)
    return _cfg(**base)


def _on_grid(vec):
    scaled = vec * HISTORY_GRID
    return np.array_equal(scaled, np.round(scaled))


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        a = run_simulation(_cfg())
        b = run_simulation(_cfg())
        assert a.metrics_csv() == b.metrics_csv()
        assert a.message_counts == b.message_counts
        for i in a.final_models:
            assert np.array_equal(a.final_models[i], b.final_models[i])
            assert np.array_equal(a.final_histories[i], b.final_histories[i])

    def test_seed_changes_results(self):
        a = run_simulation(_cfg(seed=11))
        b = run_simulation(_cfg(seed=12))
        assert a.metrics_csv() != b.metrics_csv()

    def test_attack_run_is_bit_identical(self):
        a = run_simulation(_attack_cfg())
        b = run_simulation(_attack_cfg())
        assert a.metrics_csv() == b.metrics_csv()
        for i in a.final_models:
            assert np.array_equal(a.final_models[i], b.final_models[i])


class TestMessageAccounting:
    def test_every_link_carries_mail_each_round(self):
        res = run_simulation(_cfg())
        expected = 2 * len(res.topology.edges)
        assert res.message_counts == [expected] * res.config.rounds

    def test_attack_graph_links_are_counted(self):
        res = run_simulation(_attack_cfg())
        # Sybils compose to their neighbors like everyone else, so the
        # per-round total is still twice the edge count of the full graph.
        expected = 2 * len(res.topology.edges)
        assert len(res.topology.sybils) >= 1
        assert res.message_counts == [expected] * res.config.rounds

    def test_each_node_signs_once_per_round(self, monkeypatch):
        """Every neighbor gets the same signed own block, so a node that
        composes to several neighbors still signs its history only once."""
        signed = []
        sign = Signer.sign

        def counting(signer, history, round_no):
            signed.append((signer.node_id, round_no))
            return sign(signer, history, round_no)

        monkeypatch.setattr(Signer, "sign", counting)
        res = run_simulation(_attack_cfg())
        assert max(res.topology.degree(i) for i in res.topology.nodes) > 1
        rounds = range(res.config.rounds)
        assert sorted(signed) == [(i, r) for i in sorted(res.topology.nodes) for r in rounds]

    def test_offline_node_composes_nothing(self):
        cfg = _cfg(rounds=7, downtime=[DowntimeEntry(node=3, start=3, length=1)])
        res = run_simulation(cfg)
        full = 2 * len(res.topology.edges)
        deg = len(res.topology.neighbors(3))
        assert deg > 0
        # composed counts are taken before delivery drops mail, so the
        # round before the outage still shows full traffic
        assert res.message_counts[2] == full
        assert res.message_counts[3] == full - deg  # offline: silent
        assert res.message_counts[4] == full - deg  # recovery: collect only
        assert res.message_counts[5] == full


class TestPhases:
    def test_each_round_evaluates_then_trains_then_composes(self, monkeypatch):
        """A round evaluates every honest node before any node trains, and
        trains every start model before any message is composed."""
        calls = []
        for name in ("evaluate_accuracy", "train_sgd", "compose_message"):

            def recording(*args, _name=name, _call=getattr(sybilsim.engine, name)):
                calls.append(_name)
                return _call(*args)

            monkeypatch.setattr(sybilsim.engine, name, recording)
        cfg = _attack_cfg(rounds=5, downtime=[DowntimeEntry(node=3, start=2, length=1)])
        res = run_simulation(cfg)
        blocks = [(name, len(list(run))) for name, run in itertools.groupby(calls)]
        phases = ["evaluate_accuracy", "train_sgd", "compose_message"]
        assert [name for name, _ in blocks] == phases * cfg.rounds
        evaluated = [n for name, n in blocks if name == "evaluate_accuracy"]
        assert evaluated == [len(res.topology.honest)] * cfg.rounds
        assert [n for name, n in blocks if name == "compose_message"] == res.message_counts

    def test_each_up_node_reads_its_database_once_per_round(self, monkeypatch):
        """The receive pass takes each up node's gossip pool once, and both
        aggregation and relays read that pool: evaluation splits the rounds,
        and no read follows the last one."""
        calls = []
        read, evaluate = sybilsim.engine.filter_db, sybilsim.engine.evaluate_accuracy

        def counting_read(db, self_id):
            calls.append(self_id)
            return read(db, self_id)

        def marking_evaluate(*args):
            calls.append("evaluate")
            return evaluate(*args)

        monkeypatch.setattr(sybilsim.engine, "filter_db", counting_read)
        monkeypatch.setattr(sybilsim.engine, "evaluate_accuracy", marking_evaluate)
        cfg = _attack_cfg(rounds=5, downtime=[DowntimeEntry(node=3, start=2, length=1)])
        res = run_simulation(cfg)
        assert res.topology.sybils and calls[-1] == "evaluate"
        reads = [
            list(run)
            for evaluating, run in itertools.groupby(calls, key=lambda c: c == "evaluate")
            if not evaluating
        ]
        up = [
            [i for i in sorted(res.topology.nodes) if (i, rnd) != (3, 2)]
            for rnd in range(cfg.rounds)
        ]
        assert reads == up


class TestGossipStore:
    def test_every_store_counts_hops_on_receipt(self, monkeypatch):
        """On the golden label-flip run (relaying Sybils, a node offline for
        three rounds) every store read at each round holds no record of its
        own node, distance 1 where the origin forwarded its own block, and
        at least 2 for every relayed one.  Only ``receive_message`` writes
        a store."""
        read = sybilsim.engine.filter_db
        seen = Counter()

        def checking_read(db, self_id):
            for origin, record in db.records.items():
                assert origin == record.block.origin != self_id
                direct = record.forwarder == origin
                assert (record.distance == 1) if direct else (record.distance >= 2)
                seen[direct] += 1
            return read(db, self_id)

        monkeypatch.setattr(sybilsim.engine, "filter_db", checking_read)
        run_simulation(label_flip())
        assert seen[True] > 0 and seen[False] > 0


class TestVerifierTraffic:
    """The verifier remembers verdicts by block object, which saves work only
    while every receiver gets the object its origin signed: one block per
    (origin, round), verified once however far it is relayed."""

    @pytest.mark.parametrize("build", [label_flip, backdoor], ids=lambda b: b.__name__)
    def test_one_block_object_per_origin_and_round(self, monkeypatch, build):
        schemes = []

        def counting_scheme(name):
            schemes.append(_CountingScheme(get_scheme(name)))
            return schemes[-1]

        check = Verifier.check
        blocks = {}
        calls = 0

        def recording_check(self, block):
            nonlocal calls
            calls += 1
            # holding each block keeps its id from being reused
            blocks.setdefault((block.origin, block.round), {})[id(block)] = block
            return check(self, block)

        monkeypatch.setattr(sybilsim.engine, "get_scheme", counting_scheme)
        monkeypatch.setattr(Verifier, "check", recording_check)
        run_simulation(build())
        assert calls > len(blocks) > 0
        assert all(len(objects) == 1 for objects in blocks.values())
        assert schemes[0].verify_calls == len(blocks)


def direct_counts(res):
    """Neighbor models each honest node aggregated, keyed (node, round), for
    the rounds it was active and received any: every inferred model it
    received that round, read off a traced run."""
    counts = Counter()
    for receiver, _, trained_in, _ in res.inferred_trace:
        if res.activity.get(receiver, {}).get(trained_in + 1) == "active":
            counts[(receiver, trained_in + 1)] += 1
    return dict(counts)


class TestGossipCapacity:
    """The gossip database feeds relays and the indirect scoring pool only:
    every neighbor model received is aggregated, whatever its capacity."""

    @pytest.mark.parametrize("rule", ["sybilwall", "foolsgold"])
    def test_capacity_below_degree_aggregates_every_neighbor(self, rule):
        bounded = run_simulation(
            _attack_cfg(aggregator=rule, gossip=GossipConfig(lam=0.8, capacity=1)),
            trace=True,
        )
        unbounded = run_simulation(_attack_cfg(aggregator=rule), trace=True)
        assert len(bounded.metrics) == bounded.config.rounds
        assert len(unbounded.metrics) == unbounded.config.rounds
        assert max(direct_counts(bounded).values()) > 1
        assert direct_counts(bounded) == direct_counts(unbounded)


def _tampered_run(monkeypatch, tamper, rounds=8, **over):
    """Run ``_cfg`` with node 0's outgoing messages passed through ``tamper``."""
    import sybilsim.engine as engine

    compose = engine.compose_message

    def wrapped(own, selected):
        msg = compose(own, selected)
        return tamper(msg) if own.origin == 0 else msg

    monkeypatch.setattr(engine, "compose_message", wrapped)
    return run_simulation(_cfg(rounds=rounds, **over), trace=True)


def _rounds_inferred_from(res, sender):
    return {r for (_, s, r, _) in res.inferred_trace if s == sender}


class TestRejectedMessages:
    """A message that fails verification is dropped whole and counted; the
    run goes on, and the receiver keeps what it knew about the sender."""

    def test_forged_history_is_dropped_and_counted(self, monkeypatch):
        def forge(msg):
            if msg.own.round != 3:
                return msg
            altered = msg.own.history.copy()
            altered[0] += 1.0
            own = SignedHistory(altered, msg.own.origin, 3, msg.own.signature)
            return RoundMessage(own, msg.relayed)

        res = _tampered_run(monkeypatch, forge)
        deg = len(res.topology.neighbors(0))
        assert deg > 0
        assert len(res.metrics) == res.config.rounds
        assert res.rejected_counts == [0, 0, 0, 0, deg, 0, 0, 0]
        # round 3 never arrived, so round 4 has no predecessor to diff against
        assert _rounds_inferred_from(res, 0) == {1, 2, 5, 6}
        for _, sender, rnd, vec in res.inferred_trace:
            assert np.array_equal(vec, res.trained_trace[(sender, rnd)])

    def test_replayed_older_round_is_dropped_and_counted(self, monkeypatch):
        sent = {}

        def replay(msg):
            sent[msg.own.round] = msg
            return sent[3] if msg.own.round == 5 else msg

        res = _tampered_run(monkeypatch, replay, rounds=9)
        deg = len(res.topology.neighbors(0))
        assert res.rejected_counts == [0, 0, 0, 0, 0, 0, deg, 0, 0]
        # receivers still hold round 4, so round 6 cannot be diffed but 7 can
        assert _rounds_inferred_from(res, 0) == {1, 2, 3, 4, 7}
        for _, sender, rnd, vec in res.inferred_trace:
            assert np.array_equal(vec, res.trained_trace[(sender, rnd)])

    def test_receiver_keeps_its_state_for_a_rejected_sender(self):
        scheme = Blake2Scheme()
        keys = {i: scheme.keypair(bytes([i])) for i in (1, 2, 3)}
        verifier = Verifier(scheme, {i: pub for i, (_, pub) in keys.items()})
        signers = {i: Signer(scheme, i, priv) for i, (priv, _) in keys.items()}
        state = _NodeState(
            id=3, model=np.zeros(1), history=np.zeros(1), db=HistoryDB(),
            prev_known={1: SignedHistory(np.array([2.0]), 1, 4, b"s")},
            dataset=None, signer=signers[3],
            neighbors=[1, 2], rule="fedavg", epochs=1, relays=True,
        )
        good = compose_message(signers[2].sign(np.array([5.0]), 5), None)
        sent = compose_message(signers[1].sign(np.array([7.0]), 5), None)
        forged = RoundMessage(SignedHistory(np.array([9.0]), 1, 5, sent.own.signature))
        inferred, rejected = _receive_all(state, [forged, good], verifier)
        assert rejected == 1
        assert inferred == {}
        assert sorted(state.db.records) == [2]
        assert state.prev_known[1].round == 4
        assert np.array_equal(state.prev_known[1].history, [2.0])
        assert state.prev_known[2].round == 5

    def test_clean_run_rejects_nothing(self):
        res = run_simulation(_attack_cfg())
        assert res.rejected_counts == [0] * res.config.rounds


class TestEd25519Runs:
    """Real signatures verify like the blake2 stand-in: a clean run matches
    the blake2 run byte for byte, and a forgery is still dropped."""

    def test_clean_backdoor_run_equals_the_blake2_run(self):
        def run(scheme):
            cfg = load_config(
                Path(__file__).resolve().parents[1]
                / "demos" / "configs" / "backdoor_enhancements.yaml"
            )
            cfg.rounds = 12
            cfg.gossip.scheme = scheme
            return run_simulation(cfg.validate())

        ed, blake = run("ed25519"), run("blake2")
        assert ed.rejected_counts == [0] * ed.config.rounds
        assert ed.metrics_csv() == blake.metrics_csv()
        assert sorted(ed.final_models) == sorted(blake.final_models)
        for i in ed.final_models:
            assert ed.final_models[i].tobytes() == blake.final_models[i].tobytes()
            assert ed.final_histories[i].tobytes() == blake.final_histories[i].tobytes()

    def test_forged_history_is_dropped_and_counted(self, monkeypatch):
        def forge(msg):
            if msg.own.round != 3:
                return msg
            altered = msg.own.history.copy()
            altered[0] += 1.0
            own = SignedHistory(altered, msg.own.origin, 3, msg.own.signature)
            return RoundMessage(own, msg.relayed)

        ed25519 = GossipConfig(lam=0.8, scheme="ed25519")
        res = _tampered_run(monkeypatch, forge, gossip=ed25519)
        deg = len(res.topology.neighbors(0))
        assert deg > 0
        assert res.rejected_counts == [0, 0, 0, 0, deg, 0, 0, 0]
        assert _rounds_inferred_from(res, 0) == {1, 2, 5, 6}
        for _, sender, rnd, vec in res.inferred_trace:
            assert np.array_equal(vec, res.trained_trace[(sender, rnd)])


class TestSignatureBackendImport:
    def test_only_ed25519_configs_load_cryptography(self):
        # a fresh interpreter, since this one has imported the backend already
        child = """\
import sys
from sybilsim.config import config_from_dict
from sybilsim.engine import run_simulation
from test_golden import label_flip

run_simulation(label_flip())
assert "cryptography" not in sys.modules, "a blake2 run loaded cryptography"
config_from_dict({"gossip": {"scheme": "ed25519"}})
assert "cryptography" in sys.modules, "validating an ed25519 config did not load it"
"""
        roots = [Path(sybilsim.engine.__file__).resolve().parents[1], Path(__file__).parent]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, roots)))
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr


class TestNumericFailure:
    @pytest.mark.parametrize("learning_rate", [1e300, 1e308])
    def test_overflow_names_the_node_and_round(self, learning_rate):
        train = TrainSection(learning_rate=learning_rate, local_epochs=2, batch_size=8)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericFailure, match=r"^node 0 round 0: "):
                run_simulation(_cfg(train=train))

    @pytest.mark.parametrize(
        "aggregator",
        ["sybilwall", "sybilwall+krumfilter", "sybilwall+median", "sybilwall+wmedian",
         "foolsgold", "krum", "multikrum"],
    )
    def test_unscorable_histories_name_the_node_and_round(self, aggregator):
        """At learning rate 1e200 the models stay on the history grid, but by
        round 2 the history norms overflow and no cosine can be scored, and
        the squared distances between models overflow so Krum cannot rank."""
        train = TrainSection(learning_rate=1e200, local_epochs=2, batch_size=8)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericFailure, match=r"^node 0 round 2: "):
                run_simulation(_cfg(aggregator=aggregator, train=train))

    def test_underflowing_gossip_weights_name_the_node_round_and_lam(self):
        """lam 1000 passes validation, but every exp(-lam * d) underflows once
        a database holds its first records, in round 1."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NumericFailure, match=r"^node \d+ round 1: gossip weights at lam 1000 "
            ):
                run_simulation(_cfg(gossip=GossipConfig(lam=1000.0), rounds=3))


class TestReconstruction:
    def setup_method(self):
        self.res = run_simulation(_cfg(), trace=True)

    def test_history_is_sum_of_trained_models(self):
        res = self.res
        for i in res.final_models:
            total = np.zeros_like(res.final_histories[i])
            for rnd in range(res.config.rounds):
                total = total + res.trained_trace[(i, rnd)]
            assert np.array_equal(total, res.final_histories[i])

    def test_receivers_reconstruct_sender_models_exactly(self):
        res = self.res
        assert len(res.inferred_trace) > 0
        for receiver, sender, rnd, vec in res.inferred_trace:
            assert receiver != sender
            assert np.array_equal(vec, res.trained_trace[(sender, rnd)])

    def test_every_live_link_reconstructs_every_eligible_round(self):
        # model of round r is inferred at step r+1 from two consecutive
        # histories, so rounds 1 .. rounds-2 are covered on every edge
        res = self.res
        directed = 2 * len(res.topology.edges)
        per_round = {}
        for _, _, rnd, _ in res.inferred_trace:
            per_round[rnd] = per_round.get(rnd, 0) + 1
        assert per_round == {
            r: directed for r in range(1, res.config.rounds - 1)
        }

    def test_trained_models_sit_on_the_shared_grid(self):
        res = self.res
        for vec in res.trained_trace.values():
            assert _on_grid(vec)
        for hist in res.final_histories.values():
            assert _on_grid(hist)


class TestDowntime:
    def setup_method(self):
        cfg = _cfg(rounds=7, downtime=[DowntimeEntry(node=3, start=3, length=1)])
        self.res = run_simulation(cfg, trace=True)

    def test_activity_lifecycle(self):
        act = self.res.activity
        assert act[3][2] == "active"
        assert act[3][3] == "offline"
        assert act[3][4] == "recovery"
        assert act[3][5] == "active"
        for i, per_round in act.items():
            if i == 3:
                continue
            assert set(per_round.values()) == {"active"}

    def test_no_training_while_down(self):
        trace = self.res.trained_trace
        assert (3, 2) in trace
        assert (3, 3) not in trace
        assert (3, 4) not in trace
        assert (3, 5) in trace

    def test_history_still_telescopes(self):
        res = self.res
        total = np.zeros_like(res.final_histories[3])
        for rnd in range(res.config.rounds):
            if (3, rnd) in res.trained_trace:
                total = total + res.trained_trace[(3, rnd)]
        assert np.array_equal(total, res.final_histories[3])

    def test_reconstruction_gap_spans_the_outage(self):
        rounds_from_3 = {r for (_, s, r, _) in self.res.inferred_trace if s == 3}
        rounds_to_3 = {r for (i, _, r, _) in self.res.inferred_trace if i == 3}
        # neighbors reconstruct node 3 up to round 2, then lose the chain
        # until two consecutive deliveries exist again
        assert 2 in rounds_from_3
        assert rounds_from_3.isdisjoint({3, 4, 5})
        # node 3 misses the mail sent while it was down and needs one
        # round back on line before differences line up again
        assert 1 in rounds_to_3
        assert rounds_to_3.isdisjoint({2, 3})
        assert 4 in rounds_to_3

    def test_metrics_cover_every_round(self):
        res = self.res
        assert [m.round for m in res.metrics] == list(range(res.config.rounds))
        assert all(math.isfinite(m.mean_accuracy) for m in res.metrics)

    def test_offline_at_the_end_freezes_the_model(self):
        frozen = run_simulation(
            _cfg(rounds=5, downtime=[DowntimeEntry(node=3, start=4, length=1)])
        )
        short = run_simulation(_cfg(rounds=4))
        assert frozen.activity[3][4] == "offline"
        assert np.array_equal(frozen.final_models[3], short.final_models[3])


class TestNoAttackRuns:
    def test_attack_column_is_nan_without_an_attack(self):
        res = run_simulation(_cfg())
        assert all(math.isnan(m.mean_attack_score) for m in res.metrics)
        for line in res.metrics_csv().strip().split("\n")[1:]:
            assert line.endswith(",nan")

    @pytest.mark.parametrize("aggregator", ["fedavg", "sybilwall"])
    def test_honest_network_learns(self, aggregator):
        cfg = SimulationConfig(
            seed=1,
            rounds=100,
            aggregator=aggregator,
            honest_nodes=16,
            degree_bound=8,
            topology=TopologyConfig(radius=0.45),
            data=DataConfig(
                kind="blobs",
                classes=10,
                per_class=40,
                test_per_class=25,
                dim=64,
                spread=0.12,
                alpha=0.1,
            ),
            train=TrainSection(learning_rate=0.05, local_epochs=10, batch_size=8),
            gossip=GossipConfig(lam=0.8, capacity=9),
            rule_params=RuleParams(kappa=8.0),
        )
        res = run_simulation(cfg)
        assert res.metrics[-1].mean_accuracy >= 0.85


class TestAdversary:
    def test_all_sybils_share_one_model(self):
        cfg = _attack_cfg()
        cfg.attack.phi = 2.0  # enough attack edges to need several sybils
        res = run_simulation(cfg, trace=True)
        sybils = sorted(res.topology.sybils)
        assert len(sybils) >= 2
        for rnd in range(res.config.rounds):
            first = res.trained_trace[(sybils[0], rnd)]
            for s in sybils[1:]:
                assert np.array_equal(first, res.trained_trace[(s, rnd)])

    def test_attack_scores_are_reported(self):
        res = run_simulation(_attack_cfg())
        for m in res.metrics:
            assert 0.0 <= m.mean_attack_score <= 1.0

    def test_label_flip_draw_favors_the_swapped_classes(self):
        pool = synth_blobs(classes=4, per_class=30, dim=8, spread=0.2, seed=5)
        rng = np.random.default_rng(9)
        idx = _adversary_draw(pool, LabelFlip(0, 2), 40, rng)
        assert len(idx) == 40
        assert len(np.unique(idx)) == 40
        swapped = np.isin(pool.labels[idx], [0, 2]).sum()
        assert swapped >= 20

    def test_backdoor_draw_is_uniform_sample(self):
        pool = synth_blobs(classes=4, per_class=10, dim=8, spread=0.2, seed=5)
        rng = np.random.default_rng(9)
        idx = _adversary_draw(pool, None, 12, rng)
        assert len(idx) == 12
        assert len(np.unique(idx)) == 12
        assert idx.min() >= 0 and idx.max() < len(pool)

    @pytest.mark.parametrize("spec", [LabelFlip(0, 2), LabelFlip(1, 3), None])
    def test_draw_matches_setdiff_reference(self, spec):
        # the remainder comes from a boolean mask; it must be the sorted
        # indices np.setdiff1d gives, so rng.choice draws the same samples
        def reference(train_set, spec, size, rng):
            chosen = np.empty(0, dtype=np.intp)
            if spec is not None:
                segment = np.flatnonzero(
                    (train_set.labels == spec.t1) | (train_set.labels == spec.t2)
                )
                want = min(len(segment), size - size // 2)
                if want > 0:
                    chosen = np.sort(rng.choice(segment, size=want, replace=False))
            rest = np.setdiff1d(np.arange(len(train_set)), chosen)
            fill = min(len(rest), size - len(chosen))
            if fill > 0:
                extra = rng.choice(rest, size=fill, replace=False)
                chosen = np.sort(np.concatenate([chosen, extra]))
            return chosen

        pool = synth_blobs(classes=4, per_class=10, dim=8, spread=0.2, seed=5)
        for size in (1, 2, 7, 20, 39, 40, 55):
            for seed in range(5):
                got = _adversary_draw(pool, spec, size, np.random.default_rng(seed))
                want = reference(pool, spec, size, np.random.default_rng(seed))
                np.testing.assert_array_equal(got, want)


class TestSparseData:
    def test_nodes_without_samples_still_participate(self):
        # 4 training samples over 6 nodes leaves some nodes empty; they
        # keep broadcasting their aggregate instead of training
        cfg = _cfg(
            honest_nodes=6,
            rounds=4,
            data=DataConfig(
                kind="blobs",
                classes=2,
                per_class=2,
                test_per_class=4,
                dim=8,
                spread=0.15,
                alpha=0.5,
            ),
        )
        res = run_simulation(cfg, trace=True)
        for i in res.final_models:
            total = np.zeros_like(res.final_histories[i])
            for rnd in range(cfg.rounds):
                total = total + res.trained_trace[(i, rnd)]
            assert np.array_equal(total, res.final_histories[i])


class TestOutputs:
    def test_csv_shape(self):
        res = run_simulation(_cfg())
        lines = res.metrics_csv().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == res.config.rounds + 1

    def test_write_outputs(self, tmp_path):
        res = run_simulation(_cfg())
        res.write_outputs(tmp_path)
        csv_text = (tmp_path / "metrics.csv").read_text()
        assert csv_text == res.metrics_csv()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["sybil_count"] == 0
        assert manifest["scenario"] is None
        assert manifest["config"]["aggregator"] == "fedavg"

    def test_attack_manifest_names_the_scenario(self, tmp_path):
        res = run_simulation(_attack_cfg(rounds=3))
        res.write_outputs(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["sybil_count"] == len(res.topology.sybils)
        assert manifest["scenario"] in ("dense", "sparse", "distributed")

    def test_git_timeout_reads_unknown(self, tmp_path, monkeypatch):
        def hang(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        res = run_simulation(_cfg(rounds=1))
        monkeypatch.setattr(subprocess, "run", hang)
        res.write_outputs(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["git_describe"] == "unknown"

    def test_failed_manifest_leaves_no_manifest_file(self, tmp_path, monkeypatch):
        def broken(self):
            raise RuntimeError("manifest failed")

        res = run_simulation(_cfg(rounds=1))
        monkeypatch.setattr(sybilsim.engine.RunResult, "manifest", broken)
        with pytest.raises(RuntimeError, match="manifest failed"):
            res.write_outputs(tmp_path)
        assert (tmp_path / "metrics.csv").read_text() == res.metrics_csv()
        assert not (tmp_path / "manifest.json").exists()

    def test_manifest_describes_the_package_checkout(self, tmp_path, monkeypatch):
        package_dir = Path(sybilsim.engine.__file__).resolve().parent
        git = shutil.which("git")
        inside = git and subprocess.run(
            [git, "rev-parse", "--is-inside-work-tree"],
            cwd=package_dir,
            capture_output=True,
            text=True,
        )
        if not inside or inside.stdout.strip() != "true":
            pytest.skip("the package directory is not in a git work tree")
        want = subprocess.run(
            [git, "describe", "--always", "--dirty"],
            cwd=package_dir,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        monkeypatch.chdir(tmp_path)
        res = run_simulation(_cfg(rounds=1))
        res.write_outputs(tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["git_describe"] == want


class TestPaperScale:
    def test_rerun_is_bit_identical(self):
        """The paper-scale shape: config defaults (99 honest nodes, sybilwall)
        at radius 0.2 from topology seed 1, label flip at phi = 1."""
        cfg = SimulationConfig(
            seed=1,
            rounds=3,
            topology=TopologyConfig(radius=0.2, seed=1),
            attack=AttackConfig(kind="label_flip", phi=1.0),
        )
        a, b = run_simulation(cfg), run_simulation(cfg)
        assert len(a.topology.honest) == 99
        assert a.metrics_csv() == b.metrics_csv()
        for i in a.topology.honest:
            assert np.array_equal(a.final_models[i], b.final_models[i])
            assert np.array_equal(a.final_histories[i], b.final_histories[i])
        assert a.rejected_counts == b.rejected_counts == [0, 0, 0]
