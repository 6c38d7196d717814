"""Gossip layer checks: signed bytes against a hand-packed golden, signature
cover, the verifier's per-run memo, signature schemes, the relay filter,
distance-weighted selection against the per-neighbor ``rng.choice`` draw it
replaces, and receive rules."""

import gc
import math
import struct
import warnings
import weakref

import numpy as np
import pytest

from sybilsim.gossip import (
    Blake2Scheme,
    Ed25519Scheme,
    HistoryDB,
    HistoryRecord,
    MessageRejected,
    RoundMessage,
    SignedHistory,
    Signer,
    Verifier,
    compose_message,
    filter_db,
    get_scheme,
    infer_trained,
    receive_message,
    select_gossip,
    sign_payload,
    update_db,
)
from sybilsim.numerics import NumericFailure


def _record(origin, round_no=1, distance=1, forwarder=99, values=(1.0,), sig=b"s"):
    block = SignedHistory(np.array(values, dtype=np.float64), origin, round_no, sig)
    return HistoryRecord(block, distance=distance, forwarder=forwarder)


def _signer(scheme, node_id):
    private, public = scheme.keypair(struct.pack("<qq", 42, node_id))
    return Signer(scheme=scheme, node_id=node_id, private=private), public


def _own(signer, values, round_no):
    """A node's block, signed the way the engine signs it."""
    return signer.sign(np.array(values, dtype=np.float64), round_no)


BOTH_SCHEMES = pytest.mark.parametrize(
    "scheme", [Blake2Scheme(), Ed25519Scheme()], ids=lambda s: s.name
)


def _network(scheme, ids):
    signers = {}
    publics = {}
    for i in ids:
        signers[i], publics[i] = _signer(scheme, i)
    return signers, Verifier(scheme=scheme, public_keys=publics)


class TestWireFormat:
    """The bytes a signature covers: origin, round, length, history values."""

    def test_payload_golden_bytes(self):
        want = struct.pack("<III", 9, 2, 1) + struct.pack("<d", 1.0)
        assert sign_payload(np.array([1.0]), 2, 9) == want

    def test_bit_flips_never_verify(self):
        """Any single-bit change to a signed field, in the own block or the
        relayed one, fails verification."""
        scheme = Blake2Scheme()
        signers, keys = _network(scheme, [1, 6])
        record = HistoryRecord(_own(signers[6], [8.0, -1.0], 3), 2, forwarder=4)
        msg = compose_message(_own(signers[1], [0.5], 4), record)
        for block in (msg.own, msg.relayed.block):
            assert keys.check(block)
            raw = block.history.tobytes()
            for bit in range(8 * len(raw)):
                corrupt = bytearray(raw)
                corrupt[bit // 8] ^= 1 << (bit % 8)
                history = np.frombuffer(bytes(corrupt), dtype=np.float64)
                forged = SignedHistory(history, block.origin, block.round, block.signature)
                assert not keys.check(forged), f"history bit {bit} still verifies"
            for bit in range(32):
                moved = SignedHistory(
                    block.history, block.origin, block.round ^ (1 << bit), block.signature
                )
                assert not keys.check(moved), f"round bit {bit} still verifies"


    @BOTH_SCHEMES
    def test_signature_bit_flips_and_moved_origins_never_verify(self, scheme):
        """Any single-bit change to the signature, or an origin moved to
        another known node, fails verification, in the own block or the
        relayed one."""
        signers, keys = _network(scheme, [1, 4, 6])
        record = HistoryRecord(_own(signers[6], [8.0, -1.0], 3), 2, forwarder=4)
        msg = compose_message(_own(signers[1], [0.5], 4), record)
        for block in (msg.own, msg.relayed.block):
            assert keys.check(block)
            for bit in range(8 * len(block.signature)):
                corrupt = bytearray(block.signature)
                corrupt[bit // 8] ^= 1 << (bit % 8)
                forged = SignedHistory(
                    block.history, block.origin, block.round, bytes(corrupt)
                )
                assert not keys.check(forged), f"signature bit {bit} still verifies"
            for origin in sorted(set(keys.public_keys) - {block.origin}):
                moved = SignedHistory(
                    block.history, origin, block.round, block.signature
                )
                assert not keys.check(moved), f"origin moved to {origin} verifies"


class _CountingScheme:
    """A signature scheme that counts the calls to its ``verify``."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.verify_calls = 0

    def keypair(self, seed_material):
        return self.inner.keypair(seed_material)

    def sign(self, private, payload):
        return self.inner.sign(private, payload)

    def verify(self, public, payload, signature):
        self.verify_calls += 1
        return self.inner.verify(public, payload, signature)


@BOTH_SCHEMES
class TestVerifierMemo:
    """A ``Verifier`` verifies each block object once, and only its own
    answers are reused."""

    def _setup(self, scheme):
        counting = _CountingScheme(scheme)
        signers, keys = _network(counting, [1, 6])
        return counting, signers, keys

    def test_repeated_checks_verify_once(self, scheme):
        counting, signers, keys = self._setup(scheme)
        block = _own(signers[1], [0.5, -2.0], 4)
        twin = SignedHistory(block.history.copy(), 1, 4, block.signature)
        for candidate in (block, block, twin, block):
            assert keys.check(candidate)
        # the twin is another object with equal content, verified on its own
        assert counting.verify_calls == 2
        assert keys.check(_own(signers[6], [0.5, -2.0], 4))
        assert counting.verify_calls == 3
        alive = weakref.ref(block)
        del block, candidate
        gc.collect()
        assert alive() is None

    def test_fresh_verifier_verifies_again(self, scheme):
        counting, signers, keys = self._setup(scheme)
        block = _own(signers[1], [3.0], 2)
        assert keys.check(block)
        fresh = Verifier(counting, keys.public_keys)
        assert fresh.check(block)
        assert counting.verify_calls == 2

    def test_forgeries_miss_the_memo_and_fail(self, scheme):
        counting, signers, keys = self._setup(scheme)
        block = _own(signers[1], [3.0, 1.5], 5)
        assert keys.check(block)
        altered = block.history.copy()
        altered[1] = 1.75
        flipped = bytearray(block.signature)
        flipped[0] ^= 1
        forgeries = [
            SignedHistory(altered, 1, 5, block.signature),
            SignedHistory(block.history, 1, 5, bytes(flipped)),
            SignedHistory(block.history, 6, 5, block.signature),
        ]
        for forged in forgeries:
            assert not keys.check(forged)
        assert counting.verify_calls == 1 + len(forgeries)
        assert keys.check(block)
        assert counting.verify_calls == 1 + len(forgeries)

    def test_failed_block_fails_again(self, scheme):
        counting, signers, keys = self._setup(scheme)
        genuine = _own(signers[6], [8.0], 3)
        bogus = SignedHistory(genuine.history, 6, 3, bytes(len(genuine.signature)))
        assert not keys.check(bogus)
        assert not keys.check(bogus)
        assert counting.verify_calls == 1
        assert keys.check(genuine)


class TestSchemes:
    def test_blake2_round_trip(self):
        scheme = Blake2Scheme()
        private, public = scheme.keypair(b"seed")
        sig = scheme.sign(private, b"payload")
        assert scheme.verify(public, b"payload", sig)
        assert not scheme.verify(public, b"payloae", sig)
        other, _ = scheme.keypair(b"other")
        assert not scheme.verify(other, b"payload", sig)

    def test_ed25519_round_trip(self):
        scheme = Ed25519Scheme()
        private, public = scheme.keypair(b"seed")
        sig = scheme.sign(private, b"payload")
        assert scheme.verify(public, b"payload", sig)
        assert not scheme.verify(public, b"other payload", sig)
        _, stranger = scheme.keypair(b"stranger")
        assert not scheme.verify(stranger, b"payload", sig)

    def test_scheme_lookup(self):
        assert get_scheme("blake2").name == "blake2"
        assert get_scheme("ed25519").name == "ed25519"
        with pytest.raises(ValueError):
            get_scheme("rot13")


def _pool(*records, self_id=0):
    db = HistoryDB()
    for record in records:
        db.records[record.block.origin] = record
    return filter_db(db, self_id)


class TestFilterDb:
    def test_predicate_enumeration(self):
        """Exactly the records that are neither about nor from the neighbor
        survive, and never our own entry."""
        self_id, neighbor = 0, 5
        pool = _pool(
            _record(0, forwarder=3),       # own entry
            _record(5, forwarder=3),       # about the neighbor
            _record(7, forwarder=5),       # forwarded by the neighbor
            _record(2, forwarder=3),       # eligible
            _record(9, forwarder=1),       # eligible
            self_id=self_id,
        )
        assert [r.block.origin for r in pool.records] == [2, 5, 7, 9]
        (keep,) = pool.eligible([neighbor])
        got = [r for r, k in zip(pool.records, keep) if k]
        assert [r.block.origin for r in got] == [2, 9]

    def test_empty_db(self):
        pool = filter_db(HistoryDB(), 0)
        assert pool.records == []
        assert pool.eligible([1]).shape == (1, 0)


class TestSelectGossip:
    def test_empty_returns_none(self):
        rng = np.random.default_rng(0)
        assert select_gossip(filter_db(HistoryDB(), 0), [1], 0.8, rng) == [None]

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            select_gossip(_pool(_record(1)), [5], 0.0, np.random.default_rng(0))

    def test_single_record_always_chosen(self):
        rng = np.random.default_rng(1)
        rec = _record(4, distance=9)
        assert select_gossip(_pool(rec), [5], 0.8, rng)[0] is rec

    def test_one_pick_per_neighbor_in_order(self):
        """A neighbor with nothing eligible gets None and draws nothing."""
        near, far = _record(1, distance=1, forwarder=2), _record(2, distance=2, forwarder=1)
        picks = select_gossip(_pool(near, far), [1, 2, 5], 0.8, np.random.default_rng(4))
        assert picks[0] is None and picks[1] is None
        assert picks[2] in (near, far)

    def test_distance_weight_ratio(self):
        """Distances 1 and 2 at lam 0.8 should split draws as
        e^0.8 : 1, about 69 percent to the closer record."""
        rng = np.random.default_rng(7)
        near, far = _record(1, distance=1), _record(2, distance=2)
        picks = select_gossip(_pool(near, far), [5] * 20000, 0.8, rng)
        draws = sum(pick.block.origin == 1 for pick in picks)
        expect = np.exp(0.8) / (1.0 + np.exp(0.8))
        assert draws / 20000 == pytest.approx(expect, abs=0.02)

    def test_two_hop_gap_ratio(self):
        rng = np.random.default_rng(8)
        near, far = _record(1, distance=1), _record(2, distance=3)
        picks = select_gossip(_pool(near, far), [5] * 20000, 0.8, rng)
        draws = sum(pick.block.origin == 1 for pick in picks)
        expect = np.exp(1.6) / (1.0 + np.exp(1.6))
        assert draws / 20000 == pytest.approx(expect, abs=0.02)

    def test_deterministic_under_seeded_rng(self):
        pool = _pool(*(_record(i, distance=1 + i % 3) for i in range(1, 7)))
        a = select_gossip(pool, [8, 9], 0.8, np.random.default_rng(3))
        b = select_gossip(pool, [8, 9], 0.8, np.random.default_rng(3))
        assert [r.block.origin for r in a] == [r.block.origin for r in b]

    def test_underflowing_weights_fail_without_a_warning(self):
        pool = _pool(_record(1, distance=1), _record(2, distance=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure, match="lam 1000 sum to 0"):
                select_gossip(pool, [5], 1000.0, np.random.default_rng(0))

    def test_partly_underflowing_weights_still_draw(self):
        """One record whose weight underflows beside one that does not:
        the positive weight wins every draw, nothing is renormalized."""
        near, far = _record(1, distance=1), _record(2, distance=2)
        picks = select_gossip(_pool(near, far), [5] * 50, 500.0, np.random.default_rng(0))
        assert all(pick is near for pick in picks)


# The per-neighbor selection the simulator used before candidates were
# gathered once per node and round: it is the reference for every draw.
def _reference_filter(db, self_id, neighbor):
    return [
        record
        for origin, record in sorted(db.records.items())
        if origin not in (self_id, neighbor) and record.forwarder != neighbor
    ]


def _reference_select(filtered, lam, rng):
    if not filtered:
        return None
    weights = np.array([lam * math.exp(-lam * r.distance) for r in filtered])
    return filtered[rng.choice(len(filtered), p=weights / weights.sum())]


class TestSelectionReference:
    @pytest.mark.parametrize("lam", [0.05, 0.8, 3.0, 40.0])
    def test_picks_and_stream_match_per_neighbor_choice(self, lam):
        """Random databases, with and without an own entry, pools of one and
        neighbors with no candidate, all drawn from one shared stream: the
        same picks, and the stream left in the same state."""
        gen = np.random.default_rng(2024)
        ours, theirs = np.random.default_rng(99), np.random.default_rng(99)
        draws = 0
        for _ in range(300):
            self_id = int(gen.integers(0, 12))
            db = HistoryDB()
            size = int(gen.choice([0, 1, 1, 2, 5, 12]))
            for origin in gen.choice(12, size=size, replace=False).tolist():
                db.records[origin] = _record(
                    origin,
                    distance=int(gen.integers(0 if origin == self_id else 1, 7)),
                    forwarder=int(gen.integers(0, 12)),
                )
            neighbors = gen.choice(12, size=int(gen.integers(0, 8)), replace=False).tolist()
            got = select_gossip(filter_db(db, self_id), neighbors, lam, ours)
            want = [
                _reference_select(_reference_filter(db, self_id, j), lam, theirs)
                for j in neighbors
            ]
            assert len(got) == len(want)
            assert all(g is w for g, w in zip(got, want))
            draws += sum(w is not None for w in want)
        assert draws > 500
        assert ours.random() == theirs.random()


class TestUpdateDb:
    def test_insert_update_ignore(self):
        db = HistoryDB()
        assert update_db(db, _record(4, round_no=5)) == "inserted"
        assert update_db(db, _record(4, round_no=7, values=(2.0,))) == "updated"
        assert len(db) == 1
        assert db.records[4].block.round == 7
        assert update_db(db, _record(4, round_no=7, values=(9.0,))) == "ignored"
        assert update_db(db, _record(4, round_no=6)) == "ignored"
        assert np.array_equal(db.records[4].block.history, [2.0])

    def test_capacity_evicts_stalest(self):
        db = HistoryDB(capacity=2)
        update_db(db, _record(1, round_no=5))
        update_db(db, _record(2, round_no=3))
        assert update_db(db, _record(3, round_no=7)) == "inserted"
        assert sorted(db.records) == [1, 3]

    def test_eviction_tie_breaks_to_lowest_origin(self):
        db = HistoryDB(capacity=2)
        update_db(db, _record(6, round_no=4))
        update_db(db, _record(2, round_no=4))
        update_db(db, _record(5, round_no=9))
        assert sorted(db.records) == [5, 6]

    def test_stale_arrival_may_evict_itself(self):
        db = HistoryDB(capacity=1)
        update_db(db, _record(1, round_no=5))
        assert update_db(db, _record(2, round_no=3)) == "inserted"
        assert sorted(db.records) == [1]

    def test_update_never_triggers_eviction(self):
        db = HistoryDB(capacity=2)
        update_db(db, _record(1, round_no=1))
        update_db(db, _record(2, round_no=2))
        update_db(db, _record(1, round_no=9))
        assert sorted(db.records) == [1, 2]

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            HistoryDB(capacity=0)


class TestSigner:
    @BOTH_SCHEMES
    def test_sign_returns_a_block_that_verifies(self, scheme):
        signers, keys = _network(scheme, [3, 5])
        history = np.array([1.0, -2.5, 0.125])
        block = signers[3].sign(history, 6)
        assert isinstance(block, SignedHistory)
        assert (block.origin, block.round) == (3, 6)
        assert np.array_equal(block.history, history)
        assert keys.check(block)
        assert not keys.check(SignedHistory(history, 5, 6, block.signature))

    def test_block_owns_its_history(self):
        """A block keeps its own read-only copy: writing the signed array
        afterwards changes nothing, and the block's copy cannot be written
        or made writable."""
        signers, keys = _network(Blake2Scheme(), [3])
        history = np.array([1.0, -2.5, 0.125])
        block = signers[3].sign(history, 6)
        history[0] = 7.0
        assert np.array_equal(block.history, [1.0, -2.5, 0.125])
        assert keys.check(block)
        with pytest.raises(ValueError):
            block.history[0] = 7.0
        with pytest.raises(ValueError):
            block.history.flags.writeable = True


class TestComposeMessage:
    def test_own_block_verifies(self):
        scheme = Blake2Scheme()
        signers, keys = _network(scheme, [3])
        msg = compose_message(_own(signers[3], [1.0, 2.0], 6), None)
        assert msg.relayed is None
        assert keys.check(msg.own)
        assert msg.own.origin == 3 and msg.own.round == 6

    def test_relay_keeps_origin_signature_and_bumps_distance(self):
        """The sender relays its stored record; the receiver adds the hop
        and names the sender as forwarder."""
        scheme = Blake2Scheme()
        signers, keys = _network(scheme, [1, 2, 8])
        relayed = _own(signers[8], [4.0], 2)
        record = HistoryRecord(relayed, distance=3, forwarder=5)
        msg = compose_message(_own(signers[1], [0.0], 6), record)
        assert msg.relayed is record
        db = HistoryDB()
        receive_message(msg, db, None, keys, self_id=2)
        stored = db.records[8]
        assert stored.block is relayed and keys.check(stored.block)
        assert (stored.distance, stored.forwarder) == (4, 1)
        assert record.distance == 3 and record.forwarder == 5


def _block(round_no, values, origin=1):
    return SignedHistory(np.array(values, dtype=np.float64), origin, round_no, b"s")


class TestInferTrained:
    def test_consecutive_difference(self):
        got = infer_trained(_block(4, [1.0, 1.0]), _block(5, [3.0, 0.5]))
        assert np.array_equal(got, [2.0, -0.5])

    def test_unknown_previous(self):
        assert infer_trained(None, _block(5, [1.0])) is None

    def test_gap_returns_none(self):
        assert infer_trained(_block(3, [1.0]), _block(5, [2.0])) is None
        assert infer_trained(_block(5, [1.0]), _block(5, [2.0])) is None


class TestReceiveMessage:
    def _setup(self):
        scheme = Blake2Scheme()
        signers, keys = _network(scheme, [1, 2, 6])
        return scheme, signers, keys

    def test_happy_path_stores_both_blocks(self):
        _, signers, keys = self._setup()
        record = HistoryRecord(_own(signers[6], [8.0], 3), distance=2, forwarder=7)
        msg = compose_message(_own(signers[1], [3.0], 5), record)
        db = HistoryDB()
        res = receive_message(msg, db, _block(4, [1.0]), keys, self_id=2)
        assert np.array_equal(res.trained_model, [2.0])
        assert res.db_changes == {"own": "inserted", "gossip": "inserted"}
        assert db.records[1].distance == 1 and db.records[1].forwarder == 1
        assert db.records[6].distance == 3 and db.records[6].forwarder == 1

    def test_forged_own_block_rejected_whole(self):
        _, signers, keys = self._setup()
        msg = compose_message(_own(signers[1], [3.0], 5), None)
        forged = RoundMessage(
            own=SignedHistory(np.array([9.0]), 1, 5, msg.own.signature)
        )
        db = HistoryDB()
        with pytest.raises(MessageRejected, match="own block"):
            receive_message(forged, db, None, keys, self_id=2)
        assert len(db) == 0

    def test_forged_gossip_block_rejects_whole_message(self):
        _, signers, keys = self._setup()
        bogus = HistoryRecord(SignedHistory(np.array([8.0]), 6, 3, b"fake"), 2, 7)
        msg = compose_message(_own(signers[1], [3.0], 5), bogus)
        db = HistoryDB()
        with pytest.raises(MessageRejected, match="gossiped block"):
            receive_message(msg, db, None, keys, self_id=2)
        assert len(db) == 0

    def test_rejection_names_the_node_and_round(self):
        _, signers, keys = self._setup()
        forged = RoundMessage(own=SignedHistory(np.array([9.0]), 1, 5, b"fake"))
        with pytest.raises(MessageRejected, match=r"^own block from node 1 round 5 "):
            receive_message(forged, HistoryDB(), None, keys, self_id=2)
        bogus = HistoryRecord(SignedHistory(np.array([8.0]), 6, 3, b"fake"), 2, 7)
        msg = compose_message(_own(signers[1], [3.0], 5), bogus)
        with pytest.raises(MessageRejected, match=r"^gossiped block from node 6 round 3 "):
            receive_message(msg, HistoryDB(), None, keys, self_id=2)

    def test_unknown_origin_rejected(self):
        scheme = Blake2Scheme()
        signers, _ = _network(scheme, [9])
        _, _, keys = self._setup()
        msg = compose_message(_own(signers[9], [1.0], 2), None)
        with pytest.raises(MessageRejected):
            receive_message(msg, HistoryDB(), None, keys, self_id=2)

    def test_regressing_round_rejected(self):
        _, signers, keys = self._setup()
        msg = compose_message(_own(signers[1], [3.0], 2), None)
        with pytest.raises(MessageRejected, match="regresses"):
            receive_message(msg, HistoryDB(), _block(4, [1.0]), keys, self_id=2)

    def test_gossip_about_self_ignored(self):
        _, signers, keys = self._setup()
        about_me = HistoryRecord(_own(signers[2], [5.0], 3), distance=2, forwarder=7)
        msg = compose_message(_own(signers[1], [3.0], 5), about_me)
        db = HistoryDB()
        res = receive_message(msg, db, None, keys, self_id=2)
        assert res.db_changes["gossip"] is None
        assert 2 not in db.records

    def test_repeat_delivery_ignored(self):
        _, signers, keys = self._setup()
        msg = compose_message(_own(signers[1], [3.0], 5), None)
        db = HistoryDB()
        receive_message(msg, db, None, keys, self_id=2)
        res = receive_message(msg, db, _block(5, [3.0]), keys, self_id=2)
        assert res.db_changes["own"] == "ignored"


class TestRecordValidation:
    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            _record(1, distance=-1)
        with pytest.raises(ValueError):
            _record(1, round_no=-1)

    def test_non_vector_history_rejected(self):
        with pytest.raises(ValueError):
            HistoryRecord(SignedHistory(np.zeros((2, 2)), 1, 1, b"s"), 1, 1)
