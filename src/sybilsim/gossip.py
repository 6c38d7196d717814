"""Signed model-history gossip: records, databases, selection, signatures, inference.

Every gossip record is built here.  ``Signer.sign`` makes a node's signed
block, a message relays one record of the sender's store as stored, and
``receive_message`` files the sender's block at distance 1 and the relayed
one a hop further.  Each node keeps one record per known origin and relays
one to every neighbor each round, preferring records gathered close by.  A
node gathers its candidates and their weights once a round and masks them
per neighbor; each pick draws exactly what ``Generator.choice`` with
probabilities would.  Receivers recover a sender's trained model as the
difference of its two most recent histories, so raw models never travel.

A signature covers, little-endian: u32 origin | u32 round | u32 vec_len |
f64 * vec_len, the raw history values last.  A block never changes once
signed, so a run's ``Verifier`` checks each block object once.  Only
ed25519 loads the ``cryptography`` package, when an ``Ed25519Scheme`` is
built.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import struct
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .numerics import NumericFailure

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
        Ed25519PublicKey,
    )


class MessageRejected(RuntimeError):
    """An incoming message failed verification and was discarded whole."""


@dataclass(frozen=True, eq=False)
class SignedHistory:
    """A history vector bound to its origin and round by a signature.  Fixed
    once built, it owns a read-only copy of the history (no flag can make it
    writable) and compares and hashes by identity."""

    history: np.ndarray
    origin: int
    round: int
    signature: bytes

    def __post_init__(self):
        history = np.asarray(self.history, dtype=np.float64)
        if history.ndim != 1:
            raise ValueError("history must be a 1-D vector")
        if self.round < 0:
            raise ValueError("round must be >= 0")
        object.__setattr__(self, "history", np.frombuffer(history.tobytes()))


@dataclass(frozen=True)
class HistoryRecord:
    """One stored history: the signed block as received, and how it got here.

    ``distance`` counts forwarding hops: 1 for a block taken straight from
    its origin, one more than its forwarder's record for a relayed one.  A
    node's own entry is never stored: ``receive_message`` drops a relayed
    block of the receiver's own.  The block keeps the ORIGIN's signature, so
    the record can be relayed as stored without any ability to forge it.
    """

    block: SignedHistory
    distance: int
    forwarder: int

    def __post_init__(self):
        if self.distance < 0:
            raise ValueError("distance must be >= 0")


@dataclass
class HistoryDB:
    """At most one record per origin; newest round wins."""

    capacity: Optional[int] = None
    records: Dict[int, HistoryRecord] = field(default_factory=dict)

    def __post_init__(self):
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("capacity must be >= 1 when set")

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class RoundMessage:
    """What one node sends one neighbor in one round.

    ``own`` is the sender's freshly signed history; ``relayed`` is one record
    of the sender's store as stored, and the receiver counts the extra hop.
    """

    own: SignedHistory
    relayed: Optional[HistoryRecord] = None


# --- signatures ------------------------------------------------------------


def sign_payload(history: np.ndarray, round_no: int, origin: int) -> bytes:
    """Canonical bytes a signature covers: ids, round, then raw values."""
    values = np.ascontiguousarray(history, dtype="<f8")
    return struct.pack("<III", origin, round_no, values.size) + values.tobytes()


class Blake2Scheme:
    """Keyed-hash stand-in for tests: same key signs and verifies."""

    name = "blake2"

    def keypair(self, seed_material: bytes):
        key = hashlib.blake2b(seed_material, digest_size=32).digest()
        return key, key

    def sign(self, private, payload: bytes) -> bytes:
        return hashlib.blake2b(payload, key=private, digest_size=32).digest()

    def verify(self, public, payload: bytes, signature: bytes) -> bool:
        return hmac.compare_digest(self.sign(public, payload), signature)


class Ed25519Scheme:
    """Real asymmetric signatures; the private key never leaves its node.
    Building one imports ``cryptography``, as validating an ed25519 config does."""

    name = "ed25519"

    def __init__(self):
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
        self._key_type, self._invalid = Ed25519PrivateKey, InvalidSignature

    def keypair(self, seed_material: bytes):
        seed = hashlib.blake2b(seed_material, digest_size=32).digest()
        private = self._key_type.from_private_bytes(seed)
        return private, private.public_key()

    def sign(self, private: Ed25519PrivateKey, payload: bytes) -> bytes:
        return private.sign(payload)

    def verify(
        self, public: Ed25519PublicKey, payload: bytes, signature: bytes
    ) -> bool:
        try:
            public.verify(signature, payload)
            return True
        except self._invalid:
            return False


SCHEMES = {"blake2": Blake2Scheme, "ed25519": Ed25519Scheme}


def get_scheme(name: str):
    """A fresh scheme; ImportError when its backend is not installed."""
    try:
        return SCHEMES[name]()
    except KeyError:
        raise ValueError(f"must be one of {', '.join(SCHEMES)}, not {name!r}") from None


@dataclass(frozen=True)
class Signer:
    """A node's signing identity: it turns a history into the node's block."""

    scheme: object
    node_id: int
    private: object

    def sign(self, history: np.ndarray, round_no: int) -> SignedHistory:
        signature = self.scheme.sign(
            self.private, sign_payload(history, round_no, self.node_id)
        )
        return SignedHistory(history, self.node_id, round_no, signature)


@dataclass(frozen=True)
class Verifier:
    """Directory of public keys for checking any node's blocks.

    The engine hands one block object to many receivers, so each block is
    verified once per ``Verifier``, one per run: a block cannot change after
    it is built, so its verdict cannot either.  The memo holds no block
    alive, and a forged block is a new object that is verified on its own.
    """

    scheme: object
    public_keys: Dict[int, object]
    _verified: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False, compare=False
    )

    def check(self, block: SignedHistory) -> bool:
        key = self.public_keys.get(block.origin)
        if key is None:
            return False
        ok = self._verified.get(block)
        if ok is None:
            payload = sign_payload(block.history, block.round, block.origin)
            ok = self._verified[block] = self.scheme.verify(key, payload, block.signature)
        return ok


# --- database operations ---------------------------------------------------


@dataclass(frozen=True)
class GossipPool:
    """One node's relay candidates for one round: every stored record but
    its own, in origin order, with origins, forwarders and distances as
    parallel arrays."""

    records: List[HistoryRecord]
    origins: np.ndarray
    forwarders: np.ndarray
    distances: np.ndarray

    def eligible(self, neighbors: Sequence[int]) -> np.ndarray:
        """One mask row per neighbor over ``records``: what it may be sent,
        which is nothing it already owns or forwarded here itself."""
        nb = np.asarray(neighbors, dtype=np.int64)[:, None]
        return (self.origins != nb) & (self.forwarders != nb)


def filter_db(db: HistoryDB, self_id: int) -> GossipPool:
    """Gossip candidates for every neighbor at once: nothing of our own.
    Stable origin order."""
    records = [record for origin, record in sorted(db.records.items()) if origin != self_id]
    return GossipPool(
        records,
        np.array([r.block.origin for r in records], dtype=np.int64),
        np.array([r.forwarder for r in records], dtype=np.int64),
        np.array([r.distance for r in records], dtype=np.int64),
    )


def select_gossip(
    pool: GossipPool, neighbors: Sequence[int], lam: float, rng: np.random.Generator
) -> List[Optional[HistoryRecord]]:
    """One record per neighbor, in ``neighbors`` order: None where nothing is
    eligible, else a random pick weighting distance d by lam * exp(-lam * d).

    Every pick is the one ``rng.choice(len(w), p=w / w.sum())`` makes over
    that neighbor's eligible weights ``w``, from the same one double per
    non-empty pool.  Weights that sum to zero (lam so large that every exp
    underflows) raise ``NumericFailure``; they are never renormalized.
    """
    if lam <= 0:
        raise ValueError("lam must be > 0")
    picks: List[Optional[HistoryRecord]] = [None] * len(neighbors)
    keep = pool.eligible(neighbors)
    rows = np.flatnonzero(keep.any(axis=1))
    if rows.size == 0:
        return picks
    keep = keep[rows]
    per_distance = [lam * math.exp(-lam * d) for d in range(int(pool.distances.max()) + 1)]
    weights = np.array(per_distance)[pool.distances]
    # pairwise sums over each compacted pool, exactly as the caller of
    # rng.choice forms them
    totals = np.array([weights[row].sum() for row in keep])
    if not (totals > 0).all():
        raise NumericFailure(
            f"gossip weights at lam {lam:g} sum to {totals.min():g}; no record can be drawn"
        )
    # choice's cumsum and searchsorted(side="right"), one row per pool: an
    # ineligible record adds 0.0 and repeats the running sum before it, so
    # counting the entries <= u finds the eligible record searchsorted would
    cdf = (np.where(keep, weights, 0.0) / totals[:, None]).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    at = (cdf <= rng.random(rows.size)[:, None]).sum(axis=1)
    for r, k in zip(rows.tolist(), at.tolist()):
        picks[r] = pool.records[k]
    return picks


def update_db(db: HistoryDB, incoming: HistoryRecord) -> str:
    """Insert or refresh one record; returns inserted / updated / ignored.

    Only a strictly newer round replaces an existing origin's record.  When
    a capacity is set, the stalest record by round (ties to the lowest
    origin id) is evicted after an insertion.
    """
    origin = incoming.block.origin
    existing = db.records.get(origin)
    if existing is None:
        db.records[origin] = incoming
        if db.capacity is not None and len(db.records) > db.capacity:
            stalest = min(db.records, key=lambda o: (db.records[o].block.round, o))
            del db.records[stalest]
        return "inserted"
    if incoming.block.round > existing.block.round:
        db.records[origin] = incoming
        return "updated"
    return "ignored"


# --- message composition and receipt ---------------------------------------


def compose_message(
    own: SignedHistory, selected: Optional[HistoryRecord]
) -> RoundMessage:
    """Build the outgoing message: own signed history plus one relayed record.

    The sender signs its history once per round and every neighbor gets the
    same ``own`` block.  The selected record goes out as stored, its block
    with the originator's signature; the receiver adds the extra hop.  Raw
    trained models are never included.
    """
    return RoundMessage(own, selected)


@dataclass(frozen=True)
class ReceiveResult:
    trained_model: Optional[np.ndarray]
    db_changes: Dict[str, Optional[str]]


def infer_trained(
    prev: Optional[SignedHistory], block: SignedHistory
) -> Optional[np.ndarray]:
    """Trained model as the difference of two consecutive histories.

    Returns None when the previous known block is missing or more than
    one round behind; a later pair of consecutive rounds will recover the
    model stream."""
    if prev is None or block.round != prev.round + 1:
        return None
    return block.history - prev.history


def receive_message(
    msg: RoundMessage,
    db: HistoryDB,
    prev_known: Optional[SignedHistory],
    keys: Verifier,
    self_id: int,
) -> ReceiveResult:
    """Verify, store, and decode one incoming message at node ``self_id``.

    Both blocks must verify under their origins' public keys or the whole
    message is dropped, as is a message whose own block is older than the
    last one we accepted from the sender (``prev_known``).  The sender's
    fresh block enters the database at distance 1 and the relayed block one
    hop further than the sender's record of it, both forwarded by the
    sender; a relayed block of our own is dropped.  That drop guards the
    trust boundary: the engine's senders never relay a node its own block
    (``GossipPool.eligible`` filters it first), but a receiver cannot rely
    on its senders for that.  So ``self_id`` is required: a default would
    silently switch the guard off.
    """
    if not keys.check(msg.own):
        raise MessageRejected(
            f"own block from node {msg.own.origin} round {msg.own.round} "
            "fails verification"
        )
    relayed = msg.relayed
    if relayed is not None and not keys.check(relayed.block):
        raise MessageRejected(
            f"gossiped block from node {relayed.block.origin} "
            f"round {relayed.block.round} fails verification"
        )
    if prev_known is not None and msg.own.round < prev_known.round:
        raise MessageRejected(
            f"node {msg.own.origin} round {msg.own.round} regresses before {prev_known.round}"
        )
    sender = msg.own.origin
    changes = {"own": update_db(db, HistoryRecord(msg.own, 1, sender)), "gossip": None}
    if relayed is not None and relayed.block.origin != self_id:
        changes["gossip"] = update_db(
            db, HistoryRecord(relayed.block, relayed.distance + 1, sender)
        )
    return ReceiveResult(infer_trained(prev_known, msg.own), changes)
