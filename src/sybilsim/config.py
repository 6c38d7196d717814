"""Typed run configuration, YAML loading, and validation.

Every knob the simulator exposes lives here, grouped the way the engine
consumes it.  Validation happens before any work starts and reports the
dotted path of the offending field, so a typo in a config file fails fast
with a usable message.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional

import yaml

AGGREGATORS = (
    "fedavg",
    "foolsgold",
    "krum",
    "multikrum",
    "median",
    "sybilwall",
    "sybilwall+median",
    "sybilwall+wmedian",
    "sybilwall+krumfilter",
)

ATTACK_KINDS = ("label_flip", "backdoor")

# numpy seeds must be non-negative, and the engine packs the run seed into
# each node's signing key as a signed 64-bit integer
SEED_LIMIT = 2 ** 63


class ConfigError(ValueError):
    """Invalid configuration; the message names the field path."""


@dataclass
class TopologyConfig:
    radius: float = 0.4
    seed: Optional[int] = None  # defaults to the run seed


@dataclass
class DataConfig:
    kind: str = "blobs"
    classes: int = 10
    per_class: int = 40
    test_per_class: int = 25
    dim: int = 16
    spread: float = 0.12
    alpha: float = 0.1
    images_path: Optional[str] = None
    labels_path: Optional[str] = None
    test_images_path: Optional[str] = None
    test_labels_path: Optional[str] = None


@dataclass
class TrainSection:
    learning_rate: float = 0.05
    local_epochs: int = 10
    batch_size: int = 8


@dataclass
class AttackConfig:
    kind: str = "label_flip"
    phi: float = 1.0
    source: int = 1
    target: int = 2
    pattern_size: int = 3
    pattern_value: float = 1.0


@dataclass
class GossipConfig:
    lam: float = 0.8
    capacity: Optional[int] = None
    sybils_gossip: bool = True
    scheme: str = "blake2"


@dataclass
class RuleParams:
    kappa: float = 1.0


@dataclass
class DowntimeEntry:
    node: int
    start: int
    length: int = 1


@dataclass
class SimulationConfig:
    """One complete, validated simulation run."""

    seed: int = 0
    rounds: int = 100
    aggregator: str = "sybilwall"
    honest_nodes: int = 99
    degree_bound: int = 8
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainSection = field(default_factory=TrainSection)
    attack: Optional[AttackConfig] = None
    gossip: GossipConfig = field(default_factory=GossipConfig)
    rule_params: RuleParams = field(default_factory=RuleParams)
    adversary_epochs: Optional[int] = None  # default: same as train.local_epochs
    downtime: List[DowntimeEntry] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> "SimulationConfig":
        _require(0 <= self.seed < SEED_LIMIT, "seed", "must lie in [0, 2**63)")
        _require(
            self.topology.seed is None or 0 <= self.topology.seed < SEED_LIMIT,
            "topology.seed",
            "must lie in [0, 2**63)",
        )
        _require(self.rounds >= 1, "rounds", "must be >= 1")
        _require(self.honest_nodes >= 2, "honest_nodes", "must be >= 2")
        _require(self.degree_bound >= 2, "degree_bound", "must be >= 2")
        _require(
            self.aggregator in AGGREGATORS,
            "aggregator",
            f"must be one of {', '.join(AGGREGATORS)}",
        )
        _require(
            0 < self.topology.radius <= math.sqrt(2),
            "topology.radius",
            "must lie in (0, sqrt(2)]",
        )
        d = self.data
        _require(d.kind in ("blobs", "idx"), "data.kind", "must be blobs or idx")
        _require(d.alpha > 0, "data.alpha", "must be > 0")
        if d.kind == "blobs":
            _require(d.classes >= 2, "data.classes", "must be >= 2")
            _require(d.per_class >= 1, "data.per_class", "must be >= 1")
            _require(d.test_per_class >= 1, "data.test_per_class", "must be >= 1")
            _require(d.dim >= 1, "data.dim", "must be >= 1")
            _require(d.spread > 0, "data.spread", "must be > 0")
        else:
            for name in (
                "images_path",
                "labels_path",
                "test_images_path",
                "test_labels_path",
            ):
                _require(
                    getattr(d, name) is not None,
                    f"data.{name}",
                    "required when data.kind is idx",
                )
        t = self.train
        _require(t.learning_rate > 0, "train.learning_rate", "must be > 0")
        _require(t.local_epochs >= 1, "train.local_epochs", "must be >= 1")
        _require(t.batch_size >= 1, "train.batch_size", "must be >= 1")
        if self.attack is not None:
            a = self.attack
            _require(a.kind in ATTACK_KINDS, "attack.kind", "must be label_flip or backdoor")
            _require(a.phi > 0, "attack.phi", "must be > 0")
            headroom = math.ceil(a.phi - 1e-9)  # attack edges per honest node
            _require(
                self.degree_bound - headroom >= 2,
                "degree_bound",
                f"leaves no room for {headroom} attack edges per node "
                f"(attack.phi {a.phi}) plus an honest graph",
            )
            # idx files fix their class count on loading, where the run
            # checks the upper bound
            limit = d.classes if d.kind == "blobs" else math.inf
            if a.kind == "label_flip":
                _require(0 <= a.source < limit, "attack.source", "class out of range")
                _require(a.source != a.target, "attack.target", "must differ from source")
            _require(0 <= a.target < limit, "attack.target", "class out of range")
            if a.kind == "backdoor":
                _require(a.pattern_size >= 1, "attack.pattern_size", "must be >= 1")
        g = self.gossip
        _require(g.lam > 0, "gossip.lam", "must be > 0")
        _require(
            g.capacity is None or g.capacity >= 1, "gossip.capacity", "must be >= 1"
        )
        _require(
            g.scheme in ("blake2", "ed25519"),
            "gossip.scheme",
            "must be blake2 or ed25519",
        )
        _require(self.rule_params.kappa > 0, "rule_params.kappa", "must be > 0")
        _require(
            self.adversary_epochs is None or self.adversary_epochs >= 1,
            "adversary_epochs",
            "must be >= 1",
        )
        for i, entry in enumerate(self.downtime):
            _require(
                0 <= entry.node < self.honest_nodes,
                f"downtime[{i}].node",
                "must name an honest node",
            )
            _require(entry.start >= 1, f"downtime[{i}].start", "must be >= 1")
            _require(entry.length >= 1, f"downtime[{i}].length", "must be >= 1")
        return self


def _require(ok: bool, path: str, problem: str) -> None:
    if not ok:
        raise ConfigError(f"{path}: {problem}")


# Python types a YAML scalar may have for each field type; an int is a
# valid float, but a bool is no number even though Python counts it an int.
_SCALAR_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


def _check_type(annotation: str, value, path: str) -> None:
    """Reject a scalar whose type does not fit its field's annotation."""
    optional = annotation.startswith("Optional[")
    wanted = annotation[len("Optional["):-1] if optional else annotation
    if value is None and optional:
        return
    if not isinstance(value, _SCALAR_TYPES[wanted]) or (
        isinstance(value, bool) and wanted != "bool"
    ):
        raise ConfigError(f"{path}: expected {wanted}, got {type(value).__name__}")


# the nested mappings of a config file; of these only ``attack`` may be null
_SECTIONS = {
    "topology": TopologyConfig,
    "data": DataConfig,
    "train": TrainSection,
    "attack": AttackConfig,
    "gossip": GossipConfig,
    "rule_params": RuleParams,
}


def _build(cls, obj, path: str):
    """Fill a config dataclass from a dict, rejecting unknown keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping, got {type(obj).__name__}")
    fields = {f.name: f for f in cls.__dataclass_fields__.values()}
    unknown = set(obj) - set(fields)
    if unknown:
        where = f"{path}." if path else ""
        raise ConfigError(f"{where}{sorted(unknown)[0]}: unknown field")
    kwargs = {}
    for key, value in obj.items():
        sub = f"{path}.{key}" if path else key
        if key == "attack" and value is None:
            kwargs[key] = None
        elif key in _SECTIONS:
            kwargs[key] = _build(_SECTIONS[key], value, sub)
        elif key == "downtime":
            if not isinstance(value, list):
                raise ConfigError(f"{sub}: expected a list")
            kwargs[key] = [
                _build(DowntimeEntry, entry, f"{sub}[{i}]")
                for i, entry in enumerate(value)
            ]
        else:
            _check_type(fields[key].type, value, sub)
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def config_from_dict(obj: dict) -> SimulationConfig:
    return _build(SimulationConfig, obj, "").validate()


def load_config(path: str) -> SimulationConfig:
    """Parse and validate a YAML config file."""
    with open(path, "r") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config does not parse as YAML: {exc}") from exc
    if raw is None:
        raw = {}
    return config_from_dict(raw)
