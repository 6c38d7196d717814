"""Typed run configuration, YAML loading, and validation.

Every knob the simulator exposes lives here, grouped the way the engine
consumes it.  The dataclass annotations are the file's only schema.
Validation happens before any work starts and reports the dotted path of
the offending field, so a typo in a config file fails fast with a usable
message.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import List, Optional, Union, get_args, get_origin, get_type_hints

from .aggregation import AGGREGATORS
from .gossip import get_scheme
from .topology import attack_edge_counts

ATTACK_KINDS = ("label_flip", "backdoor")

# numpy seeds must be non-negative, and the engine packs the run seed into
# each node's signing key as a signed 64-bit integer
SEED_LIMIT = 2 ** 63

# a config class's field types, resolved from its annotations once per process
_hints = functools.cache(get_type_hints)


class ConfigError(ValueError):
    """Invalid configuration; the message names the field path."""


@contextlib.contextmanager
def named(prefix: str, *kinds, as_=ConfigError):
    """Re-raise any of ``kinds`` raised in the scope as ``as_`` with the
    message ``f"{prefix}: {exc}"``, chained to the original.

    ``ConfigError`` is a ``ValueError``, so a scope that names
    ``ValueError`` must never enclose another ``named`` scope: it would
    wrap that scope's ``ConfigError`` a second time."""
    try:
        yield
    except kinds as exc:
        raise as_(f"{prefix}: {exc}") from exc


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
        for path, value in _float_settings(self):
            _require(math.isfinite(value), path, "must be finite")
        for path, seed in (("seed", self.seed), ("topology.seed", self.topology.seed)):
            _require(seed is None or 0 <= seed < SEED_LIMIT, path, "must lie in [0, 2**63)")
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
            headroom = attack_edge_counts(self.honest_nodes, a.phi)[1]
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
                fits = d.kind == "idx" or a.pattern_size <= d.dim  # idx: checked on loading
                _require(fits, "attack.pattern_size", "must be <= data.dim")
        g = self.gossip
        _require(g.lam > 0, "gossip.lam", "must be > 0")
        _require(
            g.capacity is None or g.capacity >= 1, "gossip.capacity", "must be >= 1"
        )
        try:
            get_scheme(g.scheme)  # an ed25519 config loads its backend here
        except ValueError as exc:
            raise ConfigError(f"gossip.scheme: {exc}") from None
        except ImportError as exc:
            raise ConfigError(f"gossip.scheme: {g.scheme} cannot load: {exc}") from None
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


def _float_settings(section, path: str = ""):
    """(dotted path, value) of every float field in a config and its sections."""
    for name, hint in _hints(type(section)).items():
        value = getattr(section, name)
        sub = f"{path}.{name}" if path else name
        if is_dataclass(value):
            yield from _float_settings(value, sub)
        elif hint is float:
            yield sub, value


def _build(cls, obj, path: str):
    """Fill a config dataclass from a dict, rejecting unknown keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping, got {type(obj).__name__}")
    prefix = f"{path}." if path else ""
    hints = _hints(cls)
    unknown = set(obj) - set(hints)
    if unknown:
        raise ConfigError(f"{prefix}{sorted(unknown)[0]}: unknown field")
    kwargs = {key: _value(hints[key], value, prefix + key) for key, value in obj.items()}
    with named(path or "config", TypeError):
        return cls(**kwargs)


def _value(hint, value, path: str):
    """Check one value against its field's annotation and build it: a
    dataclass is a section, ``Optional[X]`` also takes null, ``List[X]``
    holds entries, and anything else is a scalar.  An int is a valid float,
    but a bool is no number even though Python counts it an int."""
    if get_origin(hint) is Union:  # Optional[X]
        if value is None:
            return None
        hint = get_args(hint)[0]
    if is_dataclass(hint):
        return _build(hint, value, path)
    if get_origin(hint) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        return [_value(get_args(hint)[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    wanted = (int, float) if hint is float else hint
    if not isinstance(value, wanted) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{path}: expected {hint.__name__}, got {type(value).__name__}")
    return value


def config_from_dict(obj: dict) -> SimulationConfig:
    return _build(SimulationConfig, obj, "").validate()


def load_config(path: str) -> SimulationConfig:
    """Parse and validate a YAML config file."""
    import yaml  # only YAML configs need it; runs built in code never load it

    with open(path, "r") as fh, named("config does not parse as YAML", yaml.YAMLError):
        raw = yaml.safe_load(fh)
    if raw is None:
        raw = {}
    return config_from_dict(raw)
