"""Dataset synthesis, IDX loading, non-i.i.d. partitioning, and poisoning.

A :class:`LabeledDataset` is a feature matrix in [0, 1] plus integer class
labels.  Poisoning transforms return new datasets and never mutate their
input.  Everything that draws random numbers is deterministic per seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from sybilsim.numerics import Model, predict

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class UndefinedScore(RuntimeError):
    """Raised when an attack score has no defined value on the given data."""


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    image_shape: Optional[Tuple[int, int]] = None  # (rows, cols) of IDX images

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a samples x dim matrix")
        if labels.ndim != 1 or len(labels) != features.shape[0]:
            raise ValueError(
                f"label count {labels.shape} does not match {features.shape[0]} feature rows"
            )
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if len(labels) and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError(f"labels must lie in [0, {self.n_classes})")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            self.features[idx], self.labels[idx], self.n_classes, self.image_shape
        )


@dataclass(frozen=True)
class PartitionSpec:
    node_count: int
    alpha: float
    seed: int

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")


@dataclass(frozen=True)
class LabelFlip:
    """Swap all labels between two target classes."""

    t1: int
    t2: int

    def __post_init__(self):
        if self.t1 == self.t2:
            raise ValueError("label-flip targets must differ")
        if self.t1 < 0 or self.t2 < 0:
            raise ValueError("label-flip targets must be class indices")


@dataclass(frozen=True)
class Backdoor:
    """Stamp a fixed feature pattern and relabel every sample to ``target``."""

    pattern: tuple
    target: int

    def __post_init__(self):
        object.__setattr__(
            self, "pattern", tuple((int(i), float(v)) for i, v in self.pattern)
        )
        if self.target < 0:
            raise ValueError("backdoor target must be a class index")


AttackSpec = Union[LabelFlip, Backdoor]


def corner_block_pattern(image_width: int, size: int = 3, value: float = 1.0):
    """Pattern covering a size x size block in the top-left image corner."""
    return tuple(
        (r * image_width + c, value) for r in range(size) for c in range(size)
    )


def synth_blobs(
    classes: int, per_class: int, dim: int, spread: float, seed: int
) -> LabeledDataset:
    """Gaussian class clusters with distinct means, clipped to [0, 1].

    Class means are drawn uniformly from [0.2, 0.8]^dim so the clusters stay
    inside the unit cube at reasonable spreads.
    """
    if classes < 2 or per_class < 1:
        raise ValueError("need classes >= 2 and per_class >= 1")
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.2, 0.8, (classes, dim))
    features = np.clip(
        np.repeat(means, per_class, axis=0)
        + rng.normal(0.0, spread, (classes * per_class, dim)),
        0.0,
        1.0,
    )
    labels = np.repeat(np.arange(classes), per_class)
    return LabeledDataset(features, labels, classes)


def _read_idx_header(raw: bytes, path, expect_magic: int, n_dims: int):
    need = 4 * (1 + n_dims)
    if len(raw) < need:
        raise ValueError(f"{path}: truncated IDX header at byte {len(raw)}")
    magic = struct.unpack_from(">I", raw, 0)[0]
    if magic != expect_magic:
        raise ValueError(
            f"{path}: bad IDX magic 0x{magic:08x} at byte 0 (expected 0x{expect_magic:08x})"
        )
    dims = struct.unpack_from(f">{n_dims}I", raw, 4)
    return dims, need


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an image/label file pair in big-endian IDX format.

    Pixels are scaled to [0, 1]; labels become class indices.
    """
    with open(images_path, "rb") as fh:
        raw = fh.read()
    (n, rows, cols), offset = _read_idx_header(raw, images_path, IDX_IMAGES_MAGIC, 3)
    expected = offset + n * rows * cols
    if len(raw) < expected:
        raise ValueError(f"{images_path}: truncated IDX data at byte {len(raw)}")
    features = (
        np.frombuffer(raw, dtype=np.uint8, count=n * rows * cols, offset=offset)
        .reshape(n, rows * cols)
        .astype(np.float64)
        / 255.0
    )

    with open(labels_path, "rb") as fh:
        raw = fh.read()
    (n_labels,), offset = _read_idx_header(raw, labels_path, IDX_LABELS_MAGIC, 1)
    if len(raw) < offset + n_labels:
        raise ValueError(f"{labels_path}: truncated IDX data at byte {len(raw)}")
    labels = np.frombuffer(raw, dtype=np.uint8, count=n_labels, offset=offset).astype(
        np.int64
    )

    if n != n_labels:
        raise ValueError(
            f"{images_path}: image count {n} does not match label count "
            f"{n_labels} in {labels_path}"
        )
    n_classes = int(labels.max()) + 1 if n else 1
    return LabeledDataset(features, labels, n_classes, (rows, cols))


def _largest_remainder(fractions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total``, proportional to ``fractions``."""
    raw = fractions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        # Stable sort so remainder ties break toward the lowest index.
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def dirichlet_partition(
    data: LabeledDataset, spec: PartitionSpec
) -> list[LabeledDataset]:
    """Split a dataset over nodes with per-class Dirichlet proportions.

    For each class, node fractions are drawn from Dirichlet(alpha * 1) and
    the class's samples assigned proportionally with largest-remainder
    rounding, so every sample lands on exactly one node.
    """
    if len(data) == 0:
        raise ValueError("cannot partition an empty dataset")
    rng = np.random.default_rng(spec.seed)
    assigned: list[list[int]] = [[] for _ in range(spec.node_count)]
    for c in range(data.n_classes):
        idx = np.flatnonzero(data.labels == c)
        if len(idx) == 0:
            continue
        rng.shuffle(idx)
        fractions = rng.dirichlet(np.full(spec.node_count, spec.alpha))
        counts = _largest_remainder(fractions, len(idx))
        start = 0
        for node, count in enumerate(counts):
            assigned[node].extend(idx[start : start + count])
            start += count
    return [data.subset(sorted(part)) for part in assigned]


def _check_class(data: LabeledDataset, c: int, what: str):
    if not 0 <= c < data.n_classes:
        raise ValueError(f"{what} {c} out of range for {data.n_classes} classes")


def apply_label_flip(data: LabeledDataset, t1: int, t2: int) -> LabeledDataset:
    """Swap labels t1 and t2; features and all other samples untouched."""
    if t1 == t2:
        raise ValueError("label-flip targets must differ")
    _check_class(data, t1, "t1")
    _check_class(data, t2, "t2")
    labels = data.labels.copy()
    labels[data.labels == t1] = t2
    labels[data.labels == t2] = t1
    return LabeledDataset(data.features, labels, data.n_classes)


def apply_backdoor(data: LabeledDataset, pattern, target: int) -> LabeledDataset:
    """Write the pattern into every sample and relabel everything to ``target``."""
    _check_class(data, target, "target")
    features = data.features.copy()
    for index, value in pattern:
        if not 0 <= index < data.dim:
            raise ValueError(f"pattern index {index} out of range for dim {data.dim}")
        features[:, index] = value
    labels = np.full(len(data), target, dtype=np.int64)
    return LabeledDataset(features, labels, data.n_classes)


def poison_dataset(data: LabeledDataset, spec: AttackSpec) -> LabeledDataset:
    """Apply an attack's training-data transform to a local dataset."""
    if isinstance(spec, LabelFlip):
        return apply_label_flip(data, spec.t1, spec.t2)
    return apply_backdoor(data, spec.pattern, spec.target)


def attack_segment(clean_test: LabeledDataset, spec: AttackSpec) -> LabeledDataset:
    """The adversarially transformed test segment an attack is scored on.

    For a label flip these are the samples of the two targeted classes with
    their labels swapped (only those samples are altered by the transform).
    For a backdoor it is the full test set with the pattern stamped and all
    labels set to the target class.
    """
    if len(clean_test) == 0:
        raise ValueError("clean_test is empty")
    if isinstance(spec, LabelFlip):
        _check_class(clean_test, spec.t1, "t1")
        _check_class(clean_test, spec.t2, "t2")
        mask = (clean_test.labels == spec.t1) | (clean_test.labels == spec.t2)
        if not mask.any():
            raise UndefinedScore(
                f"test set has no samples of classes {spec.t1} or {spec.t2}"
            )
        return apply_label_flip(clean_test.subset(np.flatnonzero(mask)), spec.t1, spec.t2)
    return apply_backdoor(clean_test, spec.pattern, spec.target)


def attack_score(model: Model, segment: LabeledDataset) -> float:
    """Accuracy of the model on an ``attack_segment``."""
    return float(np.mean(predict(model, segment.features) == segment.labels))
