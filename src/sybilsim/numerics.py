"""Dense model arithmetic: tiny classifiers, SGD training, and evaluation.

Models are flat float64 parameter vectors of softmax regression, paired with
an architecture descriptor.  All operations are pure functions over
immutable inputs; RNG state is derived from caller-supplied seeds, never
global.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NumericFailure(RuntimeError):
    """Raised when a number leaves the range a run can carry: a non-finite
    training loss, a model off the history grid, history norms too large to
    score, model distances too large for Krum to rank, or gossip weights
    that all underflow."""


@dataclass(frozen=True)
class Architecture:
    """Shape of a softmax-regression classifier."""

    input_dim: int
    n_classes: int

    def __post_init__(self):
        if self.input_dim < 1 or self.n_classes < 2:
            raise ValueError("architecture needs input_dim >= 1 and n_classes >= 2")

    @property
    def param_count(self) -> int:
        return (self.input_dim + 1) * self.n_classes


@dataclass(frozen=True)
class Model:
    """A flat parameter vector together with its architecture."""

    params: np.ndarray
    arch: Architecture

    def __post_init__(self):
        params = np.asarray(self.params, dtype=np.float64)
        if params.ndim != 1:
            raise ValueError("params must be a flat vector")
        if params.size != self.arch.param_count:
            raise ValueError(
                f"params length {params.size} does not match architecture "
                f"(expected {self.arch.param_count})"
            )
        if not np.all(np.isfinite(params)):
            raise ValueError("params must be finite")
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    local_epochs: int
    batch_size: int
    seed: int

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def init_model(arch: Architecture, seed: int) -> Model:
    """Draw a small random initial model, deterministic per seed.

    Weights are Gaussian scaled by 1/sqrt(fan_in); biases start at zero.
    """
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0, (arch.n_classes, arch.input_dim)) / np.sqrt(arch.input_dim)
    b = np.zeros(arch.n_classes)
    return Model(np.concatenate([w.ravel(), b]), arch)


def _unpack(params: np.ndarray, arch: Architecture):
    d, c = arch.input_dim, arch.n_classes
    return params[: c * d].reshape(c, d), params[c * d :]


def _logits(params: np.ndarray, arch: Architecture, x: np.ndarray) -> np.ndarray:
    w, b = _unpack(params, arch)
    return x @ w.T + b


def _check_data(arch: Architecture, data):
    x = np.asarray(data.features, dtype=np.float64)
    y = np.asarray(data.labels)
    if len(y) == 0:
        raise ValueError("dataset is empty")
    if x.shape[1] != arch.input_dim:
        raise ValueError(
            f"feature dim {x.shape[1]} does not match architecture input_dim {arch.input_dim}"
        )
    return x, y


def train_sgd(model: Model, data, cfg: TrainConfig) -> Model:
    """Run ``cfg.local_epochs`` passes of mini-batch SGD on cross-entropy loss.

    Batches are drawn in a per-epoch shuffled order from an RNG seeded by
    ``cfg.seed``, so the result is bit-reproducible for identical inputs.  The
    input model is left untouched; a new one is returned.

    Each epoch gathers its shuffled samples, their one-hot labels and the
    position of each sample's true-class entry within its batch once.  Each
    batch then computes the log-softmax in place, and the weights and biases
    are updated in place as views into one copied parameter vector; the
    operations and their order are those of a step ``params -= lr * grad``
    on the batch's mean cross-entropy gradient.

    Raises ``NumericFailure`` if any batch produces a non-finite loss, that is,
    a non-finite sum of log-probabilities at the true labels.
    """
    x, y = _check_data(model.arch, data)
    c = model.arch.n_classes
    # negative labels wrap and out-of-range ones raise, as numpy indexing does
    labels = np.arange(c)[y]
    rng = np.random.default_rng(cfg.seed)
    params = model.params.copy()
    w, b = _unpack(params, model.arch)
    wt = w.T
    lr, bs = cfg.learning_rate, cfg.batch_size
    n = len(labels)
    eye = np.eye(c)
    # offset of each sample's row within its batch of the flattened logits
    batch_row = np.arange(n) % bs * c
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        xs, ys = x[order], labels[order]
        onehot = eye[ys]
        true = batch_row + ys
        for start in range(0, n, bs):
            stop = start + bs
            xb = xs[start:stop]
            m = len(xb)
            z = xb @ wt
            z += b
            z -= np.maximum.reduce(z, axis=1, keepdims=True)
            z -= np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))
            total = np.add.reduce(z.take(true[start:stop]))
            if not math.isfinite(total):
                raise NumericFailure(f"non-finite loss {-total / m} during SGD")
            p = np.exp(z)
            p -= onehot[start:stop]
            p /= m
            w -= lr * (p.T @ xb)
            b -= lr * np.add.reduce(p, axis=0)
    return Model(params, model.arch)


def predict(model: Model, features: np.ndarray) -> np.ndarray:
    """Argmax class predictions; ties resolve to the lowest class index."""
    logits = _logits(model.params, model.arch, np.asarray(features, dtype=np.float64))
    return np.argmax(logits, axis=1)


def evaluate_accuracy(model: Model, data) -> float:
    """Fraction of samples whose argmax prediction matches the label."""
    x, y = _check_data(model.arch, data)
    return float(np.mean(predict(model, x) == y))
