"""Model arithmetic checks: gradients against finite differences, training
determinism, and the small evaluation helpers."""

from types import SimpleNamespace

import numpy as np
import pytest

from sybilsim.numerics import (
    Architecture,
    Model,
    NumericFailure,
    TrainConfig,
    evaluate_accuracy,
    init_model,
    predict,
    train_sgd,
)
from sybilsim.numerics import _logits, _unpack


def _log_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy_loss(model, data):
    """Mean cross-entropy of the model on a labeled dataset."""
    y = np.asarray(data.labels)
    logp = _log_softmax(_logits(model.params, model.arch, np.asarray(data.features)))
    return float(-logp[np.arange(len(y)), y].mean())


def _gradient(params, arch, x, y):
    """Analytic mean cross-entropy gradient and loss for one mini-batch."""
    n = len(y)
    w, b = _unpack(params, arch)
    logp = _log_softmax(x @ w.T + b)
    p = np.exp(logp)
    p[np.arange(n), y] -= 1.0
    p /= n
    grad = np.concatenate([(p.T @ x).ravel(), p.sum(axis=0)])
    loss = float(-logp[np.arange(n), y].mean())
    return grad, loss


def _reference_train_sgd(model, data, cfg):
    """SGD one batch at a time with ``params -= lr * _gradient(...)``: the
    loop ``train_sgd`` must reproduce bit for bit."""
    x = np.asarray(data.features, dtype=np.float64)
    y = np.asarray(data.labels)
    rng = np.random.default_rng(cfg.seed)
    params = model.params.copy()
    n = len(y)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            grad, loss = _gradient(params, model.arch, x[idx], y[idx])
            if not np.isfinite(loss):
                raise NumericFailure(f"non-finite loss {loss} during SGD")
            params -= cfg.learning_rate * grad
    return Model(params, model.arch)


class _Data:
    def __init__(self, features, labels):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)


def _random_data(rng, n, dim, classes):
    return _Data(rng.normal(size=(n, dim)), rng.integers(0, classes, size=n))


class TestArchitecture:
    def test_softmax_param_count(self):
        assert Architecture(4, 3).param_count == (4 + 1) * 3

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            Architecture(0, 3)
        with pytest.raises(ValueError):
            Architecture(4, 1)


class TestModel:
    def test_rejects_wrong_length(self):
        arch = Architecture(2, 2)
        with pytest.raises(ValueError):
            Model(np.zeros(5), arch)

    def test_rejects_non_finite(self):
        arch = Architecture(2, 2)
        bad = np.zeros(arch.param_count)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            Model(bad, arch)

    def test_init_deterministic(self):
        arch = Architecture(6, 4)
        a = init_model(arch, 99)
        b = init_model(arch, 99)
        np.testing.assert_array_equal(a.params, b.params)
        c = init_model(arch, 100)
        assert not np.array_equal(a.params, c.params)


class TestGradient:
    """The analytic gradient must match central finite differences."""

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        arch = Architecture(3, 4)
        data = _random_data(rng, 11, 3, 4)
        params = rng.normal(size=arch.param_count)
        x, y = data.features, data.labels

        grad, loss = _gradient(params, arch, x, y)
        assert np.isfinite(loss)

        eps = 1e-6
        fd = np.empty_like(params)
        for k in range(params.size):
            up = params.copy()
            up[k] += eps
            down = params.copy()
            down[k] -= eps
            lu = cross_entropy_loss(Model(up, arch), data)
            ld = cross_entropy_loss(Model(down, arch), data)
            fd[k] = (lu - ld) / (2 * eps)
        np.testing.assert_allclose(grad, fd, atol=1e-7)

    def test_gradient_loss_equals_loss_function(self):
        rng = np.random.default_rng(8)
        arch = Architecture(5, 3)
        data = _random_data(rng, 9, 5, 3)
        params = rng.normal(size=arch.param_count)
        _, loss = _gradient(params, arch, data.features, data.labels)
        assert loss == pytest.approx(
            cross_entropy_loss(Model(params, arch), data), abs=1e-12
        )


class TestTraining:
    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(-2, 0.3, (30, 2)), rng.normal(2, 0.3, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        data = _Data(x, y)
        arch = Architecture(2, 2)
        model = init_model(arch, 0)
        before = cross_entropy_loss(model, data)
        trained = train_sgd(model, data, TrainConfig(0.1, 5, 8, seed=1))
        after = cross_entropy_loss(trained, data)
        assert after < before
        assert evaluate_accuracy(trained, data) > 0.95

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        data = _random_data(rng, 20, 3, 3)
        model = init_model(Architecture(3, 3), 5)
        a = train_sgd(model, data, TrainConfig(0.05, 3, 4, seed=11))
        b = train_sgd(model, data, TrainConfig(0.05, 3, 4, seed=11))
        np.testing.assert_array_equal(a.params, b.params)
        c = train_sgd(model, data, TrainConfig(0.05, 3, 4, seed=12))
        assert not np.array_equal(a.params, c.params)

    def test_input_model_untouched(self):
        rng = np.random.default_rng(6)
        data = _random_data(rng, 10, 2, 2)
        model = init_model(Architecture(2, 2), 1)
        snapshot = model.params.copy()
        train_sgd(model, data, TrainConfig(0.1, 2, 4, seed=0))
        np.testing.assert_array_equal(model.params, snapshot)

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(2)
        data = _random_data(rng, 8, 2, 2)
        model = init_model(Architecture(2, 2), 1)
        out = train_sgd(model, data, TrainConfig(0.0, 4, 3, seed=0))
        np.testing.assert_array_equal(out.params, model.params)

    def test_empty_dataset_rejected(self):
        model = init_model(Architecture(2, 2), 1)
        with pytest.raises(ValueError):
            train_sgd(model, _Data(np.empty((0, 2)), []), TrainConfig(0.1, 1, 4, seed=0))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_raises(self):
        rng = np.random.default_rng(9)
        data = _random_data(rng, 16, 2, 2)
        model = init_model(Architecture(2, 2), 1)
        with pytest.raises(NumericFailure):
            train_sgd(model, data, TrainConfig(1e308, 40, 4, seed=0))


class TestTrainMatchesReferenceLoop:
    """``train_sgd`` steps in place; it must give the same bits as the
    per-batch ``params -= lr * _gradient(...)`` loop."""

    # (samples, dim, classes, batch_size, epochs, learning_rate)
    CASES = {
        "partial-last-batch": (11, 5, 4, 4, 3, 0.05),
        "batch-equals-n": (8, 3, 3, 8, 4, 0.1),
        "batch-above-n": (5, 6, 10, 8, 10, 0.05),
        "batch-of-one": (7, 4, 3, 1, 2, 0.2),
        "two-classes": (19, 8, 2, 8, 5, 0.5),
        "one-sample": (1, 16, 10, 8, 10, 0.05),
        "zero-learning-rate": (13, 4, 5, 4, 3, 0.0),
        "many-batches": (55, 64, 10, 8, 10, 0.05),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_equal(self, case):
        n, dim, classes, batch, epochs, lr = self.CASES[case]
        rng = np.random.default_rng(sum(map(ord, case)))
        arch = Architecture(dim, classes)
        for trial in range(5):
            data = _random_data(rng, n, dim, classes)
            model = Model(rng.normal(size=arch.param_count), arch)
            cfg = TrainConfig(lr, epochs, batch, seed=trial)
            got = train_sgd(model, data, cfg).params
            want = _reference_train_sgd(model, data, cfg).params
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("labels", [[0, 2, 1, 1, 0, 2, 2], [0, -1, 1, -3, 2, -2, 2]])
    def test_bit_equal_on_list_labels(self, labels):
        # plain lists, and negative labels, index as numpy does
        rng = np.random.default_rng(12)
        arch = Architecture(3, 3)
        data = SimpleNamespace(features=rng.normal(size=(7, 3)).tolist(), labels=labels)
        model = init_model(arch, 4)
        cfg = TrainConfig(0.1, 3, 3, seed=5)
        got = train_sgd(model, data, cfg).params
        want = _reference_train_sgd(model, data, cfg).params
        assert got.tobytes() == want.tobytes()

    def test_out_of_range_label_raises(self):
        data = SimpleNamespace(features=np.zeros((3, 2)), labels=[0, 1, 2])
        with pytest.raises(IndexError):
            train_sgd(init_model(Architecture(2, 2), 1), data, TrainConfig(0.1, 1, 2, seed=0))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_loss_check_reads_only_the_true_labels(self):
        # class 1's log-probability is -inf for every sample: samples of
        # class 0 train (their loss is 0), one of class 1 has an infinite
        # loss wherever the shuffle puts it in the batch
        arch = Architecture(1, 2)
        model = Model(np.array([1e308, -1e308, 0.0, 0.0]), arch)
        ones = np.ones((4, 1))
        fine = SimpleNamespace(features=ones, labels=[0, 0, 0, 0])
        cfg = TrainConfig(0.1, 2, 4, seed=0)
        got = train_sgd(model, fine, cfg).params
        assert got.tobytes() == _reference_train_sgd(model, fine, cfg).params.tobytes()
        bad = SimpleNamespace(features=ones, labels=[0, 0, 1, 0])
        for seed in range(8):
            cfg = TrainConfig(0.1, 1, 4, seed=seed)
            with pytest.raises(NumericFailure, match="non-finite loss inf"):
                train_sgd(model, bad, cfg)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_same_failure_message(self):
        rng = np.random.default_rng(9)
        data = _random_data(rng, 16, 2, 2)
        model = init_model(Architecture(2, 2), 1)
        cfg = TrainConfig(1e308, 40, 4, seed=0)
        with pytest.raises(NumericFailure) as got:
            train_sgd(model, data, cfg)
        with pytest.raises(NumericFailure) as want:
            _reference_train_sgd(model, data, cfg)
        assert str(got.value) == str(want.value)


class TestPrediction:
    def test_ties_go_to_lowest_class(self):
        arch = Architecture(2, 3)
        model = Model(np.zeros(arch.param_count), arch)
        out = predict(model, np.array([[1.0, -1.0], [0.5, 0.5]]))
        np.testing.assert_array_equal(out, [0, 0])

    def test_accuracy_on_known_labels(self):
        arch = Architecture(1, 2)
        # logits: class0 = -x, class1 = +x, so sign(x) picks the class
        params = np.array([-1.0, 1.0, 0.0, 0.0])
        model = Model(params, arch)
        data = _Data([[-2.0], [3.0], [1.0], [-1.0]], [0, 1, 0, 0])
        assert evaluate_accuracy(model, data) == pytest.approx(0.75)
