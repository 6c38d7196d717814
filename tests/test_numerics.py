"""Model arithmetic checks: gradients against finite differences, training
determinism, and the small evaluation helpers."""

import numpy as np
import pytest

from sybilsim.numerics import (
    Architecture,
    Model,
    NumericFailure,
    TrainConfig,
    cross_entropy_loss,
    evaluate_accuracy,
    init_model,
    predict,
    train_sgd,
)
from sybilsim.numerics import _gradient


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
