"""Tests for losses and optimizers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers import Dense
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optimizers import SGD, Adam


def test_cross_entropy_perfect_prediction_is_near_zero():
    loss = CrossEntropyLoss()
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert loss.forward(probs, np.array([0, 1])) < 1e-6


def test_cross_entropy_accepts_one_hot_and_index_targets():
    loss = CrossEntropyLoss()
    probs = np.array([[0.7, 0.3], [0.4, 0.6]])
    by_index = loss.forward(probs, np.array([0, 1]))
    by_onehot = loss.forward(probs, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert by_index == pytest.approx(by_onehot)


def test_cross_entropy_gradient_is_probs_minus_onehot_over_batch():
    loss = CrossEntropyLoss()
    probs = np.array([[0.7, 0.3], [0.4, 0.6]])
    loss.forward(probs, np.array([0, 1]))
    grad = loss.backward()
    expected = (probs - np.array([[1.0, 0.0], [0.0, 1.0]])) / 2
    np.testing.assert_allclose(grad, expected)


def test_cross_entropy_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        CrossEntropyLoss().forward(np.zeros((2, 2, 2)), np.zeros(2))


def test_backward_before_forward_raises_for_all_losses():
    with pytest.raises(RuntimeError):
        CrossEntropyLoss().backward()


def _quadratic_layer(start):
    """A Dense layer set up so that minimizing sum(W^2) is the objective."""
    layer = Dense(1, 1, use_bias=False, seed=0)
    layer.params["W"][...] = start
    return layer


@pytest.mark.parametrize("optimizer", [SGD(0.1), Adam(0.1)])
def test_optimizers_reduce_quadratic_objective(optimizer):
    layer = _quadratic_layer(5.0)
    for _ in range(100):
        layer.grads["W"] = 2 * layer.params["W"]
        optimizer.step([layer])
    assert abs(layer.params["W"][0, 0]) < 1.0


def test_sgd_step_is_exact():
    layer = _quadratic_layer(1.0)
    layer.grads["W"] = np.array([[0.5]])
    SGD(0.2).step([layer])
    assert layer.params["W"][0, 0] == pytest.approx(1.0 - 0.2 * 0.5)


def test_adam_bias_correction_first_step_magnitude():
    layer = _quadratic_layer(0.0)
    optimizer = Adam(learning_rate=0.01)
    layer.grads["W"] = np.array([[123.0]])
    optimizer.step([layer])
    # Adam's first step is ~learning_rate regardless of gradient magnitude.
    assert abs(layer.params["W"][0, 0]) == pytest.approx(0.01, rel=1e-3)


def test_optimizers_skip_non_trainable_layers():
    layer = _quadratic_layer(1.0)
    layer.trainable = False
    layer.grads["W"] = np.array([[1.0]])
    SGD(0.5).step([layer])
    assert layer.params["W"][0, 0] == 1.0


def test_optimizer_rejects_bad_hyperparameters():
    with pytest.raises(ConfigurationError):
        SGD(0.0)
    with pytest.raises(ConfigurationError):
        Adam(0.1, beta1=1.0)
