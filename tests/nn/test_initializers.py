"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn import initializers


def test_zeros_and_ones_shapes():
    rng = np.random.default_rng(0)
    assert np.all(initializers.zeros((3, 4), rng) == 0.0)
    assert np.all(initializers.ones((5,), rng) == 1.0)


def test_glorot_uniform_bounds():
    rng = np.random.default_rng(0)
    weights = initializers.glorot_uniform((100, 50), rng)
    limit = np.sqrt(6.0 / 150)
    assert weights.shape == (100, 50)
    assert np.all(np.abs(weights) <= limit)


def test_he_normal_scale_tracks_fan_in():
    rng = np.random.default_rng(0)
    wide = initializers.he_normal((1000, 10), rng)
    narrow = initializers.he_normal((10, 10), rng)
    assert wide.std() < narrow.std()


def test_conv_shape_fan_computation():
    rng = np.random.default_rng(0)
    weights = initializers.glorot_uniform((3, 3, 8, 16), rng)
    assert weights.shape == (3, 3, 8, 16)


def test_normal_initializer_statistics():
    rng = np.random.default_rng(0)
    weights = initializers.normal((2000,), rng)
    assert abs(weights.mean()) < 0.01
    assert abs(weights.std() - 0.05) < 0.01


def test_get_returns_registered_initializer():
    assert initializers.get("he_normal") is initializers.he_normal


def test_get_unknown_name_raises():
    with pytest.raises(ConfigurationError):
        initializers.get("not-an-initializer")


def test_deterministic_given_seeded_generator():
    a = initializers.glorot_uniform((4, 4), np.random.default_rng(7))
    b = initializers.glorot_uniform((4, 4), np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
