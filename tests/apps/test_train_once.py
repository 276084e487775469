"""The stock health model is trained once per process and copied per registration.

``register_connected_health`` with no ``recognizer`` trains the stock
FastGRNN once per ``(seed, train_samples, train_epochs)`` and hands every
registration a private deep copy.  The contract under test: each copy has
exactly the weights a fresh training would give, owns every one of its
arrays, and serves exactly what a freshly trained recognizer serves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import ActivityRecognizer, register_connected_health
from repro.core import OpenEI
from repro.serving import EdgeFleet


def _params(recognizer):
    return [
        array
        for layer in recognizer.classifier.model.layers
        for array in layer.params.values()
    ]


def _fresh(seed=0, samples=240, epochs=10):
    recognizer = ActivityRecognizer(seed=seed)
    recognizer.train(samples=samples, epochs=epochs, seed=seed)
    return recognizer


def _register(**kwargs):
    return register_connected_health(OpenEI.deploy("raspberry-pi-4"), **kwargs)


@pytest.fixture
def train_calls(monkeypatch):
    """Count every ``ActivityRecognizer.train`` call made during the test."""
    calls = []
    train = ActivityRecognizer.train

    def spy(self, *args, **kwargs):
        calls.append(kwargs)
        return train(self, *args, **kwargs)

    monkeypatch.setattr(ActivityRecognizer, "train", spy)
    return calls


def test_replicas_get_private_copies_of_the_fresh_weights():
    first, second = _register(seed=0), _register(seed=0)
    assert first is not second
    fresh = _fresh()
    for a, b, expected in zip(_params(first), _params(second), _params(fresh)):
        assert np.array_equal(a, expected) and np.array_equal(b, expected)
        assert not np.shares_memory(a, b)


def test_editing_one_replica_moves_no_other():
    first, second = _register(seed=0), _register(seed=0)
    before = [array.copy() for array in _params(second)]
    for array in _params(first):
        array += 1.0
    third = _register(seed=0)
    for untouched, kept, later in zip(_params(second), before, _params(third)):
        assert np.array_equal(untouched, kept) and np.array_equal(later, kept)


def test_one_training_per_key(train_calls):
    # a key no other test registers with, so the first call here is a miss
    for _ in range(3):
        _register(seed=0, train_samples=48, train_epochs=1)
    assert len(train_calls) == 1
    _register(seed=1, train_samples=48, train_epochs=1)
    assert len(train_calls) == 2


def test_a_supplied_recognizer_is_used_as_given(train_calls):
    untrained = ActivityRecognizer(seed=0)
    assert _register(recognizer=untrained, train_samples=48, train_epochs=1) is untrained
    assert untrained._trained and len(train_calls) == 1
    weights = [array.copy() for array in _params(untrained)]
    assert _register(recognizer=untrained) is untrained
    assert len(train_calls) == 1
    for array, kept in zip(_params(untrained), weights):
        assert np.array_equal(array, kept)


def _strip(result):
    cleaned = {key: value for key, value in result.items() if key != "served_by"}
    cleaned["observed_alem"] = {
        key: value for key, value in result["observed_alem"].items() if key != "latency_s"
    }
    return cleaned


def _health_fleet(recognizers):
    fleet = EdgeFleet.deploy(["raspberry-pi-4", "jetson-tx2"])
    for instance, recognizer in zip(fleet, recognizers):
        register_connected_health(instance.openei, seed=0, recognizer=recognizer)
    return fleet


def _serve_32(fleet):
    results = []
    for _ in range(2):
        results += fleet.call_algorithm_batch("health", "activity_recognition", [{}] * 8)
    for _ in range(16):
        results.append(fleet.call_algorithm("health", "activity_recognition", {}))
    return [_strip(result) for result in results]


def test_memo_built_fleet_serves_what_freshly_trained_replicas_serve():
    memo = _health_fleet([None, None])
    fresh = _health_fleet([_fresh(), _fresh()])
    served = _serve_32(memo)
    assert len(served) == 32
    assert served == _serve_32(fresh)
