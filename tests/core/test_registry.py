"""ModelRegistry: versioning, content addressing, lineage, deltas, concurrency."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.collaboration import ModelSyncPlanner
from repro.core import ModelRegistry, OpenEI
from repro.core.model_zoo import ModelZoo
from repro.exceptions import ConfigurationError, ResourceNotFoundError
from repro.hardware.device import WAN_LINK
from repro.nn.layers import Dense, ReLU, Softmax
from repro.nn.model import Sequential
from repro.nn.serialization import deserialize_model


def _model(seed=0, name="clf", scale=1.0):
    model = Sequential(
        [Dense(6, 8, seed=seed), ReLU(), Dense(8, 3, seed=seed + 1), Softmax()],
        name=name,
    )
    if scale != 1.0:
        model.layers[2].params["W"][...] *= scale
    return model


def _publish(registry, model, name="clf", **kwargs):
    defaults = dict(task="image-classification", input_shape=(6,), scenario="safety")
    defaults.update(kwargs)
    return registry.publish(name, model, **defaults)


def test_publish_assigns_monotone_versions_and_latest_wins():
    registry = ModelRegistry()
    v1 = _publish(registry, _model(seed=0))
    v2 = _publish(registry, _model(seed=3))
    assert (v1.version, v2.version) == (1, 2)
    assert registry.get("clf").ref == "clf@2"
    assert registry.get("clf", 1).fingerprint == v1.fingerprint
    assert [v.version for v in registry.versions("clf")] == [1, 2]
    assert registry.resolve("clf@1") == v1
    assert "clf" in registry and len(registry) == 1


def test_publish_identical_content_is_idempotent():
    registry = ModelRegistry()
    v1 = _publish(registry, _model(seed=0))
    again = _publish(registry, _model(seed=0))
    assert again is v1
    assert registry.stats.dedup_hits == 1
    assert [v.version for v in registry.versions("clf")] == [1]


def test_publish_same_content_new_metadata_is_a_new_version():
    """A corrected eval accuracy must not be silently dropped by dedupe."""
    registry = ModelRegistry()
    _publish(registry, _model(seed=0), accuracy=0.90)
    corrected = _publish(registry, _model(seed=0), accuracy=0.95)
    assert corrected.version == 2
    assert corrected.extra["accuracy"] == 0.95
    assert registry.get("clf").extra["accuracy"] == 0.95
    # both versions share one content-addressed blob
    assert registry.describe()["blobs"] == 1


def test_same_content_under_two_names_shares_one_blob():
    registry = ModelRegistry()
    _publish(registry, _model(seed=0), name="a")
    _publish(registry, _model(seed=0), name="b")
    described = registry.describe()
    assert described["blobs"] == 1
    assert sorted(described["models"]) == ["a", "b"]


def test_unknown_name_and_version_raise():
    registry = ModelRegistry()
    with pytest.raises(ResourceNotFoundError):
        registry.get("missing")
    _publish(registry, _model())
    with pytest.raises(ResourceNotFoundError):
        registry.get("clf", 7)
    with pytest.raises(ConfigurationError):
        registry.publish("", _model(), task="t", input_shape=(6,))
    # '@' is the ref separator; a name containing it could never be resolved
    with pytest.raises(ConfigurationError):
        registry.publish("team@clf", _model(), task="t", input_shape=(6,))


def test_resolve_non_numeric_suffix_is_a_name_not_a_ref():
    registry = ModelRegistry()
    _publish(registry, _model())
    # "clf@latest" is not a numeric ref; it must be treated as a (missing)
    # name rather than mis-parsed or crashing with ValueError
    with pytest.raises(ResourceNotFoundError):
        registry.resolve("clf@latest")


def test_pull_returns_private_equivalent_copies():
    registry = ModelRegistry()
    _publish(registry, _model(seed=0))
    first, second = registry.pull("clf"), registry.pull("clf")
    assert first is not second
    x = np.random.default_rng(0).normal(size=(4, 6))
    np.testing.assert_allclose(first.predict(x), second.predict(x))
    # mutating one pull must not leak into the registry or later pulls
    first.layers[0].params["W"][...] = 0.0
    np.testing.assert_allclose(registry.pull("clf").predict(x), second.predict(x))


def test_lineage_walks_base_chain():
    registry = ModelRegistry()
    v1 = _publish(registry, _model(seed=0))
    v2 = _publish(registry, _model(seed=0, scale=1.01), base=v1)
    v3 = _publish(registry, _model(seed=0, scale=0.5), name="clf-small", base="clf@2")
    assert v2.base == ("clf", 1)
    assert v3.base == ("clf", 2)
    with pytest.raises(ResourceNotFoundError):
        _publish(registry, _model(seed=9), name="x", base="clf@9")


def test_delta_bytes_prices_only_changed_arrays():
    registry = ModelRegistry()
    v1 = _publish(registry, _model(seed=0))
    changed = registry.pull("clf")
    changed.layers[2].params["b"][...] += 1.0  # touch one small array
    v2 = _publish(registry, changed, base=v1)

    full = registry.delta_bytes("clf", 2)
    delta = registry.delta_bytes("clf", 2, have="clf@1")
    assert delta < full == v2.size_bytes
    # header + the changed bias (3 float64s), nothing close to the Dense Ws
    assert delta <= v2.header_bytes + changed.layers[2].params["b"].nbytes + 1
    assert registry.delta_bytes("clf", 2, have="clf@2") == 0
    # an unrelated artifact shares nothing: full price
    _publish(
        registry,
        Sequential([Dense(2, 2, seed=5)], name="o"),
        name="other",
        input_shape=(2,),
    )
    assert registry.delta_bytes("clf", 2, have="other@1") == full


def test_sync_planner_modes_and_seconds():
    registry = ModelRegistry()
    v1 = _publish(registry, _model(seed=0))
    changed = registry.pull("clf")
    changed.layers[2].params["b"][...] += 1.0
    _publish(registry, changed, base=v1)
    planner = ModelSyncPlanner(registry, WAN_LINK)

    cold = planner.plan("clf")
    assert cold.mode == "full" and cold.transfer_bytes == registry.get("clf").size_bytes
    warm = planner.plan("clf", have="clf@1")
    assert warm.mode == "delta"
    assert 0 < warm.transfer_bytes < cold.transfer_bytes
    assert 0 < warm.transfer_seconds < cold.transfer_seconds
    assert warm.saved_bytes == cold.transfer_bytes - warm.transfer_bytes
    done = planner.plan("clf", have="clf@2")
    assert done.mode == "up-to-date"
    assert done.transfer_bytes == 0 and done.transfer_seconds == 0.0


def test_concurrent_pulls_get_identical_bytes():
    """Two replicas pulling the same version must receive identical bytes."""
    registry = ModelRegistry()
    _publish(registry, _model(seed=0))
    results, errors = [], []

    def pull():
        try:
            results.append(registry.pull_bytes("clf", 1))
        except Exception as exc:  # pragma: no cover - diagnostic only
            errors.append(exc)

    threads = [threading.Thread(target=pull) for _ in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(results) == 16
    assert all(blob == results[0] for blob in results)
    x = np.random.default_rng(1).normal(size=(2, 6))
    models = [deserialize_model(blob) for blob in results[:3]]
    for model in models[1:]:
        np.testing.assert_allclose(model.predict(x), models[0].predict(x))


def test_concurrent_publish_and_pull_stay_consistent():
    registry = ModelRegistry()
    _publish(registry, _model(seed=0))
    stop = threading.Event()
    errors = []

    def publisher():
        seed = 1
        while not stop.is_set():
            try:
                _publish(registry, _model(seed=seed))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                return
            seed += 1

    def puller():
        while not stop.is_set():
            try:
                entry = registry.get("clf")
                blob = registry.pull_bytes("clf", entry.version)
                assert len(blob) == entry.size_bytes
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                return

    threads = [threading.Thread(target=publisher)] + [
        threading.Thread(target=puller) for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    stop.wait(0.3)
    stop.set()
    for thread in threads:
        thread.join()
    assert not errors
    versions = registry.versions("clf")
    assert [v.version for v in versions] == list(range(1, len(versions) + 1))


def test_zoo_pull_from_registry_installs_full_entry():
    registry = ModelRegistry()
    _publish(registry, _model(seed=0), accuracy=0.9)
    zoo = ModelZoo()
    entry = zoo.pull_from(registry, "clf")
    assert entry.task == "image-classification"
    assert entry.input_shape == (6,)
    assert entry.scenario == "safety"
    assert entry.extra["registry_version"] == "clf@1"
    assert entry.extra["accuracy"] == 0.9
    x = np.random.default_rng(2).normal(size=(2, 6))
    np.testing.assert_allclose(entry.model.predict(x), registry.pull("clf").predict(x))


def test_package_manager_install_from_registry_swaps_versions():
    registry = ModelRegistry()
    v1 = _publish(registry, _model(seed=0))
    openei = OpenEI.deploy("raspberry-pi-4")
    entry = openei.package_manager.install_from_registry(registry, "clf")
    assert entry.extra["registry_version"] == "clf@1"
    assert "clf" in openei.package_manager.loaded_models

    changed = registry.pull("clf")
    changed.layers[2].params["b"][...] += 1.0
    _publish(registry, changed, base=v1)
    entry = openei.package_manager.install_from_registry(registry, "clf")
    assert entry.extra["registry_version"] == "clf@2"
    assert openei.zoo.get("clf").extra["registry_version"] == "clf@2"
    assert "clf" in openei.package_manager.loaded_models


def test_failed_install_from_registry_keeps_the_loaded_model():
    """An unknown version must not unload what the edge is already serving."""
    registry = ModelRegistry()
    _publish(registry, _model(seed=0))
    openei = OpenEI.deploy("raspberry-pi-4")
    openei.package_manager.install_from_registry(registry, "clf")
    with pytest.raises(ResourceNotFoundError):
        openei.package_manager.install_from_registry(registry, "clf", version=99)
    with pytest.raises(ResourceNotFoundError):
        openei.package_manager.install_from_registry(registry, "missing")
    assert "clf" in openei.package_manager.loaded_models
    assert openei.zoo.get("clf").extra["registry_version"] == "clf@1"
