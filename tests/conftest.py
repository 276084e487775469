"""Shared fixtures for the OpenEI reproduction test-suite.

Expensive artifacts (trained models, populated zoos, deployed OpenEI
instances) are session-scoped so the several hundred tests stay fast.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

#: CI sets ``REPRO_MAX_TEST_S=3``: a test whose call phase runs longer
#: fails, so time-driven tests move a ManualClock instead of waiting.
MAX_TEST_S = float(os.environ.get("REPRO_MAX_TEST_S") or 0.0)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    report = (yield).get_result()
    if MAX_TEST_S and report.when == "call" and report.passed and report.duration > MAX_TEST_S:
        report.outcome = "failed"
        report.longrepr = (
            f"{item.nodeid} took {report.duration:.2f} s; tests under tests/ "
            f"get {MAX_TEST_S:g} s (REPRO_MAX_TEST_S)"
        )

from repro.core.model_zoo import ModelZoo
from repro.core.openei import OpenEI
from repro.eialgorithms import build_lenet, build_mlp, build_mobilenet, build_vgg_lite
from repro.nn.datasets import Dataset, make_blobs, make_images
from repro.nn.optimizers import Adam


@pytest.fixture(scope="session")
def blobs_dataset():
    """Small, easily-separable tabular dataset."""
    return make_blobs(samples=320, features=10, classes=3, seed=0)


@pytest.fixture(scope="session")
def images_dataset():
    """Tiny synthetic image-classification dataset (16x16 grayscale)."""
    return make_images(samples=160, image_size=16, channels=1, classes=3, seed=0)


@pytest.fixture(scope="session")
def sequences_dataset():
    """Tiny synthetic sequence dataset (20 steps, 4 channels): each class
    is a noisy sine pattern of its own frequency, with a per-channel phase."""
    rng = np.random.default_rng(0)
    steps, features, classes, per_class = 20, 4, 3, 160 // 3
    time = np.linspace(0, 2 * np.pi, steps)
    xs, ys = [], []
    for cls in range(classes):
        phases = rng.uniform(0, 2 * np.pi, size=features)
        base = np.stack([np.sin((1.0 + cls) * time + phase) for phase in phases], axis=1)
        xs.append(base[None, :, :] + rng.normal(0.0, 0.25, size=(per_class, steps, features)))
        ys.append(np.full(per_class, cls))
    order = rng.permutation(classes * per_class)
    x, y = np.concatenate(xs)[order], np.concatenate(ys).astype(np.int64)[order]
    split = int(len(x) * 0.75)
    return Dataset(x[:split], y[:split], x[split:], y[split:], classes, name="sequences")


@pytest.fixture(scope="session")
def trained_mlp(blobs_dataset):
    """A small MLP trained to high accuracy on the blobs dataset."""
    model = build_mlp(10, 3, hidden=(32,), seed=0, name="trained-mlp")
    model.fit(
        blobs_dataset.x_train,
        blobs_dataset.y_train,
        epochs=12,
        batch_size=32,
        optimizer=Adam(0.01),
    )
    return model


@pytest.fixture(scope="session")
def trained_image_models(images_dataset):
    """Three trained image classifiers of different sizes (mobilenet/lenet/vgg)."""
    models = {}
    for name, builder in (
        ("mobilenet-0.5x", lambda: build_mobilenet((16, 16, 1), 3, 0.5, seed=0, name="mobilenet-0.5x")),
        ("lenet", lambda: build_lenet((16, 16, 1), 3, seed=0, name="lenet")),
        ("vgg-0.5x", lambda: build_vgg_lite((16, 16, 1), 3, 0.5, seed=0, name="vgg-0.5x")),
    ):
        model = builder()
        model.fit(
            images_dataset.x_train,
            images_dataset.y_train,
            epochs=3,
            batch_size=16,
            optimizer=Adam(0.005),
        )
        models[name] = model
    return models


@pytest.fixture(scope="session")
def image_zoo(trained_image_models):
    """A model zoo holding the trained image classifiers."""
    zoo = ModelZoo()
    for name, model in trained_image_models.items():
        zoo.register(name, model, task="image-classification", input_shape=(16, 16, 1), scenario="safety")
    return zoo


@pytest.fixture(scope="session")
def deployed_openei(image_zoo):
    """OpenEI deployed on a Raspberry Pi 4 with the image zoo attached."""
    return OpenEI(device_name="raspberry-pi-4", zoo=image_zoo)


@pytest.fixture()
def rng():
    """Fresh deterministic random generator per test."""
    return np.random.default_rng(1234)
