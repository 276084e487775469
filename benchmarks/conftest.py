"""Shared fixtures for the benchmark harnesses.

Each benchmark regenerates one table or figure of the paper (see the
benchmark ↔ figure map in docs/ARCHITECTURE.md, and docs/BENCHMARKS.md
for how to run them).  Expensive artifacts — trained models,
populated zoos — are session-scoped so `pytest benchmarks/
--benchmark-only` completes in minutes on a laptop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import magnitude_prune_model, quantize_int8_model
from repro.core.model_zoo import ModelZoo
from repro.eialgorithms import (
    build_lenet,
    build_mobilenet,
    build_squeezenet,
    build_vgg_lite,
)
from repro.nn.datasets import make_blobs, make_images, make_personalized_shift
from repro.nn.optimizers import Adam


@pytest.fixture(scope="session")
def vision_dataset():
    """The synthetic image-classification workload every vision bench shares."""
    return make_images(samples=240, image_size=16, channels=1, classes=3, seed=0)


@pytest.fixture(scope="session")
def tabular_dataset():
    """Tabular dataset used by the dataflow and compression benches."""
    return make_blobs(samples=400, features=12, classes=4, spread=1.5, seed=1)


@pytest.fixture(scope="session")
def personalized_dataset(tabular_dataset):
    """An edge-local distribution shifted away from the cloud's training data."""
    return make_personalized_shift(tabular_dataset, shift=4.0, samples=160, seed=2)


@pytest.fixture(scope="session")
def trained_vision_models(vision_dataset):
    """Four trained classifiers spanning heavyweight to edge-native architectures."""
    models = {}
    builders = {
        "vgg-lite": lambda: build_vgg_lite((16, 16, 1), 3, 0.5, seed=0, name="vgg-lite"),
        "lenet": lambda: build_lenet((16, 16, 1), 3, seed=0, name="lenet"),
        "squeezenet": lambda: build_squeezenet((16, 16, 1), 3, seed=0, name="squeezenet"),
        "mobilenet": lambda: build_mobilenet((16, 16, 1), 3, 0.5, seed=0, name="mobilenet"),
    }
    for name, builder in builders.items():
        model = builder()
        model.fit(
            vision_dataset.x_train,
            vision_dataset.y_train,
            epochs=4,
            batch_size=16,
            optimizer=Adam(0.005),
        )
        models[name] = model
    return models


@pytest.fixture(scope="session")
def vision_zoo(trained_vision_models):
    """Model zoo with the trained classifiers plus a compressed MobileNet variant."""
    zoo = ModelZoo()
    for name, model in trained_vision_models.items():
        zoo.register(name, model, task="image-classification", input_shape=(16, 16, 1),
                     scenario="safety")
    compressed = quantize_int8_model(magnitude_prune_model(trained_vision_models["mobilenet"], 0.5))
    compressed.name = "mobilenet-compressed"
    zoo.register("mobilenet-compressed", compressed, task="image-classification",
                 input_shape=(16, 16, 1), scenario="safety", optimizations=("prune-50", "int8"))
    return zoo


def print_table(title: str, header: str, rows: list[str]) -> None:
    """Uniform table printer used by every bench so the report reads like the paper."""
    print(f"\n=== {title}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(row)
