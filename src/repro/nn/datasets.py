"""Synthetic datasets used throughout the reproduction.

The paper's experiments run on data we do not have (ImageNet-scale
images, KITTI video, household power traces).  These generators produce
laptop-scale synthetic datasets with the same *statistical shape* —
separable classes, spatial structure for images — so every code path
(training, compression, selection, serving) is exercised with meaningful accuracy signals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass
class Dataset:
    """A labelled dataset split into train and test partitions."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int
    name: str = "dataset"

    @property
    def input_shape(self) -> Tuple[int, ...]:
        """Shape of one sample (excluding the batch dimension)."""
        return tuple(self.x_train.shape[1:])


def _split(x: np.ndarray, y: np.ndarray, rng: np.random.Generator):
    """Shuffle, then hold out the last quarter as the test split."""
    order = rng.permutation(len(x))
    x, y = x[order], y[order]
    split = int(len(x) * 0.75)
    return x[:split], y[:split], x[split:], y[split:]


def make_blobs(
    samples: int = 600,
    features: int = 16,
    classes: int = 4,
    spread: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Gaussian blobs: the workhorse tabular classification task."""
    if samples <= 0 or features <= 0 or classes <= 1:
        raise ConfigurationError("make_blobs requires positive sizes and >= 2 classes")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 4.0, size=(classes, features))
    per_class = samples // classes
    xs, ys = [], []
    for cls in range(classes):
        xs.append(rng.normal(centers[cls], spread, size=(per_class, features)))
        ys.append(np.full(per_class, cls))
    x = np.concatenate(xs).astype(np.float64)
    y = np.concatenate(ys).astype(np.int64)
    x_train, y_train, x_test, y_test = _split(x, y, rng)
    return Dataset(x_train, y_train, x_test, y_test, classes, name="blobs")


def make_images(
    samples: int = 400,
    image_size: int = 16,
    channels: int = 1,
    classes: int = 4,
    noise: float = 0.3,
    seed: int = 0,
) -> Dataset:
    """Tiny synthetic image-classification task with class-specific spatial patterns.

    Each class gets a characteristic frequency/orientation pattern so
    convolutional models genuinely benefit from spatial filters.
    """
    if image_size < 4:
        raise ConfigurationError("image_size must be at least 4")
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, np.pi * 2, image_size), np.linspace(0, np.pi * 2, image_size))
    patterns = []
    for cls in range(classes):
        angle = np.pi * cls / classes
        frequency = 1.0 + cls
        pattern = np.sin(frequency * (xx * np.cos(angle) + yy * np.sin(angle)))
        patterns.append(pattern)
    xs, ys = [], []
    per_class = samples // classes
    for cls in range(classes):
        base = patterns[cls][None, :, :, None]
        batch = base + rng.normal(0.0, noise, size=(per_class, image_size, image_size, channels))
        xs.append(batch)
        ys.append(np.full(per_class, cls))
    x = np.concatenate(xs).astype(np.float64)
    y = np.concatenate(ys).astype(np.int64)
    x_train, y_train, x_test, y_test = _split(x, y, rng)
    return Dataset(x_train, y_train, x_test, y_test, classes, name="images")


def make_personalized_shift(
    base: Dataset,
    shift: float = 2.0,
    samples: int = 200,
    seed: int = 1,
) -> Dataset:
    """Derive an edge-local distribution shifted from a base dataset.

    Used by the Fig. 3 dataflow experiment: the cloud-trained global model
    underperforms on this shifted distribution until the edge retrains
    locally (dataflow 3).
    """
    rng = np.random.default_rng(seed)
    offsets = rng.normal(shift, 0.25, size=base.x_train.shape[1:])
    idx_train = rng.integers(0, len(base.x_train), size=samples)
    idx_test = rng.integers(0, len(base.x_test), size=max(1, samples // 4))
    return Dataset(
        x_train=base.x_train[idx_train] + offsets,
        y_train=base.y_train[idx_train],
        x_test=base.x_test[idx_test] + offsets,
        y_test=base.y_test[idx_test],
        num_classes=base.num_classes,
        name=f"{base.name}-personalized",
    )
