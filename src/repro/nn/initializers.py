"""Weight initializers for the lightweight deep-learning package.

Each initializer is a callable taking a shape tuple and a NumPy random
generator and returning a ``float64`` array.  Keeping initialization
behind named functions makes layer construction deterministic when a
seeded generator is supplied, which the test-suite and the benchmark
harnesses rely on.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

Initializer = Callable[[Tuple[int, ...], np.random.Generator], np.ndarray]


def zeros(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Return an all-zeros array (used for biases)."""
    del rng
    return np.zeros(shape, dtype=np.float64)


def ones(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Return an all-ones array (used for batch-norm scale)."""
    del rng
    return np.ones(shape, dtype=np.float64)


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and convolutional weight shapes."""
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        # (kh, kw, in_channels, out_channels)
        receptive = shape[0] * shape[1]
        return receptive * shape[2], receptive * shape[3]
    size = int(np.prod(shape))
    return size, size


def glorot_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = _fan_in_out(shape)
    limit = math.sqrt(6.0 / max(1, fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He normal initialization, appropriate for ReLU networks."""
    fan_in, _ = _fan_in_out(shape)
    std = math.sqrt(2.0 / max(1, fan_in))
    return rng.normal(0.0, std, size=shape)


def normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Plain N(0, 0.05) initialization."""
    return rng.normal(0.0, 0.05, size=shape)


_REGISTRY = {
    "zeros": zeros,
    "ones": ones,
    "glorot_uniform": glorot_uniform,
    "he_normal": he_normal,
    "normal": normal,
}


def get(name: str) -> Initializer:
    """Look up an initializer by name.

    Raises
    ------
    ConfigurationError
        If ``name`` is not a registered initializer.
    """
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown initializer {name!r}; choose from {sorted(_REGISTRY)}"
        ) from exc
