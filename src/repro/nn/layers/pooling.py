"""Pooling layers for NHWC tensors."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers.base import Layer


def _pool_contract(layer: Layer, input_shape: Tuple[int, ...]) -> Tuple[int, int, int]:
    """The input contract MaxPool2D and AvgPool2D share: rank and divisibility."""
    layer._expect_rank(input_shape, 3, "(height, width, channels) input")
    height, width, channels = input_shape
    p = layer.pool_size
    if height % p or width % p:
        raise ShapeError(
            f"{layer.label} requires spatial dims divisible by {p}; got {(height, width)}"
        )
    return (height // p, width // p, channels)


class MaxPool2D(Layer):
    """Non-overlapping max pooling."""

    kind = "pooling"

    def __init__(self, pool_size: int = 2, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        if pool_size <= 0:
            raise ConfigurationError("pool_size must be positive")
        self.pool_size = int(pool_size)
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...]]] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        out_h, out_w, channels = self.output_shape(inputs.shape[1:])
        p = self.pool_size
        windows = inputs.reshape(inputs.shape[0], out_h, p, out_w, p, channels)
        out = windows.max(axis=(2, 4))
        if training:
            mask = windows == out[:, :, None, :, None, :]
            self._cache = (mask, inputs.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        mask, input_shape = self._cache
        grad = mask * grad_output[:, :, None, :, None, :]
        return grad.reshape(input_shape)

    def get_config(self) -> Dict[str, object]:
        return {**super().get_config(), "pool_size": self.pool_size}

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return _pool_contract(self, input_shape)


class AvgPool2D(Layer):
    """Non-overlapping average pooling."""

    kind = "pooling"

    def __init__(self, pool_size: int = 2, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        if pool_size <= 0:
            raise ConfigurationError("pool_size must be positive")
        self.pool_size = int(pool_size)
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        out_h, out_w, channels = self.output_shape(inputs.shape[1:])
        p = self.pool_size
        if training:
            self._input_shape = inputs.shape
        windows = inputs.reshape(inputs.shape[0], out_h, p, out_w, p, channels)
        return windows.mean(axis=(2, 4))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        p = self.pool_size
        grad = np.repeat(np.repeat(grad_output, p, axis=1), p, axis=2)
        return grad / (p * p)

    def get_config(self) -> Dict[str, object]:
        return {**super().get_config(), "pool_size": self.pool_size}

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return _pool_contract(self, input_shape)


class GlobalAvgPool2D(Layer):
    """Average over all spatial positions, producing one value per channel."""

    kind = "pooling"

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self.output_shape(inputs.shape[1:])
        if training:
            self._input_shape = inputs.shape
        return inputs.mean(axis=(1, 2))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        _, height, width, _ = self._input_shape
        grad = grad_output[:, None, None, :] / (height * width)
        return np.broadcast_to(grad, self._input_shape).copy()

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        self._expect_rank(input_shape, 3, "(height, width, channels) input")
        return (input_shape[2],)
