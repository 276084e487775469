"""Batch normalization."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import initializers
from repro.nn.layers.base import ParametricLayer


class BatchNorm(ParametricLayer):
    """Batch normalization over the last (feature/channel) axis.

    Works for both 2-D ``(batch, features)`` and 4-D ``(batch, h, w, c)``
    inputs; statistics are computed over every axis except the last.
    """

    kind = "normalization"

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.9,
        epsilon: float = 1e-5,
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        if num_features <= 0:
            raise ConfigurationError("num_features must be positive")
        if not 0.0 < momentum < 1.0:
            raise ConfigurationError("momentum must lie in (0, 1)")
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)
        self._params["gamma"] = initializers.ones((self.num_features,), self._rng)
        self._params["beta"] = initializers.zeros((self.num_features,), self._rng)
        self.zero_grads()
        self.running_mean = np.zeros(self.num_features)
        self.running_var = np.ones(self.num_features)
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self.output_shape(inputs.shape[1:])
        axes = tuple(range(inputs.ndim - 1))
        if training:
            mean = inputs.mean(axis=axes)
            var = inputs.var(axis=axes)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
            normalized = (inputs - mean) / np.sqrt(var + self.epsilon)
            self._cache = (normalized, var, inputs - mean)
        else:
            normalized = (inputs - self.running_mean) / np.sqrt(self.running_var + self.epsilon)
        return self._params["gamma"] * normalized + self._params["beta"]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        normalized, var, centered = self._cache
        axes = tuple(range(grad_output.ndim - 1))
        count = int(np.prod([grad_output.shape[a] for a in axes]))
        self._grads["gamma"] = (grad_output * normalized).sum(axis=axes)
        self._grads["beta"] = grad_output.sum(axis=axes)
        std_inv = 1.0 / np.sqrt(var + self.epsilon)
        grad_norm = grad_output * self._params["gamma"]
        grad_var = (-0.5 * std_inv**3 * (grad_norm * centered).sum(axis=axes))
        grad_mean = (-std_inv * grad_norm.sum(axis=axes)) + grad_var * (
            -2.0 * centered.mean(axis=axes)
        )
        return grad_norm * std_inv + grad_var * 2.0 * centered / count + grad_mean / count

    def get_config(self) -> Dict[str, object]:
        return {
            **super().get_config(),
            "num_features": self.num_features,
            "momentum": self.momentum,
            "epsilon": self.epsilon,
        }

    def get_state(self) -> Dict[str, np.ndarray]:
        """Running statistics: inference-time behavior lives here, not in params."""
        return {
            "running_mean": self.running_mean.copy(),
            "running_var": self.running_var.copy(),
        }

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        for key, value in state.items():
            if key not in ("running_mean", "running_var"):
                raise ShapeError(f"BatchNorm {self.name!r} has no state {key!r}")
            value = np.asarray(value, dtype=np.float64)
            if value.shape != (self.num_features,):
                raise ShapeError(
                    f"BatchNorm {self.name!r} state {key!r} expects shape "
                    f"{(self.num_features,)}; got {value.shape}"
                )
            setattr(self, key, value)

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        return int(2 * np.prod(input_shape))

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) < 1 or input_shape[-1] != self.num_features:
            raise ConfigurationError(
                f"{self.label} normalizes {self.num_features} features over the last "
                f"axis, got shape {tuple(input_shape)}"
            )
        return input_shape
