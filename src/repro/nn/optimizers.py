"""Gradient-descent optimizers for the lightweight deep-learning package."""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers.base import Layer


class Optimizer:
    """Base class: iterates over layers and applies per-parameter updates."""

    def __init__(self, learning_rate: float = 0.01) -> None:
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self.iterations = 0

    def step(self, layers: Iterable[Layer]) -> None:
        """Apply one update using each layer's accumulated gradients."""
        for layer in layers:
            if not layer.trainable:
                continue
            params = layer.params
            grads = layer.grads
            for key, value in params.items():
                grad = grads.get(key)
                if grad is None:
                    continue
                params[key][...] = self._update((id(layer), key), value, grad)
        self.iterations += 1

    def _update(self, slot: Tuple[int, str], param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def _update(self, slot, param, grad):
        del slot
        return param - self.learning_rate * grad


class Adam(Optimizer):
    """Adam with bias-corrected first and second moments."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("beta1 and beta2 must lie in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: Dict[Tuple[int, str], np.ndarray] = {}
        self._v: Dict[Tuple[int, str], np.ndarray] = {}
        self._t: Dict[Tuple[int, str], int] = {}

    def _update(self, slot, param, grad):
        m = self._m.get(slot, np.zeros_like(param))
        v = self._v.get(slot, np.zeros_like(param))
        t = self._t.get(slot, 0) + 1
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad**2
        self._m[slot], self._v[slot], self._t[slot] = m, v, t
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        return param - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
