"""Fully-connected layer."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn import initializers
from repro.nn.layers.base import ParametricLayer


class Dense(ParametricLayer):
    """A fully-connected (affine) layer: ``y = x @ W + b``."""

    kind = "dense"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        use_bias: bool = True,
        weight_init: str = "glorot_uniform",
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError("Dense requires positive in_features and out_features")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.use_bias = bool(use_bias)
        self.weight_init = str(weight_init)
        init = initializers.get(weight_init)
        self._params["W"] = init((self.in_features, self.out_features), self._rng)
        if self.use_bias:
            self._params["b"] = initializers.zeros((self.out_features,), self._rng)
        self.zero_grads()
        self._cache_inputs: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self.output_shape(inputs.shape[1:])
        if training:
            self._cache_inputs = inputs
        out = inputs @ self._params["W"]
        if self.use_bias:
            out = out + self._params["b"]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_inputs is None:
            raise RuntimeError("backward called before forward(training=True)")
        inputs = self._cache_inputs
        self._grads["W"] = inputs.T @ grad_output
        if self.use_bias:
            self._grads["b"] = grad_output.sum(axis=0)
        return grad_output @ self._params["W"].T

    def get_config(self) -> Dict[str, object]:
        return {
            **super().get_config(),
            "in_features": self.in_features,
            "out_features": self.out_features,
            "use_bias": self.use_bias,
            "weight_init": self.weight_init,
        }

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        del input_shape
        return self.in_features * self.out_features

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        self._expect_rank(input_shape, 1, "a flat feature vector")
        if input_shape[0] != self.in_features:
            raise ConfigurationError(
                f"{self.label} expects {self.in_features} input features, got {input_shape[0]}"
            )
        return (self.out_features,)
