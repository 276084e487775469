"""FastGRNN: a fast, accurate and tiny gated RNN (Kusupati et al. 2018).

FastGRNN's key trick relative to a GRU/LSTM is weight reuse: a *single*
pair of input/hidden matrices (W, U) is shared between the gate and the
candidate state, and the gate is blended with two scalar trainable
parameters zeta and nu:

    z_t     = sigmoid(W x_t + U h_{t-1} + b_z)
    h_tilde = tanh   (W x_t + U h_{t-1} + b_h)
    h_t     = (zeta * (1 - z_t) + nu) * h_tilde + z_t * h_{t-1}

This cuts the recurrent parameter count roughly 3-4x versus a GRU, the
property the EMI-RNN/FastGRNN comparison in the paper leans on.  The
classifier below stacks the cell over a sequence and adds a softmax head,
trained end-to-end with backpropagation through time.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn import initializers
from repro.nn.engine import FastGRNNStep, plan_step
from repro.nn.layers import Dense, Softmax
from repro.nn.layers.base import RecurrentLayer
from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.serialization import register_layer


@register_layer
class FastGRNNLayer(RecurrentLayer):
    """The FastGRNN recurrent cell applied over a full sequence."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        zeta_init: float = 1.0,
        nu_init: float = 0.0,
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        if input_size <= 0 or hidden_size <= 0:
            raise ConfigurationError("FastGRNNLayer requires positive input_size and hidden_size")
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        self.zeta_init = float(zeta_init)
        self.nu_init = float(nu_init)
        init = initializers.get("glorot_uniform")
        self._params["W"] = init((self.input_size, self.hidden_size), self._rng)
        self._params["U"] = init((self.hidden_size, self.hidden_size), self._rng)
        self._params["b_z"] = initializers.zeros((self.hidden_size,), self._rng)
        self._params["b_h"] = initializers.zeros((self.hidden_size,), self._rng)
        self._params["zeta"] = np.array([zeta_init])
        self._params["nu"] = np.array([nu_init])
        self.zero_grads()
        self._cache = None

    @staticmethod
    def _sigmoid(x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self.output_shape(inputs.shape[1:])
        batch, steps, _ = inputs.shape
        hidden = np.zeros((batch, self.hidden_size))
        # gate caches exist only for backprop; inference must not hold
        # O(steps) per-timestep arrays it never reads
        caches = [] if training else None
        zeta = self._params["zeta"][0]
        nu = self._params["nu"][0]
        for t in range(steps):
            x_t = inputs[:, t, :]
            pre = x_t @ self._params["W"] + hidden @ self._params["U"]
            z = self._sigmoid(pre + self._params["b_z"])
            h_tilde = np.tanh(pre + self._params["b_h"])
            new_hidden = (zeta * (1.0 - z) + nu) * h_tilde + z * hidden
            if caches is not None:
                caches.append((x_t, hidden, z, h_tilde))
            hidden = new_hidden
        if training:
            self._cache = (inputs.shape, caches)
        return hidden

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        input_shape, caches = self._cache
        grad_inputs = np.zeros(input_shape)
        for key in self._params:
            self._grads[key] = np.zeros_like(self._params[key])
        zeta = self._params["zeta"][0]
        nu = self._params["nu"][0]
        grad_h = grad_output
        for t in reversed(range(len(caches))):
            x_t, h_prev, z, h_tilde = caches[t]
            gate_scale = zeta * (1.0 - z) + nu
            grad_h_tilde = grad_h * gate_scale
            grad_z = grad_h * (-zeta * h_tilde + h_prev)
            grad_h_prev = grad_h * z

            self._grads["zeta"][0] += float(np.sum(grad_h * (1.0 - z) * h_tilde))
            self._grads["nu"][0] += float(np.sum(grad_h * h_tilde))

            grad_pre_h = grad_h_tilde * (1.0 - h_tilde**2)
            grad_pre_z = grad_z * z * (1.0 - z)
            grad_pre = grad_pre_h + grad_pre_z

            self._grads["W"] += x_t.T @ grad_pre
            self._grads["U"] += h_prev.T @ grad_pre
            self._grads["b_z"] += grad_pre_z.sum(axis=0)
            self._grads["b_h"] += grad_pre_h.sum(axis=0)

            grad_inputs[:, t, :] = grad_pre @ self._params["W"].T
            grad_h = grad_h_prev + grad_pre @ self._params["U"].T
        return grad_inputs

    def get_config(self) -> Dict[str, object]:
        return {
            **super().get_config(),
            "input_size": self.input_size,
            "hidden_size": self.hidden_size,
            "zeta_init": self.zeta_init,
            "nu_init": self.nu_init,
        }

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        steps, _ = input_shape
        per_step = self.input_size * self.hidden_size + self.hidden_size * self.hidden_size
        return int(steps * per_step)


plan_step(FastGRNNLayer)(FastGRNNStep)


class FastGRNNClassifier:
    """Sequence classifier: FastGRNN cell + softmax head."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int = 16,
        num_classes: int = 2,
        seed: int = 0,
    ) -> None:
        if num_classes <= 1:
            raise ConfigurationError("num_classes must be at least 2")
        self.model = Sequential(
            [
                FastGRNNLayer(input_size, hidden_size, seed=seed),
                Dense(hidden_size, num_classes, seed=seed + 1),
                Softmax(),
            ],
            name=f"fastgrnn-h{hidden_size}",
        )
        self.name = self.model.name

    def fit(self, x: np.ndarray, y: np.ndarray, epochs: int = 15, batch_size: int = 32,
            learning_rate: float = 0.01) -> "FastGRNNClassifier":
        """Train on ``(samples, steps, features)`` sequences with integer labels."""
        self.model.fit(
            x, y, epochs=epochs, batch_size=batch_size,
            loss=CrossEntropyLoss(), optimizer=Adam(learning_rate),
        )
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for each sequence."""
        return self.model.predict(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return self.model.predict_classes(x)

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy."""
        return self.model.evaluate(x, y)[1]

    def param_count(self) -> int:
        """Total trainable scalars."""
        return self.model.param_count()

    def size_bytes(self, bytes_per_param: float = 4.0) -> float:
        """Serialized size in bytes."""
        return self.model.size_bytes(bytes_per_param)
