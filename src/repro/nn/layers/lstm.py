"""LSTM layer.

The paper's EI-algorithm survey uses the standard LSTM as the reference
point for sequence models — EMI-RNN is quoted as needing "72 times less
computation than standard LSTM" and ESE accelerates LSTMs on FPGAs.  This
layer provides that reference so the EMI-RNN/FastGRNN ablation benchmark
has the baseline the paper compares against.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn import initializers
from repro.nn.layers.base import RecurrentLayer


class LSTMLayer(RecurrentLayer):
    """A standard LSTM applied over a sequence, returning the final hidden state."""

    GATES = ("i", "f", "o", "g")

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        forget_bias: float = 1.0,
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        if input_size <= 0 or hidden_size <= 0:
            raise ConfigurationError("LSTMLayer requires positive input_size and hidden_size")
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        self.forget_bias = float(forget_bias)
        init = initializers.get("glorot_uniform")
        for gate in self.GATES:
            self._params[f"Wx_{gate}"] = init((self.input_size, self.hidden_size), self._rng)
            self._params[f"Wh_{gate}"] = init((self.hidden_size, self.hidden_size), self._rng)
            self._params[f"b_{gate}"] = initializers.zeros((self.hidden_size,), self._rng)
        # The classic trick: bias the forget gate open so gradients flow early in training.
        self._params["b_f"] = self._params["b_f"] + forget_bias
        self.zero_grads()
        self._cache = None

    @staticmethod
    def _sigmoid(x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self.output_shape(inputs.shape[1:])
        batch, steps, _ = inputs.shape
        hidden = np.zeros((batch, self.hidden_size))
        cell = np.zeros((batch, self.hidden_size))
        # gate caches exist only for backprop; inference must not hold
        # O(steps) per-timestep arrays it never reads
        caches = [] if training else None
        for t in range(steps):
            x_t = inputs[:, t, :]
            i = self._sigmoid(x_t @ self._params["Wx_i"] + hidden @ self._params["Wh_i"] + self._params["b_i"])
            f = self._sigmoid(x_t @ self._params["Wx_f"] + hidden @ self._params["Wh_f"] + self._params["b_f"])
            o = self._sigmoid(x_t @ self._params["Wx_o"] + hidden @ self._params["Wh_o"] + self._params["b_o"])
            g = np.tanh(x_t @ self._params["Wx_g"] + hidden @ self._params["Wh_g"] + self._params["b_g"])
            new_cell = f * cell + i * g
            tanh_cell = np.tanh(new_cell)
            new_hidden = o * tanh_cell
            if caches is not None:
                caches.append((x_t, hidden, cell, i, f, o, g, new_cell, tanh_cell))
            hidden, cell = new_hidden, new_cell
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
        grad_h = grad_output
        grad_c = np.zeros_like(grad_output)
        for t in reversed(range(len(caches))):
            x_t, h_prev, c_prev, i, f, o, g, new_cell, tanh_cell = caches[t]
            grad_o = grad_h * tanh_cell
            grad_c_total = grad_c + grad_h * o * (1.0 - tanh_cell**2)
            grad_i = grad_c_total * g
            grad_g = grad_c_total * i
            grad_f = grad_c_total * c_prev
            grad_c = grad_c_total * f

            pre = {
                "i": grad_i * i * (1.0 - i),
                "f": grad_f * f * (1.0 - f),
                "o": grad_o * o * (1.0 - o),
                "g": grad_g * (1.0 - g**2),
            }
            grad_x = np.zeros_like(x_t)
            grad_h = np.zeros_like(h_prev)
            for gate in self.GATES:
                self._grads[f"Wx_{gate}"] += x_t.T @ pre[gate]
                self._grads[f"Wh_{gate}"] += h_prev.T @ pre[gate]
                self._grads[f"b_{gate}"] += pre[gate].sum(axis=0)
                grad_x += pre[gate] @ self._params[f"Wx_{gate}"].T
                grad_h += pre[gate] @ self._params[f"Wh_{gate}"].T
            grad_inputs[:, t, :] = grad_x
        return grad_inputs

    def get_config(self) -> Dict[str, object]:
        return {
            **super().get_config(),
            "input_size": self.input_size,
            "hidden_size": self.hidden_size,
            "forget_bias": self.forget_bias,
        }

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        steps, _ = input_shape
        per_gate = self.input_size * self.hidden_size + self.hidden_size * self.hidden_size
        return int(steps * 4 * per_gate)


class LSTMClassifier:
    """Sequence classifier: LSTM + softmax head (the EMI-RNN comparison baseline)."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int = 32,
        num_classes: int = 2,
        seed: int = 0,
    ) -> None:
        from repro.nn.layers import Dense, Softmax
        from repro.nn.model import Sequential

        if num_classes <= 1:
            raise ConfigurationError("num_classes must be at least 2")
        self.model = Sequential(
            [
                LSTMLayer(input_size, hidden_size, seed=seed),
                Dense(hidden_size, num_classes, seed=seed + 1),
                Softmax(),
            ],
            name=f"lstm-h{hidden_size}",
        )
        self.name = self.model.name

    def fit(self, x: np.ndarray, y: np.ndarray, epochs: int = 15, batch_size: int = 32,
            learning_rate: float = 0.01) -> "LSTMClassifier":
        """Train on ``(samples, steps, features)`` sequences with integer labels."""
        from repro.nn.losses import CrossEntropyLoss
        from repro.nn.optimizers import Adam

        self.model.fit(x, y, epochs=epochs, batch_size=batch_size,
                       loss=CrossEntropyLoss(), optimizer=Adam(learning_rate))
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return self.model.predict_classes(x)

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy."""
        return self.model.evaluate(x, y)[1]

    def param_count(self) -> int:
        """Total trainable scalars."""
        return self.model.param_count()

    def flops_per_sequence(self, steps: int, features: int) -> int:
        """Multiply-accumulates to classify one full sequence."""
        return self.model.flops((steps, features))
