"""Recurrent layers: a simple RNN and a gated recurrent cell.

These back the sequence models used by the connected-health and
smart-home scenarios, and by the FastGRNN / EMI-RNN style EI algorithms
in :mod:`repro.eialgorithms`.  Inputs are ``(batch, time, features)``;
the layers return the final hidden state so they can feed a classifier
head directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn import initializers
from repro.nn.layers.base import RecurrentLayer


class SimpleRNN(RecurrentLayer):
    """Elman RNN with tanh activation, returning the last hidden state."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        if input_size <= 0 or hidden_size <= 0:
            raise ConfigurationError("SimpleRNN requires positive input_size and hidden_size")
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        init = initializers.get("glorot_uniform")
        self._params["Wx"] = init((self.input_size, self.hidden_size), self._rng)
        self._params["Wh"] = init((self.hidden_size, self.hidden_size), self._rng)
        self._params["b"] = initializers.zeros((self.hidden_size,), self._rng)
        self.zero_grads()
        self._cache: Optional[Tuple[np.ndarray, List[np.ndarray]]] = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self.output_shape(inputs.shape[1:])
        batch, steps, _ = inputs.shape
        hidden = np.zeros((batch, self.hidden_size))
        # the per-timestep state list exists only for backprop; inference
        # must not hold O(steps) hidden-state arrays it never reads
        states = [hidden] if training else None
        for t in range(steps):
            hidden = np.tanh(
                inputs[:, t, :] @ self._params["Wx"]
                + hidden @ self._params["Wh"]
                + self._params["b"]
            )
            if states is not None:
                states.append(hidden)
        if training:
            self._cache = (inputs, states)
        return hidden

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        inputs, states = self._cache
        batch, steps, _ = inputs.shape
        grad_inputs = np.zeros_like(inputs)
        grad_wx = np.zeros_like(self._params["Wx"])
        grad_wh = np.zeros_like(self._params["Wh"])
        grad_b = np.zeros_like(self._params["b"])
        grad_h = grad_output
        for t in reversed(range(steps)):
            h_t = states[t + 1]
            h_prev = states[t]
            grad_pre = grad_h * (1.0 - h_t**2)
            grad_wx += inputs[:, t, :].T @ grad_pre
            grad_wh += h_prev.T @ grad_pre
            grad_b += grad_pre.sum(axis=0)
            grad_inputs[:, t, :] = grad_pre @ self._params["Wx"].T
            grad_h = grad_pre @ self._params["Wh"].T
        self._grads["Wx"] = grad_wx
        self._grads["Wh"] = grad_wh
        self._grads["b"] = grad_b
        return grad_inputs

    def get_config(self) -> Dict[str, object]:
        return {
            **super().get_config(),
            "input_size": self.input_size,
            "hidden_size": self.hidden_size,
        }

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        steps, _ = input_shape
        per_step = self.input_size * self.hidden_size + self.hidden_size * self.hidden_size
        return int(steps * per_step)


class GRUCellLayer(RecurrentLayer):
    """Gated recurrent unit over a sequence, returning the last hidden state.

    The update/reset gating makes it the substrate for the FastGRNN-style
    EI algorithm (which further ties and scales the gate weights).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        if input_size <= 0 or hidden_size <= 0:
            raise ConfigurationError("GRUCellLayer requires positive input_size and hidden_size")
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        init = initializers.get("glorot_uniform")
        for gate in ("z", "r", "h"):
            self._params[f"Wx_{gate}"] = init((self.input_size, self.hidden_size), self._rng)
            self._params[f"Wh_{gate}"] = init((self.hidden_size, self.hidden_size), self._rng)
            self._params[f"b_{gate}"] = initializers.zeros((self.hidden_size,), self._rng)
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
        for t in range(steps):
            x_t = inputs[:, t, :]
            z = self._sigmoid(
                x_t @ self._params["Wx_z"] + hidden @ self._params["Wh_z"] + self._params["b_z"]
            )
            r = self._sigmoid(
                x_t @ self._params["Wx_r"] + hidden @ self._params["Wh_r"] + self._params["b_r"]
            )
            h_tilde = np.tanh(
                x_t @ self._params["Wx_h"]
                + (r * hidden) @ self._params["Wh_h"]
                + self._params["b_h"]
            )
            new_hidden = (1.0 - z) * hidden + z * h_tilde
            if caches is not None:
                caches.append((x_t, hidden, z, r, h_tilde))
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
        grad_h = grad_output
        for t in reversed(range(len(caches))):
            x_t, h_prev, z, r, h_tilde = caches[t]
            grad_h_tilde = grad_h * z
            grad_z = grad_h * (h_tilde - h_prev)
            grad_h_prev = grad_h * (1.0 - z)

            grad_pre_h = grad_h_tilde * (1.0 - h_tilde**2)
            grad_pre_z = grad_z * z * (1.0 - z)

            self._grads["Wx_h"] += x_t.T @ grad_pre_h
            self._grads["Wh_h"] += (r * h_prev).T @ grad_pre_h
            self._grads["b_h"] += grad_pre_h.sum(axis=0)

            grad_rh = grad_pre_h @ self._params["Wh_h"].T
            grad_r = grad_rh * h_prev
            grad_pre_r = grad_r * r * (1.0 - r)

            self._grads["Wx_z"] += x_t.T @ grad_pre_z
            self._grads["Wh_z"] += h_prev.T @ grad_pre_z
            self._grads["b_z"] += grad_pre_z.sum(axis=0)

            self._grads["Wx_r"] += x_t.T @ grad_pre_r
            self._grads["Wh_r"] += h_prev.T @ grad_pre_r
            self._grads["b_r"] += grad_pre_r.sum(axis=0)

            grad_inputs[:, t, :] = (
                grad_pre_h @ self._params["Wx_h"].T
                + grad_pre_z @ self._params["Wx_z"].T
                + grad_pre_r @ self._params["Wx_r"].T
            )
            grad_h = (
                grad_h_prev
                + grad_rh * r
                + grad_pre_z @ self._params["Wh_z"].T
                + grad_pre_r @ self._params["Wh_r"].T
            )
        return grad_inputs

    def get_config(self) -> Dict[str, object]:
        return {
            **super().get_config(),
            "input_size": self.input_size,
            "hidden_size": self.hidden_size,
        }

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        steps, _ = input_shape
        per_gate = self.input_size * self.hidden_size + self.hidden_size * self.hidden_size
        return int(steps * 3 * per_gate)
