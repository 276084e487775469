"""Layer abstraction used by every network in the reproduction.

A :class:`Layer` exposes ``forward``/``backward`` and, for parametric
layers, ``params`` and ``grads`` dictionaries keyed by parameter name.
The convention mirrors classic minimal frameworks: ``backward`` receives
the gradient of the loss with respect to the layer's output and returns
the gradient with respect to its input, accumulating parameter gradients
internally for the optimizer to consume.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError


class Layer:
    """Base class for all layers.

    Subclasses must implement :meth:`forward` and :meth:`backward`.
    Non-parametric layers (activations, pooling, reshaping) inherit the
    empty ``params``/``grads`` behaviour from this class.
    """

    #: human-readable layer kind, overridden by subclasses.
    kind = "layer"

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or self.__class__.__name__
        self.trainable = True

    # -- interface -----------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for a batch of inputs."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate ``grad_output`` back through the layer."""
        raise NotImplementedError

    @property
    def params(self) -> Dict[str, np.ndarray]:
        """Trainable parameters, keyed by name (empty for stateless layers)."""
        return {}

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        """Gradients matching :attr:`params` (empty for stateless layers)."""
        return {}

    # -- serialization --------------------------------------------------
    def get_config(self) -> Dict[str, object]:
        """Constructor keyword arguments that rebuild this layer's architecture.

        Subclasses extend the base ``{"name": ...}`` with every argument
        that shapes their parameters or forward pass; random seeds are
        deliberately omitted because serialized weights overwrite the
        initialization anyway.
        """
        return {"name": self.name}

    @classmethod
    def from_config(cls, config: Dict[str, object]) -> "Layer":
        """Rebuild a layer from :meth:`get_config` output."""
        return cls(**config)

    def get_state(self) -> Dict[str, np.ndarray]:
        """Non-parameter arrays the layer needs at inference time.

        Unlike :attr:`params`, these are not touched by optimizers but
        still define the layer's behavior (e.g. BatchNorm running
        statistics), so serialization must carry them.
        """
        return {}

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore arrays produced by :meth:`get_state`."""
        if state:
            raise ShapeError(
                f"layer {self.name!r} holds no serializable state; got keys {sorted(state)}"
            )

    # -- cost accounting ------------------------------------------------
    def param_count(self) -> int:
        """Number of scalar trainable parameters in the layer."""
        return int(sum(p.size for p in self.params.values()))

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        """Estimated multiply-accumulate count for one sample.

        Stateless layers default to one operation per input element,
        which keeps the analytical latency model monotone in tensor size.
        """
        return int(np.prod(input_shape))

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample shape produced for ``input_shape`` — and the kind's input contract.

        This is the one declaration of what a layer kind accepts: it
        raises the layer's named :class:`ShapeError` /
        :class:`ConfigurationError` for a per-sample shape (no batch axis)
        the kind cannot take.  ``forward``, the compiled plan's native
        steps and :func:`repro.analysis.shapes.check_model` all validate
        by calling it; none restates it.
        """
        return input_shape

    # -- helpers --------------------------------------------------------
    def _expect_rank(self, input_shape: Tuple[int, ...], rank: int, what: str) -> None:
        if len(input_shape) != rank:
            raise ShapeError(f"{self.label} expects {what}, got shape {tuple(input_shape)}")

    @property
    def label(self) -> str:
        """``Class 'name'`` — how error messages and shape findings name this layer."""
        return f"{type(self).__name__} {self.name!r}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.__class__.__name__} name={self.name!r} params={self.param_count()}>"


class ParametricLayer(Layer):
    """Base class for layers holding trainable parameters.

    Stores parameters and gradients in dictionaries so optimizers,
    serializers and compression passes can treat all layers uniformly.
    """

    kind = "parametric"

    def __init__(self, name: Optional[str] = None, seed: Optional[int] = None) -> None:
        super().__init__(name=name)
        self._params: Dict[str, np.ndarray] = {}
        self._grads: Dict[str, np.ndarray] = {}
        self._rng = np.random.default_rng(seed)

    @property
    def params(self) -> Dict[str, np.ndarray]:
        return self._params

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        return self._grads

    def set_param(self, key: str, value: np.ndarray) -> None:
        """Replace a parameter in place (used by compression and serialization)."""
        if key not in self._params:
            raise KeyError(f"layer {self.name!r} has no parameter {key!r}")
        if value.shape != self._params[key].shape:
            raise ShapeError(
                f"parameter {key!r} of layer {self.name!r} has shape "
                f"{self._params[key].shape}; got {value.shape}"
            )
        self._params[key] = np.asarray(value, dtype=np.float64)

    def zero_grads(self) -> None:
        """Reset all accumulated gradients to zero."""
        for key, value in self._params.items():
            self._grads[key] = np.zeros_like(value)


class RecurrentLayer(ParametricLayer):
    """Base for sequence layers: ``(steps, input_size)`` in, last hidden state out.

    Subclasses set ``input_size`` / ``hidden_size``; the contract every
    sequence kind shares is stated here once.
    """

    kind = "recurrent"
    input_size: int
    hidden_size: int

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        self._expect_rank(input_shape, 2, "(steps, features) sequences")
        if input_shape[1] != self.input_size:
            raise ConfigurationError(
                f"{self.label} consumes {self.input_size}-feature steps but the "
                f"sequence carries {input_shape[1]} features"
            )
        return (self.hidden_size,)
