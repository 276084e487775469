"""Analytical cost counters for models.

The hardware profiler derives ALEM latency/energy from these counts
rather than from wall-clock measurements, so the selector's behaviour is
deterministic and board-independent (the ``hardware`` row of the package
map in docs/ARCHITECTURE.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.nn.model import Sequential


@dataclass(frozen=True)
class ModelCost:
    """Static cost profile of a model for a given input shape."""

    params: int
    flops: int
    size_bytes: float
    activation_bytes: float

    @property
    def size_mb(self) -> float:
        return self.size_bytes / (1024.0**2)


def activation_bytes(model: Sequential, input_shape: Tuple[int, ...]) -> float:
    """Peak activation memory: the largest intermediate tensor produced, at 4 bytes a value."""
    import numpy as np

    peak = float(np.prod(input_shape))
    shape = tuple(input_shape)
    for layer in model.layers:
        shape = layer.output_shape(shape)
        peak = max(peak, float(np.prod(shape)))
    return peak * 4.0


def model_cost(model: Sequential, input_shape: Tuple[int, ...], bytes_per_param: float = 4.0) -> ModelCost:
    """Compute the full static cost profile of ``model``."""
    return ModelCost(
        params=model.param_count(),
        flops=model.flops(input_shape),
        size_bytes=model.size_bytes(bytes_per_param),
        activation_bytes=activation_bytes(model, input_shape),
    )
