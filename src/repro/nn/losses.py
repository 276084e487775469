"""Loss functions.

Each loss exposes ``forward(predictions, targets) -> float`` and
``backward() -> grad`` where the gradient is with respect to the
predictions passed to the most recent ``forward`` call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ShapeError


class Loss:
    """Base class for losses."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)


class CrossEntropyLoss(Loss):
    """Cross entropy for softmax outputs and one-hot or index targets.

    The returned gradient is the combined softmax + cross-entropy
    gradient ``(p - y) / batch``, matching the pass-through convention of
    :class:`~repro.nn.layers.activations.Softmax`.
    """

    def __init__(self, epsilon: float = 1e-12) -> None:
        self.epsilon = float(epsilon)
        self._probs: Optional[np.ndarray] = None
        self._onehot: Optional[np.ndarray] = None

    @staticmethod
    def _to_onehot(targets: np.ndarray, num_classes: int) -> np.ndarray:
        if targets.ndim == 1:
            onehot = np.zeros((targets.shape[0], num_classes))
            onehot[np.arange(targets.shape[0]), targets.astype(int)] = 1.0
            return onehot
        return targets.astype(np.float64)

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        if predictions.ndim != 2:
            raise ShapeError("CrossEntropyLoss expects (batch, classes) predictions")
        onehot = self._to_onehot(targets, predictions.shape[1])
        if onehot.shape != predictions.shape:
            raise ShapeError(
                f"CrossEntropyLoss shapes differ: {predictions.shape} vs {onehot.shape}"
            )
        probs = np.clip(predictions, self.epsilon, 1.0)
        self._probs = predictions
        self._onehot = onehot
        return float(-np.mean(np.sum(onehot * np.log(probs), axis=1)))

    def backward(self) -> np.ndarray:
        if self._probs is None or self._onehot is None:
            raise RuntimeError("backward called before forward")
        return (self._probs - self._onehot) / self._probs.shape[0]
