"""Sequential model container: the unit deployed, compressed and selected by OpenEI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers.base import Layer
from repro.nn.losses import CrossEntropyLoss, Loss
from repro.nn.optimizers import Optimizer, SGD


@dataclass
class TrainingHistory:
    """Per-epoch training metrics collected by :meth:`Sequential.fit`."""

    loss: List[float] = field(default_factory=list)
    accuracy: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.loss)


class Sequential:
    """A linear stack of layers with fit/evaluate/predict methods.

    This is the model object that flows through the whole reproduction:
    it is trained on the (simulated) cloud, compressed by
    :mod:`repro.compression`, profiled by :mod:`repro.hardware`, stored in
    the model zoo, selected by the model selector and finally executed by
    the package manager on an edge device.
    """

    def __init__(self, layers: Optional[Sequence[Layer]] = None, name: str = "model") -> None:
        self.layers: List[Layer] = list(layers) if layers else []
        self.name = name
        self.metadata: Dict[str, object] = {}
        self._plan = None

    # -- construction ---------------------------------------------------
    def add(self, layer: Layer) -> "Sequential":
        """Append a layer and return self for chaining."""
        self.layers.append(layer)
        self.invalidate_plan()
        return self

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    # -- inference ------------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        out = inputs
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Run inference through the compiled engine (no training-mode side effects).

        The first call compiles the model into an
        :class:`~repro.nn.engine.InferencePlan` (fused steps + reusable
        workspace buffers); subsequent calls reuse it.  The plan is
        transparently recompiled whenever the model's structure changes —
        layers added or swapped, parameter arrays replaced (e.g. by a
        compression pass calling ``set_param``).  Output matches the
        naive layer-by-layer :meth:`forward` to floating-point rounding.
        """
        return self.compile_plan().execute(inputs)

    def predict_batch(self, inputs: np.ndarray) -> np.ndarray:
        """One fused forward pass over a whole batch of inputs.

        Semantically identical to :meth:`predict`; the separate name is
        the contract the scenario apps' list handlers rely on — a list
        of calls' inputs in one array, one engine call.
        """
        return self.compile_plan().execute(inputs)

    def compile_plan(self, force: bool = False):
        """The cached :class:`~repro.nn.engine.InferencePlan` for this model.

        Compiles on first use and whenever the cached plan no longer
        matches the model's structural fingerprint; pass ``force=True``
        to discard the cached plan (and its workspace) unconditionally.
        """
        from repro.nn.engine import InferencePlan

        plan = self._plan
        if force or plan is None or not plan.matches(self):
            plan = self._plan = InferencePlan(self)
        return plan

    def invalidate_plan(self) -> None:
        """Drop the cached inference plan (recompiled on next predict)."""
        self._plan = None

    def predict_classes(self, inputs: np.ndarray) -> np.ndarray:
        """Return argmax class indices for classifier outputs."""
        return self.predict(inputs).argmax(axis=-1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # -- training -------------------------------------------------------
    def fit(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        epochs: int = 1,
        batch_size: int = 32,
        loss: Optional[Loss] = None,
        optimizer: Optional[Optimizer] = None,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> TrainingHistory:
        """Train the model with mini-batch gradient descent.

        Parameters mirror the familiar Keras-style API so examples read
        naturally; only NumPy arrays are accepted.
        """
        if epochs <= 0 or batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if inputs.shape[0] != targets.shape[0]:
            raise ConfigurationError("inputs and targets must share the first dimension")
        loss = loss or CrossEntropyLoss()
        optimizer = optimizer or SGD(learning_rate=0.05)
        rng = rng or np.random.default_rng(0)
        history = TrainingHistory()
        count = inputs.shape[0]
        for _ in range(epochs):
            order = rng.permutation(count)
            epoch_loss = 0.0
            correct = 0
            for start in range(0, count, batch_size):
                idx = order[start : start + batch_size]
                batch_x, batch_y = inputs[idx], targets[idx]
                preds = self.forward(batch_x, training=True)
                batch_loss = loss.forward(preds, batch_y)
                self.backward(loss.backward())
                optimizer.step(self.layers)
                epoch_loss += batch_loss * len(idx)
                if preds.ndim == 2 and preds.shape[1] > 1:
                    labels = batch_y if batch_y.ndim == 1 else batch_y.argmax(axis=1)
                    correct += int((preds.argmax(axis=1) == labels).sum())
            history.loss.append(epoch_loss / count)
            history.accuracy.append(correct / count)
            if validation_data is not None:
                val_loss, val_acc = self.evaluate(*validation_data, loss=loss)
                history.val_loss.append(val_loss)
                history.val_accuracy.append(val_acc)
        return history

    def evaluate(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        loss: Optional[Loss] = None,
        batch_size: int = 256,
    ) -> Tuple[float, float]:
        """Return ``(mean_loss, accuracy)`` over a dataset."""
        loss = loss or CrossEntropyLoss()
        total_loss = 0.0
        correct = 0
        count = inputs.shape[0]
        for start in range(0, count, batch_size):
            batch_x = inputs[start : start + batch_size]
            batch_y = targets[start : start + batch_size]
            preds = self.forward(batch_x, training=False)
            total_loss += loss.forward(preds, batch_y) * len(batch_x)
            if preds.ndim == 2 and preds.shape[1] > 1:
                labels = batch_y if batch_y.ndim == 1 else batch_y.argmax(axis=1)
                correct += int((preds.argmax(axis=1) == labels).sum())
        return total_loss / count, correct / count

    # -- introspection ---------------------------------------------------
    def param_count(self) -> int:
        """Total scalar parameter count across all layers."""
        return sum(layer.param_count() for layer in self.layers)

    def size_bytes(self, bytes_per_param: float = 4.0) -> float:
        """Serialized model size assuming ``bytes_per_param`` bytes each.

        Compression passes record an effective ``bytes_per_param`` in
        :attr:`metadata` (key ``"bytes_per_param"``) which takes priority.
        """
        effective = float(self.metadata.get("bytes_per_param", bytes_per_param))
        return self.param_count() * effective

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        """Multiply-accumulate count per sample, accumulated layer by layer."""
        total = 0
        shape = tuple(input_shape)
        for layer in self.layers:
            total += layer.flops(shape)
            shape = layer.output_shape(shape)
        return total

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def get_weights(self) -> Dict[str, np.ndarray]:
        """Flattened parameter dictionary keyed ``"<idx>:<layer>:<param>"``."""
        weights = {}
        for idx, layer in enumerate(self.layers):
            for key, value in layer.params.items():
                weights[f"{idx}:{layer.name}:{key}"] = value.copy()
        return weights

    def set_weights(self, weights: Dict[str, np.ndarray]) -> None:
        """Load parameters produced by :meth:`get_weights`."""
        for flat_key, value in weights.items():
            idx_str, _, key = flat_key.split(":", 2)
            layer = self.layers[int(idx_str)]
            layer.params[key][...] = value

    def clone_architecture(self) -> "Sequential":
        """Deep-copy the model (architecture and weights) via pickle-free copy."""
        import copy

        return copy.deepcopy(self)

    def __getstate__(self) -> Dict[str, object]:
        # the compiled plan holds workspace buffers and a lock; it is a
        # cache keyed to *these* layer objects, so copies must recompile
        state = self.__dict__.copy()
        state["_plan"] = None
        return state

    def summary(self) -> str:
        """Human-readable architecture summary."""
        lines = [f"Sequential {self.name!r}: {len(self.layers)} layers, "
                 f"{self.param_count()} params"]
        for idx, layer in enumerate(self.layers):
            lines.append(f"  [{idx:2d}] {layer.__class__.__name__:<20s} "
                         f"params={layer.param_count()}")
        return "\n".join(lines)
