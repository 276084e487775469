"""Cloud simulator.

The cloud of Fig. 3: it trains global models on pooled data, serves them
for download to edges, accepts retrained edge models back and combines
them into a new global model (simple weight averaging, the "combined
into a general and global model" step the paper describes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import CollaborationError
from repro.hardware.catalog import get_device
from repro.hardware.device import DeviceSpec
from repro.hardware.profiler import ALEMProfiler
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam


@dataclass
class TrainedModelRecord:
    """A model the cloud has trained and can serve to edges."""

    name: str
    model: Sequential
    input_shape: Tuple[int, ...]
    accuracy: float
    size_bytes: float
    metadata: Dict[str, object] = field(default_factory=dict)


class CloudSimulator:
    """In-process stand-in for the public cloud's training and serving role."""

    def __init__(self, device: Optional[DeviceSpec] = None) -> None:
        self.device = device or get_device("cloud-datacenter")
        self.profiler = ALEMProfiler(package_name="cloud-framework", package_efficiency=0.6)
        self._registry: Dict[str, TrainedModelRecord] = {}
        self._uploaded: Dict[str, List[Sequential]] = {}

    # -- training -----------------------------------------------------------
    def train_model(
        self,
        builder: Callable[[], Sequential],
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_test: np.ndarray,
        y_test: np.ndarray,
        input_shape: Tuple[int, ...],
        epochs: int = 10,
        learning_rate: float = 0.005,
        name: Optional[str] = None,
    ) -> TrainedModelRecord:
        """Train a model on pooled cloud data and register it for download."""
        model = builder()
        model.fit(x_train, y_train, epochs=epochs, batch_size=32, optimizer=Adam(learning_rate))
        accuracy = model.evaluate(x_test, y_test)[1]
        record = TrainedModelRecord(
            name=name or model.name,
            model=model,
            input_shape=input_shape,
            accuracy=accuracy,
            size_bytes=model.size_bytes(),
        )
        self._registry[record.name] = record
        return record

    def register(self, record: TrainedModelRecord) -> None:
        """Register an externally trained model for download."""
        self._registry[record.name] = record

    # -- serving ------------------------------------------------------------
    def download(self, name: str) -> TrainedModelRecord:
        """Fetch a trained model record (the edge copies the weights locally)."""
        try:
            record = self._registry[name]
        except KeyError as exc:
            raise CollaborationError(f"cloud has no model named {name!r}") from exc
        clone = record.model.clone_architecture()
        return TrainedModelRecord(
            name=record.name,
            model=clone,
            input_shape=record.input_shape,
            accuracy=record.accuracy,
            size_bytes=record.size_bytes,
            metadata=dict(record.metadata),
        )

    def remote_inference(self, name: str, inputs: np.ndarray) -> np.ndarray:
        """Dataflow 1: the cloud runs inference on uploaded edge data."""
        try:
            record = self._registry[name]
        except KeyError as exc:
            raise CollaborationError(f"cloud has no model named {name!r}") from exc
        return record.model.predict(inputs)

    # -- aggregation -----------------------------------------------------------
    def upload_retrained(self, name: str, model: Sequential) -> None:
        """Accept a retrained model from an edge for later aggregation."""
        if name not in self._registry:
            raise CollaborationError(f"cannot upload against unknown model {name!r}")
        self._uploaded.setdefault(name, []).append(model.clone_architecture())

    def aggregate(self, name: str) -> TrainedModelRecord:
        """Average uploaded edge models with the current global one.

        This is the "retrained models will be uploaded to the cloud and
        combined into a general and global model" step of Section II.C —
        federated-averaging style aggregation over full weight vectors.
        """
        uploads = self._uploaded.get(name, [])
        if not uploads:
            raise CollaborationError(f"no uploaded models to aggregate for {name!r}")
        record = self._registry[name]
        participants = [*uploads, record.model]
        reference = record.model.clone_architecture()
        weight_dicts = [participant.get_weights() for participant in participants]
        averaged = {
            key: np.mean([weights[key] for weights in weight_dicts], axis=0)
            for key in weight_dicts[0]
        }
        reference.set_weights(averaged)
        new_record = TrainedModelRecord(
            name=record.name,
            model=reference,
            input_shape=record.input_shape,
            accuracy=record.accuracy,
            size_bytes=record.size_bytes,
            metadata={**record.metadata, "aggregated_from": len(participants)},
        )
        self._registry[name] = new_record
        self._uploaded[name] = []
        return new_record
