"""Distributed deep neural networks over cloud and edge (DDNN, Teerapittayanon et al.).

The paper cites DDNN as the canonical cloud-edge collaborative inference
architecture: a shallow *edge branch* classifies easy samples locally and
forwards only uncertain ones (as a compact intermediate feature vector)
to the full cloud model.  :class:`DDNNInference` reproduces this exit
policy and accounts for the latency and bandwidth saved, which the Fig. 2
collaboration benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import CollaborationError
from repro.hardware.device import DeviceSpec, NetworkLink
from repro.hardware.profiler import ALEMProfiler
from repro.nn.model import Sequential


@dataclass
class DDNNResult:
    """Outcome of a DDNN inference pass over a batch."""

    accuracy: float
    local_exit_fraction: float
    total_latency_s: float
    bytes_uploaded: float
    edge_only_accuracy: float
    cloud_only_latency_s: float


class DDNNInference:
    """Early-exit inference split between an edge model and a cloud model."""

    def __init__(
        self,
        edge_model: Sequential,
        cloud_model: Sequential,
        edge_device: DeviceSpec,
        cloud_device: DeviceSpec,
        link: NetworkLink,
        input_shape: Tuple[int, ...],
        confidence_threshold: float = 0.8,
        edge_profiler: Optional[ALEMProfiler] = None,
        cloud_profiler: Optional[ALEMProfiler] = None,
        feature_bytes: float = 512.0,
    ) -> None:
        if not 0.0 < confidence_threshold <= 1.0:
            raise CollaborationError("confidence_threshold must lie in (0, 1]")
        self.edge_model = edge_model
        self.cloud_model = cloud_model
        self.edge_device = edge_device
        self.cloud_device = cloud_device
        self.link = link
        self.input_shape = tuple(input_shape)
        self.confidence_threshold = float(confidence_threshold)
        self.edge_profiler = edge_profiler or ALEMProfiler()
        self.cloud_profiler = cloud_profiler or ALEMProfiler(
            package_name="cloud-framework", package_efficiency=0.6
        )
        self.feature_bytes = float(feature_bytes)

    def run(self, x: np.ndarray, y: np.ndarray) -> DDNNResult:
        """Classify a batch with the edge branch, escalating low-confidence samples."""
        if len(x) == 0:
            raise CollaborationError("cannot run DDNN inference on an empty batch")
        edge_profile = self.edge_profiler.profile(self.edge_model, self.input_shape, self.edge_device)
        cloud_profile = self.cloud_profiler.profile(self.cloud_model, self.input_shape, self.cloud_device)

        edge_probs = self.edge_model.predict(x)
        confident = edge_probs.max(axis=1) >= self.confidence_threshold
        predictions = edge_probs.argmax(axis=1)

        escalate = ~confident
        bytes_uploaded = float(escalate.sum()) * self.feature_bytes
        if escalate.any():
            cloud_probs = self.cloud_model.predict(x[escalate])
            predictions[escalate] = cloud_probs.argmax(axis=1)

        edge_latency = edge_profile.latency_s * len(x)
        escalation_latency = float(escalate.sum()) * (
            self.link.transfer_seconds(self.feature_bytes) + cloud_profile.latency_s
        )
        total_latency = edge_latency + escalation_latency

        # Reference points: pure edge and pure cloud execution of the same batch.
        edge_only_accuracy = float(np.mean(edge_probs.argmax(axis=1) == y))
        per_sample_upload = float(x[0].nbytes)
        cloud_only_latency = len(x) * (
            self.link.transfer_seconds(per_sample_upload) + cloud_profile.latency_s
        )
        accuracy = float(np.mean(predictions == y))
        return DDNNResult(
            accuracy=accuracy,
            local_exit_fraction=float(np.mean(confident)),
            total_latency_s=total_latency,
            bytes_uploaded=bytes_uploaded,
            edge_only_accuracy=edge_only_accuracy,
            cloud_only_latency_s=cloud_only_latency,
        )
