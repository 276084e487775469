"""Smart and Connected Health (Section V.D).

The exposed algorithm is ``health/activity_recognition``: classify
wearable-IMU windows into activities with a FastGRNN sequence model — the
"light-weight intelligent algorithms running on smart wearable devices"
direction the paper describes — keeping the health data on the edge.
"""

from __future__ import annotations

import copy
import functools
import time
from typing import Dict, List, Optional

import numpy as np

from repro.apps._batching import amortized_batch_latency, capture_readings
from repro.core.openei import OpenEI
from repro.data.sensors import WearableIMUSensor
from repro.data.workloads import activity_recognition_workload
from repro.eialgorithms.fastgrnn import FastGRNNClassifier
from repro.exceptions import ConfigurationError


class ActivityRecognizer:
    """FastGRNN-based activity classifier for wearable IMU windows."""

    def __init__(
        self,
        steps: int = 20,
        channels: int = 6,
        hidden_size: int = 12,
        num_classes: int = len(WearableIMUSensor.ACTIVITIES),
        seed: int = 0,
    ) -> None:
        if steps <= 0 or channels <= 0:
            raise ConfigurationError("steps and channels must be positive")
        self.steps = int(steps)
        self.channels = int(channels)
        self.num_classes = int(num_classes)
        self.classifier = FastGRNNClassifier(
            input_size=channels, hidden_size=hidden_size, num_classes=num_classes, seed=seed
        )
        self.activity_names = WearableIMUSensor.ACTIVITIES
        self._trained = False

    def train(self, samples: int = 240, epochs: int = 8, seed: int = 0) -> float:
        """Train on a synthetic wearable workload; returns held-out accuracy."""
        workload = activity_recognition_workload(
            samples=samples, steps=self.steps, channels=self.channels, seed=seed
        )
        split = int(len(workload.windows) * 0.75)
        self.classifier.fit(
            workload.windows[:split], workload.labels[:split], epochs=epochs
        )
        self._trained = True
        return self.classifier.score(workload.windows[split:], workload.labels[split:])

    def recognize(self, window: np.ndarray) -> Dict[str, object]:
        """Classify one IMU window; returns the activity name and probabilities."""
        if window.ndim == 2:
            window = window[None, :, :]
        return self.recognize_batch(window)[0]

    def recognize_batch(self, windows: np.ndarray) -> List[Dict[str, object]]:
        """Classify a stack of IMU windows with one fused engine forward.

        ``windows`` is ``(n, steps, channels)``; the whole stack runs as a
        single :meth:`~repro.nn.model.Sequential.predict_batch` call, so a
        list of calls pays for one forward pass, not ``n``.
        """
        if not self._trained:
            raise ConfigurationError("train must be called before recognize")
        probs = self.classifier.model.predict_batch(windows)
        names = self.activity_names
        return [
            {
                "activity": activity,
                "activity_name": names[activity],
                "probabilities": dict(zip(names, row)),
            }
            for activity, row in zip(probs.argmax(axis=1).tolist(), probs.tolist())
        ]

    def score(self, windows: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy on labelled windows."""
        return self.classifier.score(windows, labels)


@functools.lru_cache(maxsize=None)
def _trained(seed: int, samples: int, epochs: int) -> ActivityRecognizer:
    """The stock recognizer, trained once per process; never served, only copied."""
    # no lock: a concurrent miss trains twice and both get identical weights
    recognizer = ActivityRecognizer(seed=seed)
    recognizer.train(samples=samples, epochs=epochs, seed=seed)
    return recognizer


def register_connected_health(
    openei: OpenEI, sensor_id: str = "wearable1", seed: int = 0,
    recognizer: Optional[ActivityRecognizer] = None,
    train_samples: int = 240, train_epochs: int = 10,
) -> ActivityRecognizer:
    """Attach a wearable sensor and register the health algorithm on ``openei``.

    With no ``recognizer`` the stock model is trained once per process per
    ``(seed, train_samples, train_epochs)`` — training is deterministic — and
    each call gets a private deep copy of it: no two registrations share a
    parameter array, and each copy compiles its own inference plan.  A
    supplied ``recognizer`` is used as given, trained in place first if it
    has not been trained.
    """
    if recognizer is None:
        recognizer = copy.deepcopy(_trained(seed, train_samples, train_epochs))
    elif not recognizer._trained:  # noqa: SLF001 - module-internal convenience
        recognizer.train(samples=train_samples, epochs=train_epochs, seed=seed)
    sensor = WearableIMUSensor(sensor_id=sensor_id, seed=seed)
    openei.data_store.register_sensor(sensor)

    def _finalize(result: Dict[str, object], reading, latency_s: float) -> Dict[str, object]:
        truth = reading.annotations["activity_name"]
        result.update(
            {
                "sensor_id": reading.sensor_id,
                "timestamp": reading.timestamp,
                "ground_truth": truth,
                # per-request ALEM observation for the adaptive control
                # plane: wall clock scaled by the runtime's emulated
                # slowdown; accuracy is per-window correctness
                "observed_alem": {
                    "latency_s": latency_s,
                    "accuracy": 1.0 if result["activity_name"] == truth else 0.0,
                },
            }
        )
        return result

    def activity_batch_handler(
        ei: OpenEI, calls: List[Dict[str, object]]
    ) -> List[Dict[str, object]]:
        """Answer the calls' IMU windows with one fused engine forward."""
        start = time.perf_counter()
        readings, windows = capture_readings(ei, calls, "sensor", sensor_id)
        if windows is not None:
            results = recognizer.recognize_batch(windows)
        else:
            results = [recognizer.recognize(reading.payload) for reading in readings]
        latency = amortized_batch_latency(start, ei, len(calls))
        return [
            _finalize(result, reading, latency)
            for result, reading in zip(results, readings)
        ]

    openei.register_algorithm(
        "health", "activity_recognition", batch_handler=activity_batch_handler
    )
    return recognizer
