"""Video Analytics in Public Safety (Section V.A).

Two algorithms are exposed, matching the URLs in Fig. 4 and Fig. 6:

* ``safety/detection`` — object detection on a camera frame: a
  lightweight intensity-blob detector returns scored bounding boxes that
  are evaluated with mAP against the camera simulator's ground truth.
* ``safety/firearm_detection`` — the "criminal scene auto detection"
  flavour: the same detector plus a size/brightness heuristic flags
  suspicious objects, and frames can be privacy-masked before sharing
  (the High-Definition-Map masking use case the paper describes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps._batching import amortized_batch_latency, stack_if_homogeneous
from repro.core.openei import OpenEI
from repro.data.sensors import CameraSensor
from repro.exceptions import ConfigurationError
from repro.nn.metrics import mean_average_precision

Box = Tuple[float, float, float, float]


@dataclass
class Detection:
    """One detected object."""

    box: Box
    score: float


class BlobDetector:
    """A lightweight bright-blob detector for grayscale surveillance frames.

    Thresholding plus 4-connected flood fill — small enough to run on the
    weakest edge, and accurate on the synthetic camera feed, so the
    scenario exercises the full detect → score → mAP pipeline without a
    heavyweight CNN.
    """

    def __init__(self, threshold: float = 0.45, min_area: int = 6) -> None:
        if min_area <= 0:
            raise ConfigurationError("min_area must be positive")
        self.threshold = float(threshold)
        self.min_area = int(min_area)

    def detect(self, frame: np.ndarray) -> List[Detection]:
        """Return scored boxes for bright connected regions in one frame."""
        if frame.ndim == 3:
            frame = frame[:, :, 0]
        mask = frame > self.threshold
        visited = np.zeros_like(mask, dtype=bool)
        detections: List[Detection] = []
        height, width = mask.shape
        for y in range(height):
            for x in range(width):
                if not mask[y, x] or visited[y, x]:
                    continue
                stack = [(y, x)]
                visited[y, x] = True
                pixels = []
                while stack:
                    cy, cx = stack.pop()
                    pixels.append((cy, cx))
                    for ny, nx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
                        if 0 <= ny < height and 0 <= nx < width and mask[ny, nx] and not visited[ny, nx]:
                            visited[ny, nx] = True
                            stack.append((ny, nx))
                if len(pixels) < self.min_area:
                    continue
                ys = [p[0] for p in pixels]
                xs = [p[1] for p in pixels]
                score = float(np.clip(frame[ys, xs].mean(), 0.0, 1.0))
                detections.append(
                    Detection(box=(float(min(xs)), float(min(ys)), float(max(xs) + 1), float(max(ys) + 1)),
                              score=score)
                )
        return detections

    def detect_batch(self, frames: np.ndarray) -> List[List[Detection]]:
        """Detect in every frame of a batch."""
        return [self.detect(frame) for frame in frames]

    def evaluate(self, frames: np.ndarray, ground_truth: Sequence[Sequence[Box]],
                 iou_threshold: float = 0.5) -> float:
        """Mean average precision over a batch of frames."""
        detections = [
            [(d.box, d.score) for d in self.detect(frame)] for frame in frames
        ]
        return mean_average_precision(detections, ground_truth, iou_threshold=iou_threshold)


def mask_private_regions(frame: np.ndarray, boxes: Sequence[Box], fill: float = 0.0) -> np.ndarray:
    """Privacy masking: blank out the given regions before data leaves the edge."""
    masked = frame.copy()
    for x1, y1, x2, y2 in boxes:
        masked[int(y1) : int(y2), int(x1) : int(x2)] = fill
    return masked


def flag_suspicious(detections: Sequence[Detection], min_area: float = 30.0,
                    min_score: float = 0.6) -> List[Detection]:
    """Heuristic firearm/threat flagging: large, bright objects are escalated."""
    flagged = []
    for det in detections:
        x1, y1, x2, y2 = det.box
        area = (x2 - x1) * (y2 - y1)
        if area >= min_area and det.score >= min_score:
            flagged.append(det)
    return flagged


def register_public_safety(openei: OpenEI, camera_id: str = "camera1", seed: int = 0,
                           detector: Optional[BlobDetector] = None) -> BlobDetector:
    """Attach a camera sensor and register the safety algorithms on ``openei``."""
    detector = detector or BlobDetector()
    camera = CameraSensor(sensor_id=camera_id, seed=seed)
    openei.data_store.register_sensor(camera)

    def _detection_result(reading, detections, latency_s: float) -> Dict[str, object]:
        return {
            "sensor_id": reading.sensor_id,
            "timestamp": reading.timestamp,
            "detections": [{"box": list(d.box), "score": d.score} for d in detections],
            "ground_truth_boxes": reading.annotations.get("boxes", []),
            # per-request latency observation for the adaptive control
            # plane (wall clock scaled by the emulated device slowdown)
            "observed_alem": {"latency_s": latency_s},
        }

    def _firearm_result(reading, detections, latency_s: float) -> Dict[str, object]:
        flagged = flag_suspicious(detections)
        return {
            "sensor_id": reading.sensor_id,
            "timestamp": reading.timestamp,
            "alerts": [{"box": list(d.box), "score": d.score} for d in flagged],
            "alert": bool(flagged),
            "observed_alem": {"latency_s": latency_s},
        }

    def _batched(build_result):
        """A handler that stacks the frames of its calls into one detector call."""

        def batch_handler(ei: OpenEI, calls: List[Dict[str, object]]) -> List[Dict[str, object]]:
            start = time.perf_counter()
            readings = [
                ei.data_store.realtime(str(args.get("video", camera_id))) for args in calls
            ]
            frames = stack_if_homogeneous([reading.payload for reading in readings])
            if frames is not None:
                per_frame = detector.detect_batch(frames)
            else:
                per_frame = [detector.detect(reading.payload) for reading in readings]
            latency = amortized_batch_latency(start, ei, len(calls))
            return [
                build_result(reading, detections, latency)
                for reading, detections in zip(readings, per_frame)
            ]

        return batch_handler

    openei.register_algorithm("safety", "detection", batch_handler=_batched(_detection_result))
    openei.register_algorithm(
        "safety", "firearm_detection", batch_handler=_batched(_firearm_result)
    )
    return detector
