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

from repro.apps._batching import amortized_batch_latency, capture_readings
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

    Thresholding plus 4-connected component labelling over row *runs*:
    a whole ``(n, h, w)`` stack is thresholded once, each row's bright
    runs fall out of one ``np.diff`` / ``np.flatnonzero``, and a union-find
    joins overlapping runs of adjacent rows — work in the number of
    bright runs, not pixels.  Small enough to run on the weakest edge,
    and accurate on the synthetic camera feed, so the scenario exercises
    the full detect → score → mAP pipeline without a heavyweight CNN.
    """

    def __init__(self, threshold: float = 0.45, min_area: int = 6) -> None:
        if min_area <= 0:
            raise ConfigurationError("min_area must be positive")
        self.threshold = float(threshold)
        self.min_area = int(min_area)

    def detect(self, frame: np.ndarray) -> List[Detection]:
        """Return scored boxes for bright connected regions in one frame."""
        return self.detect_batch(frame[None])[0]

    def detect_batch(self, frames: np.ndarray) -> List[List[Detection]]:
        """Detect in every frame of an ``(n, h, w)`` or ``(n, h, w, 1)`` stack, in one pass.

        Each frame's detections come in raster order of their
        first-scanned pixel.
        """
        if frames.ndim == 4:
            frames = frames[:, :, :, 0]
        count, height, width = frames.shape
        per_frame: List[List[Detection]] = [[] for _ in range(count)]
        # every pixel row gets one dark column appended, so a bright run
        # never spans two rows of the flattened stack and always closes
        stride = width + 1
        pixels = np.zeros((count * height, stride))
        pixels[:, :width] = frames.reshape(count * height, width)
        bright = pixels > self.threshold
        bright[:, width] = False
        # rising and falling edges alternate: run i is pixels.flat[start[i]:stop[i]]
        edges = np.flatnonzero(np.diff(bright.ravel(), prepend=False))
        start, stop = edges[::2], edges[1::2]
        if not len(start):
            return per_frame
        row = start // stride
        # runs are sorted and disjoint, so those of the next row that
        # 4-connect to run i (column ranges overlap) are one slice lo:hi
        lo = np.searchsorted(stop, start + stride, side="right")
        hi = np.searchsorted(start, stop + stride, side="left")
        hi[row % height == height - 1] = 0       # a frame's last row has no row below
        root = list(range(len(start)))
        for upper, (first, last) in enumerate(zip(lo.tolist(), hi.tolist())):
            for lower in range(first, last):
                a, b = upper, lower
                while root[a] != a:
                    root[a] = a = root[root[a]]
                while root[b] != b:
                    root[b] = b = root[root[b]]
                # the smaller index wins: a component's root is its first-scanned run
                if a < b:
                    root[b] = a
                else:
                    root[a] = b
        for index, parent in enumerate(root):
            root[index] = root[parent]           # parents precede children: one pass flattens
        roots, label = np.unique(root, return_inverse=True)
        area = np.bincount(label, weights=stop - start)
        total = np.bincount(label, weights=np.add.reduceat(pixels.ravel(), edges)[::2])
        score = np.clip(total / area, 0.0, 1.0)
        x1 = np.full(len(roots), width)
        x2 = np.zeros(len(roots), dtype=x1.dtype)
        y2 = np.zeros(len(roots), dtype=x1.dtype)
        np.minimum.at(x1, label, start - row * stride)
        np.maximum.at(x2, label, stop - row * stride)
        np.maximum.at(y2, label, row + 1)
        frame = row[roots] // height
        boxes = np.stack([x1, row[roots] - frame * height, x2, y2 - frame * height], axis=1)
        keep = area >= self.min_area
        for index, box, value in zip(
            frame[keep].tolist(), boxes[keep].astype(np.float64).tolist(), score[keep].tolist()
        ):
            per_frame[index].append(Detection(box=tuple(box), score=value))
        return per_frame

    def evaluate(self, frames: np.ndarray, ground_truth: Sequence[Sequence[Box]],
                 iou_threshold: float = 0.5) -> float:
        """Mean average precision over a batch of frames."""
        detections = [
            [(d.box, d.score) for d in found] for found in self.detect_batch(frames)
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
            "ground_truth_boxes": [list(box) for box in reading.annotations.get("boxes", [])],
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
        """A handler that answers the frames of its calls with one detector call."""

        def batch_handler(ei: OpenEI, calls: List[Dict[str, object]]) -> List[Dict[str, object]]:
            start = time.perf_counter()
            readings, frames = capture_readings(ei, calls, "video", camera_id)
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
