"""Connected and Autonomous Vehicles (Section V.B).

The exposed algorithm is ``vehicles/tracking``: detect the lead object in
each forward-camera frame and track it with a constant-velocity
alpha-beta filter (the classic lightweight tracker), producing smoothed
positions and a one-step-ahead prediction.  Tracking error against the
simulator's ground-truth trajectory is the scenario's accuracy metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps._batching import amortized_batch_latency, capture_readings
from repro.core.openei import OpenEI
from repro.data.sensors import VehicleCameraSensor
from repro.exceptions import APIError, ConfigurationError

#: Most frames one ``vehicles/tracking`` call may capture.  ``frames`` comes
#: straight from the request URL; a larger value is refused, not clamped.
MAX_FRAMES_PER_CALL = 256


def _frame_count(args: Dict[str, object]) -> int:
    """The call's validated ``frames`` argument (default 1, values below 1 mean 1)."""
    frames = args.get("frames", 1)
    if isinstance(frames, bool) or not isinstance(frames, int) or frames > MAX_FRAMES_PER_CALL:
        raise APIError(
            f"argument 'frames' must be an integer of at most {MAX_FRAMES_PER_CALL}, "
            f"got {frames!r}"
        )
    return max(1, frames)


@dataclass
class TrackState:
    """Current estimate of the tracked object."""

    position: np.ndarray   # (2,)
    velocity: np.ndarray   # (2,)

    def predict(self, steps: int = 1) -> np.ndarray:
        """Constant-velocity prediction ``steps`` frames ahead."""
        return self.position + self.velocity * steps


class ObjectTracker:
    """Alpha-beta filter over per-frame bright-centroid measurements."""

    def __init__(self, alpha: float = 0.6, beta: float = 0.2) -> None:
        if not 0.0 < alpha <= 1.0 or not 0.0 <= beta <= 1.0:
            raise ConfigurationError("alpha must lie in (0, 1] and beta in [0, 1]")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.state: Optional[TrackState] = None

    @staticmethod
    def measure(frame: np.ndarray) -> np.ndarray:
        """Intensity-weighted centroid of the brightest region in a frame."""
        if frame.ndim == 3:
            frame = frame[:, :, 0]
        threshold = frame.mean() + 2 * frame.std()
        mask = frame > threshold
        if not mask.any():
            mask = frame >= np.quantile(frame, 0.999)
        ys, xs = np.nonzero(mask)
        weights = frame[ys, xs]
        total = weights.sum()
        return np.array([float((xs * weights).sum() / total), float((ys * weights).sum() / total)])

    @staticmethod
    def measure_batch(frames: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`measure` over a stack of frames.

        Per-frame thresholds, masks and weighted centroids are computed
        with whole-stack array operations — one pass for a whole list
        of calls instead of one Python traversal per frame.  Returns
        the ``(n, 2)`` measured positions.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim == 4:
            frames = frames[:, :, :, 0]
        thresholds = frames.mean(axis=(1, 2)) + 2 * frames.std(axis=(1, 2))
        masks = frames > thresholds[:, None, None]
        empty = ~masks.any(axis=(1, 2))
        if empty.any():
            fallback = np.quantile(frames[empty], 0.999, axis=(1, 2))
            masks[empty] = frames[empty] >= fallback[:, None, None]
        weighted = frames * masks
        totals = weighted.sum(axis=(1, 2))
        xs = np.arange(frames.shape[2], dtype=np.float64)
        ys = np.arange(frames.shape[1], dtype=np.float64)
        cx = weighted.sum(axis=1) @ xs / totals
        cy = weighted.sum(axis=2) @ ys / totals
        return np.stack([cx, cy], axis=1)

    def fold(self, measurements: np.ndarray) -> List[List[float]]:
        """Fold ``(n, 2)`` centroid measurements into the track, in order.

        Returns the ``n`` smoothed positions.  The filter runs on Python
        floats: the same IEEE arithmetic as 2-element arrays, without a
        NumPy dispatch per operation.
        """
        positions: List[List[float]] = []
        px = py = vx = vy = None
        if self.state is not None:
            (px, py), (vx, vy) = self.state.position.tolist(), self.state.velocity.tolist()
        for mx, my in np.asarray(measurements, dtype=np.float64).tolist():
            if px is None:
                px, py, vx, vy = mx, my, 0.0, 0.0
            else:
                px, py = px + vx, py + vy                    # constant-velocity prediction
                rx, ry = mx - px, my - py
                px, py = px + self.alpha * rx, py + self.alpha * ry
                vx, vy = vx + self.beta * rx, vy + self.beta * ry
            positions.append([px, py])
        if positions:
            self.state = TrackState(position=np.array([px, py]), velocity=np.array([vx, vy]))
        return positions

    def update_with_measurement(self, measurement: np.ndarray) -> TrackState:
        """Fold one precomputed centroid measurement into the track."""
        self.fold([measurement])
        return self.state

    def update(self, frame: np.ndarray) -> TrackState:
        """Consume one frame and return the updated track state."""
        return self.update_with_measurement(self.measure(frame))

    def reset(self) -> None:
        """Forget the current track."""
        self.state = None


def register_connected_vehicles(
    openei: OpenEI, camera_id: str = "vehiclecam1", seed: int = 0,
    tracker: Optional[ObjectTracker] = None,
) -> ObjectTracker:
    """Attach a vehicle camera and register the tracking algorithm on ``openei``."""
    tracker = tracker or ObjectTracker()
    camera = VehicleCameraSensor(sensor_id=camera_id, seed=seed)
    openei.data_store.register_sensor(camera)

    def tracking_batch_handler(
        ei: OpenEI, calls: List[Dict[str, object]]
    ) -> List[Dict[str, object]]:
        """Measure every frame of every call in one vectorized pass.

        The alpha-beta filter itself is sequential (each update feeds the
        next), so per-request results are folded in arrival order — but
        the per-frame centroid extraction, the dominant cost, runs once
        over the stacked frames of *all* requests.
        """
        start = time.perf_counter()
        # every call's ``frames`` is checked, then every camera id resolved,
        # before any reading is consumed: a raise after that would fail the
        # list with its readings already gone
        counts = [_frame_count(args) for args in calls]
        readings, stacked = capture_readings(
            ei, [args for args, count in zip(calls, counts) for _ in range(count)],
            "video", camera_id,
        )
        bounds = [0, *accumulate(counts)]
        spans = list(zip(bounds, bounds[1:]))     # call i owns readings[lo:hi]
        if stacked is not None:
            measurements = tracker.measure_batch(stacked)
        else:
            # mixed camera sizes: frames are homogeneous within a call,
            # so vectorize per call instead of across the whole batch
            measurements = np.concatenate(
                [tracker.measure_batch(np.stack([r.payload for r in readings[lo:hi]]))
                 for lo, hi in spans]
            )
        results: List[Dict[str, object]] = [
            {
                "sensor_id": camera_id,
                # the (stateful) fold runs in call order; ``predicted_next``
                # reads the state it leaves behind
                "track": tracker.fold(measurements[lo:hi]),
                "ground_truth": [list(r.annotations["position"]) for r in readings[lo:hi]],
                "predicted_next": tracker.state.predict(1).tolist(),
            }
            for lo, hi in spans
        ]
        # per-request latency observation for the adaptive control plane
        # (wall clock scaled by the emulated device slowdown), attached
        # after folding so it covers the state updates too
        latency = amortized_batch_latency(start, ei, len(calls))
        for result in results:
            result["observed_alem"] = {"latency_s": latency}
        return results

    openei.register_algorithm("vehicles", "tracking", batch_handler=tracking_batch_handler)
    return tracker
