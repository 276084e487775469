"""Workload generators for the four application scenarios and the benchmarks.

Each generator bundles sensor simulation and labelling into arrays ready
for training/evaluation, so benchmarks can sweep workload sizes without
re-deriving the plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.data.sensors import (
    CameraSensor,
    PowerMeterSensor,
    VehicleCameraSensor,
    WearableIMUSensor,
)
from repro.exceptions import ConfigurationError


@dataclass
class DetectionWorkload:
    """Frames plus ground-truth boxes for the public-safety scenario."""

    frames: np.ndarray               # (n, h, w, 1)
    boxes: List[List[Tuple[float, float, float, float]]]

    @property
    def total_bytes(self) -> int:
        return int(self.frames.nbytes)


def object_detection_workload(frames: int = 50, frame_size: int = 32, seed: int = 0) -> DetectionWorkload:
    """Surveillance-camera frames with bounding-box ground truth."""
    if frames <= 0:
        raise ConfigurationError("frames must be positive")
    camera = CameraSensor(frame_size=frame_size, seed=seed)
    readings = list(camera.stream(frames))
    return DetectionWorkload(
        frames=np.stack([r.payload for r in readings]),
        boxes=[list(r.annotations["boxes"]) for r in readings],
    )


@dataclass
class ActivityWorkload:
    """IMU windows plus activity labels for the connected-health scenario."""

    windows: np.ndarray   # (n, steps, channels)
    labels: np.ndarray    # (n,)
    num_classes: int


def activity_recognition_workload(
    samples: int = 200, steps: int = 20, channels: int = 6, seed: int = 0
) -> ActivityWorkload:
    """Wearable-IMU activity windows."""
    if samples <= 0:
        raise ConfigurationError("samples must be positive")
    sensor = WearableIMUSensor(steps=steps, channels=channels, seed=seed)
    readings = list(sensor.stream(samples))
    return ActivityWorkload(
        windows=np.stack([r.payload for r in readings]),
        labels=np.array([r.annotations["activity"] for r in readings], dtype=np.int64),
        num_classes=len(WearableIMUSensor.ACTIVITIES),
    )


@dataclass
class PowerWorkload:
    """Aggregate power readings plus appliance state labels for the smart home."""

    power_w: np.ndarray           # (n,)
    appliance_states: np.ndarray  # (n, appliances) boolean
    appliance_names: Tuple[str, ...]


def appliance_power_workload(samples: int = 500, seed: int = 0) -> PowerWorkload:
    """Whole-home power trace with per-appliance on/off ground truth."""
    if samples <= 0:
        raise ConfigurationError("samples must be positive")
    meter = PowerMeterSensor(seed=seed)
    readings = list(meter.stream(samples))
    return PowerWorkload(
        power_w=np.array([float(r.payload[0]) for r in readings]),
        appliance_states=np.array([r.annotations["appliance_states"] for r in readings], dtype=bool),
        appliance_names=PowerMeterSensor.APPLIANCES,
    )


@dataclass
class TrajectoryWorkload:
    """Vehicle-camera frames plus the lead object's true positions."""

    frames: np.ndarray      # (n, h, w, 1)
    positions: np.ndarray   # (n, 2)


def trajectory_workload(frames: int = 100, frame_size: int = 32, seed: int = 0) -> TrajectoryWorkload:
    """Forward-camera frames with a smoothly moving lead object."""
    if frames <= 0:
        raise ConfigurationError("frames must be positive")
    camera = VehicleCameraSensor(frame_size=frame_size, seed=seed)
    readings = list(camera.stream(frames))
    return TrajectoryWorkload(
        frames=np.stack([r.payload for r in readings]),
        positions=np.array([r.annotations["position"] for r in readings]),
    )


@dataclass(frozen=True)
class StreamRequest:
    """One libei request of a streaming workload: where it goes and its args."""

    scenario: str
    algorithm: str
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def path(self) -> str:
        """The request's libei URL path (args travel as a query string)."""
        query = "&".join(f"{key}={value}" for key, value in self.args.items()
                         if not isinstance(value, (list, dict)))
        suffix = f"?{query}" if query else ""
        return f"/ei_algorithms/{self.scenario}/{self.algorithm}/{suffix}"


#: Default libei algorithm per scenario, matching :func:`repro.apps.register_all`.
SCENARIO_ALGORITHMS: Dict[str, str] = {
    "safety": "detection",
    "vehicles": "tracking",
    "home": "power_monitor",
    "health": "activity_recognition",
}


def scenario_request_stream(
    requests_per_scenario: int = 25,
    seed: int = 0,
    frame_size: int = 16,
    algorithms: Optional[Mapping[str, str]] = None,
    include_payload: bool = False,
) -> Iterator[StreamRequest]:
    """Interleave the four scenario workloads into one request stream.

    Generates ``requests_per_scenario`` requests per scenario and yields
    them round-robin (safety, vehicles, home, health, safety, ...) — the
    mixed live traffic an edge gateway actually sees, ready to drive a
    :class:`~repro.serving.fleet.FleetGateway` or a dispatcher directly.
    Each request carries a ``seq`` argument; with ``include_payload=True``
    the raw sensor payload rides along as a JSON-serializable nested list
    (for handlers that run a zoo model on the request body rather than on
    an attached sensor).

    **Determinism contract:** the stream is a pure function of its
    arguments.  Two calls with the same explicit ``seed`` (and the same
    sizes/algorithms) yield *byte-identical* streams — identical request
    order, paths, ``seq`` numbers and payload bytes — which is what makes
    recorded traces (:mod:`repro.loadgen.trace`) replayable: a trace file
    only needs to persist the generator arguments, not the payloads.
    """
    if requests_per_scenario <= 0:
        raise ConfigurationError("requests_per_scenario must be positive")
    if not isinstance(seed, int):
        raise ConfigurationError("seed must be an explicit int: the stream's "
                                 "determinism contract is keyed on it")
    algorithms = dict(SCENARIO_ALGORITHMS, **dict(algorithms or {}))
    n = requests_per_scenario
    detection = object_detection_workload(frames=n, frame_size=frame_size, seed=seed)
    trajectory = trajectory_workload(frames=n, frame_size=frame_size, seed=seed + 1)
    power = appliance_power_workload(samples=n, seed=seed + 2)
    activity = activity_recognition_workload(samples=n, seed=seed + 3)
    for i in range(n):
        per_scenario: List[Tuple[str, Dict[str, object]]] = [
            ("safety", {"payload": detection.frames[i]}),
            ("vehicles", {"payload": trajectory.frames[i]}),
            ("home", {"payload": np.array([power.power_w[i]])}),
            ("health", {"payload": activity.windows[i]}),
        ]
        for scenario, extras in per_scenario:
            args: Dict[str, object] = {"seq": i}
            if include_payload:
                args["payload"] = extras["payload"].tolist()
            yield StreamRequest(
                scenario=scenario, algorithm=algorithms[scenario], args=args
            )
