"""Simulated edge sensors.

Each sensor produces :class:`SensorReading` objects with a timestamp, a
payload (NumPy array) and ground-truth annotations so the application
scenarios can score themselves.  Generation is deterministic given the
seed, which the tests and benchmarks rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass
class SensorReading:
    """One sample emitted by a sensor.

    A reading never changes once emitted: its payload is made read-only
    here, which is what lets :meth:`payload_json` keep its text.
    """

    sensor_id: str
    timestamp: float
    payload: np.ndarray
    annotations: Dict[str, object] = field(default_factory=dict)
    _payload_json: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    _served: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.payload.flags.writeable = False

    @property
    def nbytes(self) -> int:
        """Raw payload size in bytes (what uploading to the cloud would cost)."""
        return int(self.payload.nbytes)

    def payload_json(self, values: List[object]) -> str:
        """``json.dumps(values)``, kept from its second use on.

        ``values`` is ``self.payload.tolist()`` as the caller already
        holds it (a :class:`PayloadList`), so an encode builds it once.
        The text costs about three times the payload's float64 bytes, so
        a reading asked for once (a fresh frame from a live sensor) keeps
        none; one asked for again keeps it as long as the reading lives
        and is never encoded after that.  Threads asking at the same
        moment may each encode; they store the same text.
        """
        text = self._payload_json
        if text is None:
            text = json.dumps(values)
            if self._served:
                self._payload_json = text
            self._served = True
        return text


class PayloadList(list):
    """A reading's ``payload.tolist()`` that still knows its reading.

    It is a real ``list`` (equal to ``payload.tolist()``, encodable by
    ``json.dumps``), so in-process callers see plain nested lists; the
    libei encoder (:func:`repro.serving.api.encode_body`) splices the
    reading's :meth:`~SensorReading.payload_json` text in its place.
    """

    __slots__ = ("reading",)

    def __init__(self, reading: SensorReading) -> None:
        super().__init__(reading.payload.tolist())
        self.reading = reading


class _BaseSensor:
    """Shared plumbing: identity, sampling period and deterministic RNG."""

    def __init__(self, sensor_id: str, period_s: float, seed: int = 0) -> None:
        if period_s <= 0:
            raise ConfigurationError("period_s must be positive")
        self.sensor_id = sensor_id
        self.period_s = float(period_s)
        self._rng = np.random.default_rng(seed)
        self._clock = 0.0

    def _tick(self) -> float:
        timestamp = self._clock
        self._clock += self.period_s
        return timestamp

    def stream(self, count: int) -> Iterator[SensorReading]:
        """Yield ``count`` consecutive readings."""
        for _ in range(count):
            yield self.read()

    def read(self) -> SensorReading:  # pragma: no cover - overridden
        raise NotImplementedError


class CameraSensor(_BaseSensor):
    """A fixed surveillance camera producing small grayscale frames.

    Frames contain zero or more bright rectangular "objects" whose
    bounding boxes are recorded as ground truth — enough structure for
    the public-safety detection pipeline to have a meaningful mAP.
    """

    def __init__(
        self,
        sensor_id: str = "camera1",
        frame_size: int = 32,
        max_objects: int = 3,
        period_s: float = 1.0 / 15.0,
        seed: int = 0,
    ) -> None:
        super().__init__(sensor_id, period_s, seed)
        if frame_size < 8:
            raise ConfigurationError("frame_size must be at least 8")
        self.frame_size = int(frame_size)
        self.max_objects = int(max_objects)

    def read(self) -> SensorReading:
        timestamp = self._tick()
        frame = self._rng.normal(0.1, 0.05, size=(self.frame_size, self.frame_size, 1))
        boxes: List[Tuple[float, float, float, float]] = []
        for _ in range(int(self._rng.integers(0, self.max_objects + 1))):
            size = int(self._rng.integers(4, max(5, self.frame_size // 4)))
            x = int(self._rng.integers(0, self.frame_size - size))
            y = int(self._rng.integers(0, self.frame_size - size))
            frame[y : y + size, x : x + size, 0] += self._rng.uniform(0.6, 1.0)
            boxes.append((float(x), float(y), float(x + size), float(y + size)))
        return SensorReading(
            sensor_id=self.sensor_id,
            timestamp=timestamp,
            payload=frame,
            annotations={"boxes": boxes},
        )


class WearableIMUSensor(_BaseSensor):
    """A wrist-worn accelerometer/gyroscope producing activity windows.

    Each reading is a ``(steps, channels)`` window whose oscillation
    pattern encodes one of the activity classes; the class index is the
    ground-truth annotation used by the connected-health scenario.
    """

    ACTIVITIES = ("resting", "walking", "running")

    def __init__(
        self,
        sensor_id: str = "wearable1",
        steps: int = 20,
        channels: int = 6,
        period_s: float = 2.0,
        seed: int = 0,
    ) -> None:
        super().__init__(sensor_id, period_s, seed)
        self.steps = int(steps)
        self.channels = int(channels)
        self._time = np.linspace(0, 2 * np.pi, self.steps)[:, None]

    def read(self) -> SensorReading:
        timestamp = self._tick()
        activity = int(self._rng.integers(0, len(self.ACTIVITIES)))
        frequency = 1.0 + activity
        phases = self._rng.uniform(0, 2 * np.pi, size=self.channels)
        window = np.sin(frequency * self._time + phases)
        window += self._rng.normal(0, 0.25, size=window.shape)
        return SensorReading(
            sensor_id=self.sensor_id,
            timestamp=timestamp,
            payload=window,
            annotations={"activity": activity, "activity_name": self.ACTIVITIES[activity]},
        )


class PowerMeterSensor(_BaseSensor):
    """A whole-home power meter with appliance on/off state ground truth.

    The trace is a base load plus per-appliance rectangular contributions
    — the structure non-intrusive load monitoring (the smart-home
    power_monitor algorithm) needs.
    """

    APPLIANCES = ("fridge", "heater", "washer", "oven")
    APPLIANCE_WATTS = (120.0, 1500.0, 500.0, 2000.0)

    def __init__(
        self,
        sensor_id: str = "powermeter1",
        period_s: float = 60.0,
        base_load_w: float = 80.0,
        seed: int = 0,
    ) -> None:
        super().__init__(sensor_id, period_s, seed)
        self.base_load_w = float(base_load_w)
        self._watts = np.array(self.APPLIANCE_WATTS)
        self._states = np.zeros(len(self.APPLIANCES), dtype=bool)

    def read(self) -> SensorReading:
        timestamp = self._tick()
        toggles = self._rng.random(len(self.APPLIANCES)) < 0.15
        self._states = np.logical_xor(self._states, toggles)
        total = self.base_load_w + float(
            (self._watts * self._states).sum()
        ) + float(self._rng.normal(0, 5.0))
        return SensorReading(
            sensor_id=self.sensor_id,
            timestamp=timestamp,
            payload=np.array([max(0.0, total)]),
            annotations={"appliance_states": self._states.tolist()},
        )


class VehicleCameraSensor(_BaseSensor):
    """A forward-facing vehicle camera tracking one lead object.

    The lead object follows a smooth trajectory across frames so the
    connected-vehicles tracking algorithm has temporally coherent ground
    truth to estimate and predict.
    """

    def __init__(
        self,
        sensor_id: str = "vehiclecam1",
        frame_size: int = 32,
        period_s: float = 1.0 / 10.0,
        seed: int = 0,
    ) -> None:
        super().__init__(sensor_id, period_s, seed)
        self.frame_size = int(frame_size)
        self._position = np.array(
            [self.frame_size / 2.0, self.frame_size / 2.0], dtype=np.float64
        )
        self._velocity = self._rng.normal(0, 0.8, size=2)

    def read(self) -> SensorReading:
        timestamp = self._tick()
        self._velocity += self._rng.normal(0, 0.2, size=2)
        # np.clip spelled out: on a 2-vector its dispatch costs more than the work
        self._velocity = np.minimum(np.maximum(self._velocity, -2.0), 2.0)
        self._position = np.minimum(
            np.maximum(self._position + self._velocity, 4.0), self.frame_size - 5.0
        )
        frame = self._rng.normal(0.1, 0.05, size=(self.frame_size, self.frame_size, 1))
        x, y = int(self._position[0]), int(self._position[1])
        frame[y - 3 : y + 3, x - 3 : x + 3, 0] += 0.9
        return SensorReading(
            sensor_id=self.sensor_id,
            timestamp=timestamp,
            payload=frame,
            annotations={"position": self._position.tolist()},
        )
