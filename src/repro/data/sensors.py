"""Simulated edge sensors.

Each sensor produces :class:`SensorReading` objects with a timestamp, a
payload (NumPy array) and ground-truth annotations so the application
scenarios can score themselves.  Generation is deterministic given the
seed, which the tests and benchmarks rely on.

A sensor synthesises in one place, ``read_batch(k)``: k readings written
into one read-only ``(k, …)`` block, each payload a row of it, with the
RNG draws k calls of ``read()`` (which is ``read_batch(1)[0]``) would
make, so the stream does not depend on how it is cut into blocks.  A
list handler takes the block as its stacked input (:class:`Readings`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
        # a row of a sealed block is read-only already; setting the flag
        # again would cost about half as much as building the reading
        if self.payload.flags.writeable:
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


class Readings(list):
    """Readings in order, with the one array that holds their payloads.

    ``block`` is the read-only ``(k, …)`` array whose row ``i`` is
    ``self[i].payload``, or ``None`` when no such array exists (a list
    that mixes sensors, or repeats a recorded reading).  Consumers take
    it from here, never from ``payload.base``: a recorded reading named
    32 times answers 32 copies of one row, and that row's base is a
    block of other readings.
    """

    block: Optional[np.ndarray] = None


def _scaled(draws: np.ndarray, loc: float, scale: float) -> np.ndarray:
    """Standard-normal ``draws`` turned, in place, into ``normal(loc, scale)`` draws.

    NumPy computes ``normal(loc, scale)`` as ``loc + scale * z``; one
    block-wide multiply then add makes the same two roundings per element.
    """
    draws *= scale
    draws += loc
    return draws


class _BaseSensor:
    """Shared plumbing: identity, sampling period and deterministic RNG.

    A subclass synthesises readings in one place, :meth:`read_batch`,
    which writes ``count`` of them into one array and makes the RNG draws
    ``count`` calls of :meth:`read` would make, in the same order.
    """

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

    def _emit(self, block: np.ndarray, annotations: Sequence[Dict[str, object]]) -> Readings:
        """Seal ``block`` read-only, then hand out one timestamped reading per row."""
        block.flags.writeable = False
        readings = Readings([
            SensorReading(self.sensor_id, self._tick(), block[index], notes)
            for index, notes in enumerate(annotations)
        ])
        readings.block = block
        return readings

    def stream(self, count: int) -> Iterator[SensorReading]:
        """Yield ``count`` consecutive readings."""
        for _ in range(count):
            yield self.read()

    def read(self) -> SensorReading:
        """The next reading."""
        return self.read_batch(1)[0]

    def read_batch(self, count: int) -> Readings:  # pragma: no cover - overridden
        """The next ``count`` readings, their payloads the rows of one read-only block."""
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

    def read_batch(self, count: int) -> Readings:
        size = self.frame_size
        block = np.empty((count, size, size, 1))
        annotations: List[Dict[str, object]] = []
        objects: List[Tuple[int, int, int, int, float]] = []   # frame, x, y, side, brightness
        for index in range(count):
            self._rng.standard_normal(out=block[index])
            boxes: List[Tuple[float, float, float, float]] = []
            for _ in range(int(self._rng.integers(0, self.max_objects + 1))):
                side = int(self._rng.integers(4, max(5, size // 4)))
                x = int(self._rng.integers(0, size - side))
                y = int(self._rng.integers(0, size - side))
                objects.append((index, x, y, side, self._rng.uniform(0.6, 1.0)))
                boxes.append((float(x), float(y), float(x + side), float(y + side)))
            annotations.append({"boxes": boxes})
        _scaled(block, 0.1, 0.05)
        for index, x, y, side, brightness in objects:
            block[index, y : y + side, x : x + side, 0] += brightness
        return self._emit(block, annotations)


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
        # frequency * t for each activity, whose frequency is 1.0 + its index
        self._waves = (1.0 + np.arange(len(self.ACTIVITIES)))[:, None, None] * np.linspace(
            0, 2 * np.pi, self.steps
        )[:, None]

    def read_batch(self, count: int) -> Readings:
        activities = np.empty(count, dtype=np.intp)
        phases = np.empty((count, 1, self.channels))
        block = np.empty((count, self.steps, self.channels))
        for index in range(count):
            activities[index] = self._rng.integers(0, len(self.ACTIVITIES))
            self._rng.random(out=phases[index, 0])
            self._rng.standard_normal(out=block[index])
        # window = sin(frequency * t + phases) + noise, where uniform(0, 2π)
        # is 0 + 2π * random() (the 0 + changes no non-negative value):
        # one rounding per operation either way, and the sum is the same
        # in either order
        phases *= 2 * np.pi
        waves = self._waves.take(activities, axis=0) + phases
        _scaled(block, 0.0, 0.25)
        block += np.sin(waves, out=waves)
        return self._emit(block, [
            {"activity": activity, "activity_name": self.ACTIVITIES[activity]}
            for activity in activities.tolist()
        ])


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
        self._states = np.zeros(len(self.APPLIANCES), dtype=bool)

    def read_batch(self, count: int) -> Readings:
        totals: List[List[float]] = []
        annotations: List[Dict[str, object]] = []
        # a reading is one scalar: Python floats make the same IEEE
        # roundings as NumPy's, without a NumPy dispatch per operation
        for _ in range(count):
            self._states = self._states ^ (self._rng.random(len(self.APPLIANCES)) < 0.15)
            states = self._states.tolist()
            load = sum(watts for watts, on in zip(self.APPLIANCE_WATTS, states) if on)
            noise = 0.0 + 5.0 * self._rng.standard_normal()   # normal(0, 5.0)
            totals.append([max(0.0, self.base_load_w + load + noise)])
            annotations.append({"appliance_states": states})
        return self._emit(np.array(totals), annotations)


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
        if frame_size < 8:
            raise ConfigurationError("frame_size must be at least 8")
        self.frame_size = int(frame_size)
        self._position = np.array(
            [self.frame_size / 2.0, self.frame_size / 2.0], dtype=np.float64
        )
        self._velocity = self._rng.normal(0, 0.8, size=2)

    def read_batch(self, count: int) -> Readings:
        size = self.frame_size
        steps = np.empty((count, 2))
        block = np.empty((count, size, size, 1))
        for index in range(count):     # a reading's 2 velocity steps, then its frame
            self._rng.standard_normal(out=steps[index])
            self._rng.standard_normal(out=block[index])
        _scaled(block, 0.1, 0.05)
        (vx, vy), (px, py) = self._velocity.tolist(), self._position.tolist()
        high = size - 5.0
        annotations: List[Dict[str, object]] = []
        # the track on Python floats: the same IEEE arithmetic as the
        # 2-vectors it stores, without a NumPy dispatch per step
        for index, (zx, zy) in enumerate(steps.tolist()):
            vx = min(max(vx + (0.0 + 0.2 * zx), -2.0), 2.0)     # normal(0, 0.2) steps
            vy = min(max(vy + (0.0 + 0.2 * zy), -2.0), 2.0)
            px, py = min(max(px + vx, 4.0), high), min(max(py + vy, 4.0), high)
            x, y = int(px), int(py)
            block[index, y - 3 : y + 3, x - 3 : x + 3, 0] += 0.9
            annotations.append({"position": [px, py]})
        self._velocity, self._position = np.array([vx, vy]), np.array([px, py])
        return self._emit(block, annotations)
