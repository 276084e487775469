"""Realtime/historical data store behind libei's ``/ei_data`` URLs.

Each sensor's series is a ``deque(maxlen=retention)``: recording is an
O(1) append that drops the oldest reading once the series is full, and
readers iterate over a snapshot so a handler thread recording beside
them cannot disturb the walk.  ``realtime_batch`` is the capture path
of the scenario apps' list handlers: every id is resolved before the
first reading is pulled.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.exceptions import ResourceNotFoundError
from repro.data.sensors import SensorReading, _BaseSensor


class EdgeDataStore:
    """Per-edge storage of sensor readings with realtime and historical access.

    * ``realtime(sensor_id)`` returns the newest reading (pulling a fresh
      one from a registered live sensor when available) — the
      ``/ei_data/realtime/<sensor>/{timestamp}`` call of Fig. 6.
    * ``historical(sensor_id, start, end)`` returns the readings recorded
      in a time window — ``/ei_data/historical/<sensor>/{start,end}``.
    """

    def __init__(self, retention: int = 10000) -> None:
        self.retention = int(retention)
        self._readings: Dict[str, Deque[SensorReading]] = defaultdict(
            lambda: deque(maxlen=self.retention)
        )
        self._sensors: Dict[str, _BaseSensor] = {}

    # -- registration ------------------------------------------------------
    def register_sensor(self, sensor: _BaseSensor) -> None:
        """Attach a live sensor; realtime queries will pull fresh readings from it."""
        self._sensors[sensor.sensor_id] = sensor

    @property
    def sensor_ids(self) -> List[str]:
        """All sensors known to the store (live or with recorded data)."""
        return sorted(set(self._sensors) | set(self._readings))

    # -- ingestion ------------------------------------------------------------
    def record(self, reading: SensorReading) -> None:
        """Store one reading; a full series drops its oldest."""
        self._readings[reading.sensor_id].append(reading)

    def capture(self, sensor_id: str, count: int = 1) -> List[SensorReading]:
        """Pull ``count`` fresh readings from a registered live sensor and record them."""
        if sensor_id not in self._sensors:
            raise ResourceNotFoundError(f"no live sensor registered as {sensor_id!r}")
        return self.realtime_batch([sensor_id] * count)

    # -- queries -----------------------------------------------------------------
    def realtime(self, sensor_id: str) -> SensorReading:
        """Newest reading for a sensor, pulling from the live sensor when attached."""
        return self.realtime_batch([sensor_id])[0]

    def realtime_batch(self, sensor_ids: Sequence[str]) -> List[SensorReading]:
        """:meth:`realtime` for each id in order (an id named twice is read twice).

        All or nothing: every id is resolved before the first live
        ``read()``, so an unknown one raises with no reading consumed.
        """
        sensors = [self._sensors.get(sensor_id) for sensor_id in sensor_ids]
        for sensor_id, sensor in zip(sensor_ids, sensors):
            if sensor is None and not self._readings.get(sensor_id):
                raise ResourceNotFoundError(f"no data recorded for sensor {sensor_id!r}")
        newest: List[SensorReading] = []
        for sensor_id, sensor in zip(sensor_ids, sensors):
            series = self._readings[sensor_id]
            if sensor is None:
                newest.append(series[-1])
            else:
                reading = sensor.read()
                series.append(reading)
                newest.append(reading)
        return newest

    def historical(
        self, sensor_id: str, start: float, end: Optional[float] = None
    ) -> List[SensorReading]:
        """Readings with ``start <= timestamp <= end`` (end defaults to +inf)."""
        series = self._readings.get(sensor_id)
        if series is None:
            raise ResourceNotFoundError(f"no data recorded for sensor {sensor_id!r}")
        end = float("inf") if end is None else end
        return [r for r in list(series) if start <= r.timestamp <= end]

    def count(self, sensor_id: str) -> int:
        """Number of stored readings for a sensor."""
        return len(self._readings.get(sensor_id, ()))

    def total_bytes(self, sensor_id: Optional[str] = None) -> int:
        """Stored payload bytes, for one sensor or all of them."""
        if sensor_id is not None:
            return sum(r.nbytes for r in list(self._readings.get(sensor_id, ())))
        return sum(r.nbytes for series in list(self._readings.values()) for r in list(series))
