"""Realtime/historical data store behind libei's ``/ei_data`` URLs.

Each sensor's series is a ``deque(maxlen=retention)``: recording is an
O(1) append that drops the oldest reading once the series is full, and
readers iterate over a snapshot so a handler thread recording beside
them cannot disturb the walk.  ``realtime_batch`` is the capture path
of the scenario apps' list handlers: every id is resolved before the
first reading is pulled, and a live sensor is asked once per run of its
id, so a list that names one live sensor throughout comes back as one
block (``Readings.block``) the handler can use as its stacked input.
A row of a block keeps the whole block alive; the block is freed once
its last row has left the retention deque.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import groupby
from typing import Deque, Dict, List, Optional, Sequence

from repro.exceptions import ResourceNotFoundError
from repro.data.sensors import Readings, SensorReading, _BaseSensor


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

    def sensor(self, sensor_id: str) -> Optional[_BaseSensor]:
        """The live sensor registered as ``sensor_id``, or ``None``."""
        return self._sensors.get(sensor_id)

    @property
    def sensor_ids(self) -> List[str]:
        """All sensors known to the store (live or with recorded data)."""
        return sorted(set(self._sensors) | set(self._readings))

    # -- ingestion ------------------------------------------------------------
    def record(self, reading: SensorReading) -> None:
        """Store one reading; a full series drops its oldest."""
        self._readings[reading.sensor_id].append(reading)

    # -- queries -----------------------------------------------------------------
    def realtime(self, sensor_id: str) -> SensorReading:
        """Newest reading for a sensor, pulling from the live sensor when attached."""
        return self.realtime_batch([sensor_id])[0]

    def realtime_batch(self, sensor_ids: Sequence[str]) -> Readings:
        """:meth:`realtime` for each id in order (an id named twice is read twice).

        All or nothing: every id is resolved before the first live
        read, so an unknown one raises with no reading consumed.  Each
        run of one id is one :meth:`~repro.data.sensors._BaseSensor.read_batch`
        of a live sensor, or that many copies of a recorded-only
        sensor's newest reading.  The result's ``block`` is the live
        sensor's block when the whole list is one run of it, else ``None``.
        """
        runs = [(sensor_id, len(list(run))) for sensor_id, run in groupby(sensor_ids)]
        for sensor_id, _ in runs:
            if sensor_id not in self._sensors and not self._readings.get(sensor_id):
                raise ResourceNotFoundError(f"no data recorded for sensor {sensor_id!r}")
        newest = Readings()
        for sensor_id, count in runs:
            sensor = self._sensors.get(sensor_id)
            series = self._readings[sensor_id]
            if sensor is None:
                newest.extend([series[-1]] * count)
            else:
                captured = sensor.read_batch(count)
                series.extend(captured)
                newest.extend(captured)
                if len(runs) == 1:
                    newest.block = captured.block
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
