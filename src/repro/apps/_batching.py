"""Shared list-of-calls plumbing for the scenario apps' handlers.

Every app registers one handler over a list of calls (see
``docs/API.md``, "App `batch_handler` contract"; a single request is a
list of one): capture every call's readings in one all-or-nothing store
call, answer the whole list with one call on their stacked payloads (the
captured block itself when one sensor answered every call), and report
each call's *amortized* share of the wall clock as its observed ALEM
latency.  The subtle pieces of that contract live here so the four apps
cannot drift apart.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.sensors import SensorReading


def capture_readings(
    ei, calls: Sequence[Dict[str, object]], argument: str, default_id: str
) -> Tuple[List[SensorReading], Optional[np.ndarray]]:
    """One reading per call, from the sensor its ``argument`` names (else ``default_id``),
    and the stacked input the handler answers them with.

    Every id is resolved before the first reading is pulled, so an
    unknown sensor anywhere in the list raises with no reading consumed:
    a failed list call leaves every sensor where it was.

    The stacked input is the captured block itself when one live sensor
    answered every call (the store hands it over explicitly; no copy is
    made), ``np.stack`` of the payloads when the list mixes sensors of one
    shape, and ``None`` when their shapes differ: the handler then takes
    its per-reading path rather than raise, since an exception here would
    fail the whole list after its readings were already consumed.
    """
    readings = ei.data_store.realtime_batch(
        [str(args.get(argument, default_id)) for args in calls]
    )
    if readings.block is not None:
        return readings, readings.block
    payloads = [reading.payload for reading in readings]
    if len({payload.shape for payload in payloads}) == 1:
        return readings, np.stack(payloads)
    return readings, None


def amortized_batch_latency(start: float, ei, count: int) -> float:
    """Per-request share of a batch's wall clock, scaled by the emulated slowdown.

    ``start`` is the ``time.perf_counter()`` stamp taken when the batch
    handler began; the share is what each call in the list actually
    paid, which is what the adaptive control plane should observe.
    """
    return (time.perf_counter() - start) * ei.runtime.slowdown / max(1, count)
