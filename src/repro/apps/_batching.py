"""Shared list-of-calls plumbing for the scenario apps' handlers.

Every app registers one handler over a list of calls (see
``docs/API.md``, "App `batch_handler` contract"; a single request is a
list of one): capture every call's readings in one all-or-nothing store
call, answer the whole list with one stacked call when the inputs are
shape-homogeneous, and report each call's *amortized* share of the wall
clock as its observed ALEM latency.  The three subtle pieces of that
contract live here so the four apps cannot drift apart.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.sensors import SensorReading


def capture_readings(
    ei, calls: Sequence[Dict[str, object]], argument: str, default_id: str
) -> List[SensorReading]:
    """One reading per call, from the sensor its ``argument`` names (else ``default_id``).

    Every id is resolved before the first reading is pulled, so an
    unknown sensor anywhere in the list raises with no reading consumed
    and the dispatcher's per-request retry gives each good caller the
    reading it would have held alone.
    """
    return ei.data_store.realtime_batch(
        [str(args.get(argument, default_id)) for args in calls]
    )


def amortized_batch_latency(start: float, ei, count: int) -> float:
    """Per-request share of a batch's wall clock, scaled by the emulated slowdown.

    ``start`` is the ``time.perf_counter()`` stamp taken when the batch
    handler began; the share is what each coalesced request actually
    paid, which is what the adaptive control plane should observe.
    """
    return (time.perf_counter() - start) * ei.runtime.slowdown / max(1, count)


def stack_if_homogeneous(payloads: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """``np.stack(payloads)`` when they share one shape, else ``None``.

    Handlers consume their sensor readings exactly once *before*
    stacking; a mixed-shape micro-batch (requests naming
    differently-sized sensors) must take the caller's per-reading path
    rather than raise — an exception here would make the dispatcher's
    error-isolation retry re-consume fresh readings, so a co-batched
    request would see a later reading than it would have alone.
    """
    if len({payload.shape for payload in payloads}) == 1:
        return np.stack(payloads)
    return None
