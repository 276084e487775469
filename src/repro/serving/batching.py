"""Request micro-batching for libei algorithm calls.

Under heavy traffic many concurrent ``/ei_algorithms`` requests hit the
same ``(scenario, algorithm)`` within a few milliseconds of each other.
:class:`BatchingDispatcher` wraps any
:class:`~repro.serving.api.LibEITarget` and coalesces those concurrent
calls into one ``call_algorithm_batch`` invocation — a single vectorized
``predict`` over stacked inputs when the algorithm's handler was written
for lists (see :meth:`repro.core.openei.OpenEI.register_algorithm`), a
plain loop when it was registered one request at a time.

The mechanism is leader election per ``(scenario, algorithm)`` queue:
the first caller to arrive becomes the *leader* and waits up to
``flush_window_s`` for followers; the batch flushes early the moment it
reaches ``max_batch_size``.  Followers block until the leader distributes
results back to them in arrival order, so every caller receives exactly
the response for its own arguments.  Because the dispatcher itself
implements :class:`LibEITarget`, both a single-instance
:class:`~repro.serving.server.LibEIServer` and a
:class:`~repro.serving.fleet.FleetGateway` pick it up through the
``batching=`` constructor argument.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import BatchContractError, ConfigurationError
from repro.serving.api import LibEITarget


@dataclass(frozen=True)
class BatchingConfig:
    """Knobs for request micro-batching.

    ``max_batch_size`` — most requests coalesced into one invocation;
    ``1`` disables batching entirely (pass-through).
    ``flush_window_s`` — how long the current leader waits for followers
    before flushing a partial batch; the worst-case extra latency a
    request can pay under light traffic.
    """

    max_batch_size: int = 8
    flush_window_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be at least 1")
        if self.flush_window_s < 0:
            raise ConfigurationError("flush_window_s must be non-negative")


@dataclass
class BatchingStats:
    """Counters describing how well requests coalesced."""

    requests: int = 0
    batches: int = 0
    flushed_full: int = 0
    flushed_window: int = 0
    max_batch: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "flushed_full": self.flushed_full,
            "flushed_window": self.flushed_window,
            "max_batch": self.max_batch,
            "mean_batch_size": self.mean_batch_size,
        }


class _PendingCall:
    """One in-flight request waiting for its batch to execute."""

    __slots__ = ("args", "arrival", "done", "result", "error")

    def __init__(self, args: Optional[Dict[str, object]]) -> None:
        self.args = args
        self.arrival = time.monotonic()
        self.done = False  # guarded-by: cond
        self.result: Optional[Dict[str, object]] = None  # guarded-by: cond
        self.error: Optional[BaseException] = None  # guarded-by: cond


class _AlgorithmQueue:
    """Per-(scenario, algorithm) wait queue with its own condition."""

    __slots__ = ("cond", "entries", "leader")

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.entries: List[_PendingCall] = []  # guarded-by: cond
        self.leader: Optional[_PendingCall] = None  # guarded-by: cond


class BatchingDispatcher:
    """Micro-batching :class:`LibEITarget` wrapper.

    Algorithm calls batch; status and data calls pass straight through.
    """

    def __init__(
        self,
        target: LibEITarget,
        config: Optional[BatchingConfig] = None,
    ) -> None:
        self.target = target
        self.config = config or BatchingConfig()
        self.stats = BatchingStats()  # guarded-by: _stats_lock
        self._stats_lock = threading.Lock()
        self._queues: Dict[Tuple[str, str], _AlgorithmQueue] = {}  # guarded-by: _queues_lock
        self._queues_lock = threading.Lock()

    # -- pass-through surface ---------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """The target's status plus the batching counters."""
        description = dict(self.target.describe())
        description["batching"] = {
            "max_batch_size": self.config.max_batch_size,
            "flush_window_s": self.config.flush_window_s,
            **self.stats.as_dict(),
        }
        return description

    def get_realtime_data(self, sensor_id: str) -> Dict[str, object]:
        return self.target.get_realtime_data(sensor_id)

    def get_historical_data(
        self, sensor_id: str, start: float, end: Optional[float] = None
    ) -> Dict[str, object]:
        return self.target.get_historical_data(sensor_id, start, end)

    # -- batching core ----------------------------------------------------------
    def _queue_for(self, key: Tuple[str, str]) -> _AlgorithmQueue:
        with self._queues_lock:
            queue = self._queues.get(key)
            if queue is None:
                queue = self._queues[key] = _AlgorithmQueue()
            return queue

    def call_algorithm_batch(
        self,
        scenario: str,
        name: str,
        args_list: Sequence[Optional[Dict[str, object]]],
    ) -> List[Dict[str, object]]:
        """Already-batched calls skip the coalescing queue entirely."""
        return self.target.call_algorithm_batch(scenario, name, args_list)

    def call_algorithm(
        self, scenario: str, name: str, args: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """Coalesce this call with concurrent same-algorithm calls, then answer it."""
        if self.config.max_batch_size <= 1:
            return self.target.call_algorithm(scenario, name, args)
        queue = self._queue_for((scenario, name))
        entry = _PendingCall(args)
        batch: Optional[List[_PendingCall]] = None
        flushed_full = False
        with queue.cond:
            queue.entries.append(entry)
            if queue.leader is None:
                queue.leader = entry
            else:
                # a leader is collecting: it may now be full
                queue.cond.notify_all()
            while True:
                if entry.done:
                    break
                if queue.leader is entry:
                    deadline = entry.arrival + self.config.flush_window_s
                    now = time.monotonic()
                    if len(queue.entries) >= self.config.max_batch_size or now >= deadline:
                        batch = queue.entries[: self.config.max_batch_size]
                        flushed_full = len(batch) >= self.config.max_batch_size
                        del queue.entries[: self.config.max_batch_size]
                        # hand leadership to the oldest remaining entry and
                        # wake it so its own window starts counting down
                        queue.leader = queue.entries[0] if queue.entries else None
                        queue.cond.notify_all()
                        break
                    queue.cond.wait(deadline - now)
                else:
                    # follower: result distribution and leadership handoff
                    # both notify under the lock, so the timeout is purely
                    # a defensive bound, not a polling interval
                    queue.cond.wait(0.5)
        if batch is None:
            # follower path: the leader filled in our slot
            if entry.error is not None:
                raise entry.error
            assert entry.result is not None
            # lint: ignore[mutable-return] ownership transfer — each result is handed to exactly one caller and never read again
            return entry.result
        # leader path: execute outside the lock, collect per-request
        # outcomes, then distribute them *under* the condition — done /
        # result / error are cond-guarded, and a follower that times out
        # of wait() must never observe done=True with its result slot
        # still being filled in
        outcomes: List[Tuple[Optional[Dict[str, object]], Optional[BaseException]]]
        try:
            results = self.target.call_algorithm_batch(
                scenario, name, [pending.args for pending in batch]
            )
            if len(results) != len(batch):
                raise BatchContractError(
                    f"batch execution for {scenario}/{name} returned "
                    f"{len(results)} results for {len(batch)} requests"
                )
            outcomes = [(result, None) for result in results]
        except BatchContractError as exc:
            # a broken batch handler must fail loudly, not be silently
            # papered over by per-request retries
            outcomes = [(None, exc) for _ in batch]
        except BaseException as exc:  # noqa: BLE001 - delivered per caller below
            if len(batch) == 1:
                outcomes = [(None, exc)]
            else:
                # error isolation: one poisoned request must not fail its
                # co-batched neighbors, so retry each request on its own —
                # every caller gets exactly what the unbatched path gives
                outcomes = []
                for pending in batch:
                    try:
                        outcomes.append(
                            (
                                self.target.call_algorithm(
                                    scenario, name, pending.args
                                ),
                                None,
                            )
                        )
                    except BaseException as single_exc:  # noqa: BLE001
                        outcomes.append((None, single_exc))
        with queue.cond:
            for pending, (result, error) in zip(batch, outcomes):
                pending.result = result
                pending.error = error
                pending.done = True
            queue.cond.notify_all()
        with self._stats_lock:
            self.stats.requests += len(batch)
            self.stats.batches += 1
            self.stats.max_batch = max(self.stats.max_batch, len(batch))
            if flushed_full:
                self.stats.flushed_full += 1
            else:
                self.stats.flushed_window += 1
        if entry.error is not None:
            raise entry.error
        assert entry.result is not None
        # lint: ignore[mutable-return] ownership transfer — the leader's own result slot is read once, by itself
        return entry.result
