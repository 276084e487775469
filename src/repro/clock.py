"""One clock for everything in ``repro`` that reads or waits on time.

Serving and the control plane need time three ways: a monotonic reading
for deadlines, TTLs and cooldowns; a wall-clock reading for what outlives
the process (a journaled lease's ``expires_at``, an event's ``ts``); and
a bounded wait on a condition (the batching window, the WAL flusher's
interval).  :class:`Clock` is that seam and :data:`SYSTEM_CLOCK` is the
host's clocks behind it.  Every holder takes one ``clock=`` argument —
an :class:`~repro.serving.fleet.EdgeFleet` hands its own to the
controllers, cache and recovery pass that serve it — so a test swaps in
one :class:`ManualClock` and moves time by hand instead of sleeping.

Durations of *work* (a handler's compute, a client round trip) are
measured with :func:`time.perf_counter` where they are taken: they are
observations, not time the system acts on.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.exceptions import ConfigurationError


class Clock:
    """The host's clocks."""

    __slots__ = ()

    def monotonic(self) -> float:
        """Seconds on a clock that never goes back (deadlines, TTLs, cooldowns)."""
        return time.monotonic()

    def wall(self) -> float:
        """Seconds since the epoch (what is journaled and outlives the process)."""
        return time.time()

    def wait(self, cond: threading.Condition, timeout: Optional[float] = None) -> bool:
        """Wait on ``cond``, which the caller holds, for a notify or ``timeout`` seconds.

        Like :meth:`threading.Condition.wait` it may return early, so the
        caller re-reads :meth:`monotonic` and re-checks its own deadline.
        """
        return cond.wait(timeout)

    def sleep(self, seconds: float) -> None:
        """Let ``seconds`` pass."""
        time.sleep(seconds)


#: The clock every holder defaults to.
SYSTEM_CLOCK = Clock()


class ManualClock(Clock):
    """A clock that moves only when told to: the one test double.

    ``monotonic()`` starts at ``0.0`` and ``wall()`` at ``wall_start``;
    both move together, by :meth:`advance` or by :meth:`sleep` — a
    sleeper on a manual clock *is* time passing, which models one sleeper
    at a time, not parallel ones.  :meth:`wait` never times out on host
    time: it returns when ``cond`` is notified or the clock moves, and
    the caller's deadline check decides what that means.
    :meth:`wait_for_waiters` holds a test until the threads it started
    are parked on the clock, so no ordering needs a sleep.
    """

    __slots__ = ("_lock", "_parking", "_now", "_ticks", "_wall_start", "_parked", "_seen")

    def __init__(self, wall_start: float = 1.7e9) -> None:
        self._lock = threading.Lock()
        #: notified whenever a thread parks in wait()
        self._parking = threading.Condition(self._lock)
        self._now = 0.0  # guarded-by: _lock
        #: bumped by every advance: a thread whose last reading is older
        #: returns from wait() at once instead of parking
        self._ticks = 0  # guarded-by: _lock
        self._wall_start = float(wall_start)
        #: conditions threads are parked on in wait(), with how many each
        self._parked: Dict[threading.Condition, int] = {}  # guarded-by: _lock
        self._seen = threading.local()

    def monotonic(self) -> float:
        # lock-free: the tick is read before the time it stamps, so a
        # reader racing advance() can only under-report its tick, which
        # costs one early return from wait(), never a missed wake-up
        self._seen.tick = self._ticks
        return self._now  # lint: ignore[mutable-return] a float — immutable

    def wall(self) -> float:
        return self._wall_start + self.monotonic()

    def wait(self, cond: threading.Condition, timeout: Optional[float] = None) -> bool:
        with self._lock:
            if getattr(self._seen, "tick", None) != self._ticks:
                # the clock moved since this thread last read it: hand the
                # caller the news once, so its next wait() parks
                self._seen.tick = self._ticks
                return True
            self._parked[cond] = self._parked.get(cond, 0) + 1
            self._parking.notify_all()
        try:
            # advance() takes ``cond`` before notifying it, and the caller
            # holds ``cond`` from its clock reading until this wait releases
            # it, so an advance after the tick check cannot be missed
            return cond.wait()
        finally:
            with self._lock:
                left = self._parked[cond] - 1
                if left:
                    self._parked[cond] = left
                else:
                    del self._parked[cond]

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)

    def advance(self, seconds: float) -> None:
        """Move time forward and wake every thread parked in :meth:`wait`.

        Never call it while holding a condition a waiter parks on.
        """
        if seconds < 0:
            raise ConfigurationError("a clock cannot be moved back")
        with self._lock:
            self._now += seconds
            self._ticks += 1
            parked = list(self._parked)
        for cond in parked:
            with cond:
                cond.notify_all()

    def wait_for_waiters(self, count: int = 1, timeout: float = 10.0) -> bool:
        """Block until ``count`` threads are parked in :meth:`wait`.

        ``timeout`` is host seconds and only a hang guard: False means the
        threads never parked.
        """
        with self._parking:
            return self._parking.wait_for(
                lambda: sum(self._parked.values()) >= count, timeout
            )
