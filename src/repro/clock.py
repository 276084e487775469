"""One clock for everything in ``repro`` that reads or waits on time.

Serving and the control plane need time two ways: a monotonic reading
for deadlines, TTLs and cooldowns, and a wall-clock reading for what
outlives the process (a journaled lease's ``expires_at``, an event's
``ts``).  :class:`Clock` is that seam and :data:`SYSTEM_CLOCK` is the
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

    def sleep(self, seconds: float) -> None:
        """Let ``seconds`` pass."""
        time.sleep(seconds)


#: The clock every holder defaults to.
SYSTEM_CLOCK = Clock()


class ManualClock(Clock):
    """A clock that moves only when told to: the one test double.

    ``monotonic()`` starts at ``0.0`` and ``wall()`` at ``1.7e9`` (a 2023 date);
    both move together, by :meth:`advance` or by :meth:`sleep` — a
    sleeper on a manual clock *is* time passing, which models one sleeper
    at a time, not parallel ones.
    """

    __slots__ = ("_lock", "_now")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._now = 0.0  # guarded-by: _lock

    def monotonic(self) -> float:
        return self._now  # lint: ignore[mutable-return] a float — immutable

    def wall(self) -> float:
        return 1.7e9 + self.monotonic()

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)

    def advance(self, seconds: float) -> None:
        """Move time forward."""
        if seconds < 0:
            raise ConfigurationError("a clock cannot be moved back")
        with self._lock:
            self._now += seconds
