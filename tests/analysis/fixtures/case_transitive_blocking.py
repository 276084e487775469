"""Golden fixture: blocking reached through the call graph.

Each held call here blocks one or more frames down (depth >= 1), so the
rule must follow module-level helpers to see it; a call that blocks
itself (depth 0) is case_blocking_under_lock.py.
"""

import threading
import time


def _backoff():
    time.sleep(0.05)


def _retry_with_backoff():
    _backoff()


def _quiet_probe():
    # lint: ignore[blocking-under-lock] bounded 1ms probe, measured well under every hold budget
    _backoff()


class Refresher:
    def __init__(self):
        self._lock = threading.Lock()
        self.generation = 0

    def bad_refresh_one_deep(self):
        with self._lock:
            _backoff()  # EXPECT[blocking-under-lock]

    def bad_refresh_two_deep(self):
        with self._lock:
            _retry_with_backoff()  # EXPECT[blocking-under-lock]

    def good_refresh_unlocked(self):
        _retry_with_backoff()

    def good_snapshot_then_retry(self):
        with self._lock:
            generation = self.generation
        _retry_with_backoff()
        return generation

    def good_inner_frame_suppressed(self):
        # clean: _quiet_probe's own ignore stops propagation through it
        with self._lock:
            _quiet_probe()

    def suppressed_refresh(self):
        with self._lock:
            # lint: ignore[blocking-under-lock] startup path; the lock is uncontended before serving begins
            _retry_with_backoff()
