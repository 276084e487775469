"""Golden fixture: the blocking-under-lock rule."""

import subprocess
import threading
import time
from urllib.request import urlopen


class Poller:
    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition()

    def bad_sleep(self):
        with self._lock:
            time.sleep(0.1)  # EXPECT[blocking-under-lock]

    def bad_fetch(self, url):
        with self._lock:
            return urlopen(url, timeout=1.0).read()  # EXPECT[blocking-under-lock]

    def bad_pooled_read(self, connection):
        with self._lock:
            connection.request("GET", "/")
            return connection.getresponse().read()  # EXPECT[blocking-under-lock]

    def bad_subprocess(self):
        with self._lock:
            subprocess.check_output(["true"])  # EXPECT[blocking-under-lock]

    def bad_join(self, worker):
        with self._lock:
            worker.join()  # EXPECT[blocking-under-lock]

    def bad_future(self, future):
        with self._lock:
            return future.result()  # EXPECT[blocking-under-lock]

    def good_sleep_unlocked(self):
        time.sleep(0.1)

    def good_take_then_read(self, idle):
        with self._lock:
            connection = idle.pop()
        connection.request("GET", "/")
        return connection.getresponse().read()

    def good_str_join(self):
        with self._lock:
            return ", ".join(["a", "b"])

    def good_condition_wait(self):
        with self._cond:
            self._cond.wait(0.1)

    def good_snapshot_then_block(self):
        with self._lock:
            delay = 0.1
        time.sleep(delay)

    def bad_nested_worker(self):
        def work():
            with self._lock:
                time.sleep(0.1)  # EXPECT[blocking-under-lock]

        return work

    def bad_locked_callback(self):
        def on_tick():  # requires-lock: _lock
            time.sleep(0.1)  # EXPECT[blocking-under-lock]

        return on_tick

    def good_deferred_sleep(self):
        # clean: the nested def runs later, after the lock is released
        with self._lock:
            def later():
                time.sleep(0.1)

        return later

    def suppressed_sleep(self):
        with self._lock:
            # lint: ignore[blocking-under-lock] test-only fixture sleeps 1ms to widen a race window
            time.sleep(0.001)


_REGISTRY_LOCK = threading.Lock()

with _REGISTRY_LOCK:
    time.sleep(0.0)  # EXPECT[blocking-under-lock]
