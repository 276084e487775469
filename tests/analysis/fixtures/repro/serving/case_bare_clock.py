"""Golden cases for bare-clock: serving code reads time through repro.clock.

The fixture sits under ``repro/serving/`` because the rule only covers
the ``serving`` and ``core`` packages.
"""

import time
from time import monotonic, perf_counter  # EXPECT[bare-clock]

from repro.clock import SYSTEM_CLOCK


class Window:
    def __init__(self, clock=time.monotonic):  # EXPECT[bare-clock]
        self.clock = clock

    def deadline(self, window_s):
        return time.monotonic() + window_s  # EXPECT[bare-clock]

    def stamp(self):
        return {"ts": time.time()}  # EXPECT[bare-clock]

    def back_off(self, seconds):
        time.sleep(seconds)  # EXPECT[bare-clock]


def through_the_seam(clock=SYSTEM_CLOCK):
    # clean: the seam itself, and durations of work, which are observations
    start = perf_counter()
    deadline = clock.monotonic() + 1.0
    clock.sleep(0.0)
    return deadline, time.perf_counter() - start, time.gmtime(0), monotonic


def http_date():
    # lint: ignore[bare-clock] a Date header is the host's wall time by definition
    return time.time()
