"""Pre-flight contention probe: is this host quiet enough for the numbers to count?

A benchmark run beside a test suite measured a 59× phantom regression in
an earlier PR.  The probe makes that a refusal up front instead of a
post-mortem: one second of 1 ms sleeps (the largest gap between wake-ups
is what a sender thread would have been stalled by), the 1-minute load
average, and a scan for another pytest/benchmark process.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, List, Set

#: Command-line fragments that mark a process the benchmark must not share the box with.
_RIVALS = ("pytest", "py.test", "bench/run.py", "servebench.server")


def sleep_jitter_ms(duration_s: float = 1.0, step_s: float = 0.001) -> float:
    """Largest gap between consecutive wake-ups of a ``step_s`` sleep loop, in ms."""
    worst = 0.0
    end = time.perf_counter() + duration_s
    last = time.perf_counter()
    while last < end:
        time.sleep(step_s)
        now = time.perf_counter()
        worst = max(worst, now - last)
        last = now
    return worst * 1e3


def _ancestors() -> Set[int]:
    """This process and every process above it (the shell or suite that started us)."""
    seen: Set[int] = set()
    pid = os.getpid()
    while pid > 0 and pid not in seen:
        seen.add(pid)
        try:
            status = Path(f"/proc/{pid}/status").read_text(encoding="ascii", errors="replace")
        except OSError:
            break
        pid = next((int(line.split()[1]) for line in status.splitlines()
                    if line.startswith("PPid:")), 0)
    return seen


def rival_processes() -> List[str]:
    """Command lines of other live pytest/benchmark processes (not us, not our ancestors)."""
    mine = _ancestors()
    rivals: List[str] = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) in mine:
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue  # the process exited while we were looking
        if any(fragment in cmdline for fragment in _RIVALS):
            rivals.append(cmdline.strip()[:120])
    return rivals


def probe(duration_s: float = 1.0) -> Dict[str, object]:
    """``host.max_gap_ms`` / ``host.load1`` and whether the host counts as contended."""
    rivals = rival_processes()
    load1 = os.getloadavg()[0]
    max_gap_ms = sleep_jitter_ms(duration_s)
    cores = os.cpu_count() or 1
    return {
        "host.max_gap_ms": max_gap_ms,
        "host.load1": load1,
        "cores": cores,
        "rivals": rivals,
        "contended": bool(rivals) or load1 > 0.5 * cores,
    }
