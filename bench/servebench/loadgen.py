"""The load generator: one process, at most ``SENDERS`` threads/connections.

Two loop shapes, both validating every response as it arrives:

* **closed** — each sender sends its next request when the previous one
  returned, until the deadline; a slow system receives less load.
* **open** — senders pull the next arrival from a shared schedule and
  sleep until it is due; latency is timed from the *scheduled* arrival,
  so a stall is charged to every request that waited behind it, and how
  late sends actually left is reported as generator lag.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import APIError
from repro.serving import LibEIClient

from servebench.spans import SpanRecorder
from servebench.workloads import Request

BENCH_DIR = Path(__file__).resolve().parent.parent
SRC_DIR = BENCH_DIR.parent / "src"

#: ``(request, body) -> None | reason``
Checker = Callable[[Request, object], Optional[str]]


class Samples:
    """What one sender saw; merged across senders after the run."""

    __slots__ = ("stamp_s", "done_s", "latency_s", "get_s", "lag_s", "items", "failed", "errors")

    def __init__(self) -> None:
        self.stamp_s: List[float] = []    # scheduled (open) or send (closed) time, from t0
        self.done_s: List[float] = []     # completion time, from t0
        self.latency_s: List[float] = []  # what the workload's latency metrics reduce
        self.get_s: List[float] = []      # send → decoded response, always
        self.lag_s: List[float] = []      # open loop: send time − scheduled time
        self.items: List[int] = []        # result items each response carried
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    def merge(self, other: "Samples") -> None:
        self.stamp_s += other.stamp_s
        self.done_s += other.done_s
        self.latency_s += other.latency_s
        self.get_s += other.get_s
        self.lag_s += other.lag_s
        self.items += other.items
        self.failed += other.failed
        self.errors = (self.errors + other.errors)[:5]

    @property
    def succeeded(self) -> int:
        return len(self.latency_s)

    @property
    def attempted(self) -> int:
        return self.succeeded + self.failed


def items_in(request: Request, body: Dict[str, object]) -> int:
    """Result items a response carries: sensor readings for data, else one result."""
    if request.kind == "historical":
        return int(body["data"]["count"])
    return 1


def _send(client: LibEIClient, request: Request, check: Checker, out: Samples,
          recorder: Optional[SpanRecorder]) -> Optional[Tuple[float, float]]:
    """One GET, validated; returns its (send, done) times or ``None`` when it failed."""
    start = time.perf_counter()
    try:
        if recorder is None:
            body = client.get(request.path)
        else:
            with recorder.span("client.get", rid=request.rid):
                body = client.get(request.path)
    except APIError as exc:
        out.fail(f"{request.path}: {exc}")
        return None
    done = time.perf_counter()
    reason = check(request, body)
    if reason is not None:
        out.fail(f"{request.path}: {reason}")
        return None
    out.items.append(items_in(request, body))
    return start, done


def _run_senders(
    senders: int,
    loop: Callable[[int, Samples, float], None],
    midway: Optional[Tuple[float, Callable[[], None]]] = None,
) -> Tuple[Samples, float]:
    """Start ``senders`` threads on one shared ``t0``; merge what they saw.

    ``midway=(delay_s, action)`` runs ``action`` on the calling thread
    ``delay_s`` into the run (the managed workload's canary trigger).
    """
    per_sender = [Samples() for _ in range(senders)]
    begin = threading.Barrier(senders + 1)
    t0_box: List[float] = []
    crashed: List[BaseException] = []

    def target(index: int) -> None:
        begin.wait()
        try:
            loop(index, per_sender[index], t0_box[0])
        except Exception as exc:  # noqa: BLE001 - re-raised on the calling thread below
            crashed.append(exc)

    # daemon: Ctrl-C on the calling thread must not wait out the run
    threads = [threading.Thread(target=target, args=(i,), name=f"sender-{i}", daemon=True)
               for i in range(senders)]
    for thread in threads:
        thread.start()
    t0_box.append(time.perf_counter())
    begin.wait()
    if midway is not None:
        delay_s, action = midway
        time.sleep(max(0.0, t0_box[0] + delay_s - time.perf_counter()))
        action()
    for thread in threads:
        thread.join()
    if crashed:
        raise crashed[0]
    elapsed = time.perf_counter() - t0_box[0]
    merged = Samples()
    for out in per_sender:
        merged.merge(out)
    return merged, elapsed


def run_closed(
    address: Tuple[str, int],
    request_at: Callable[[int, int], Request],
    check: Checker,
    seconds: float,
    senders: int,
    recorder: Optional[SpanRecorder] = None,
    midway: Optional[Tuple[float, Callable[[], None]]] = None,
) -> Tuple[Samples, float]:
    """Closed loop for ``seconds``; returns the merged samples and the elapsed time."""

    def loop(index: int, out: Samples, t0: float) -> None:
        client = LibEIClient(address)
        deadline = t0 + seconds
        k = 0
        while time.perf_counter() < deadline:
            times = _send(client, request_at(index, k), check, out, recorder)
            k += 1
            if times is not None:
                sent, done = times
                out.stamp_s.append(sent - t0)
                out.done_s.append(done - t0)
                out.latency_s.append(done - sent)
                out.get_s.append(done - sent)

    return _run_senders(senders, loop, midway)


def run_open(
    address: Tuple[str, int],
    schedule: Sequence[Tuple[float, Request]],
    check: Checker,
    senders: int,
    recorder: Optional[SpanRecorder] = None,
) -> Tuple[Samples, float]:
    """Open loop over a whole schedule; every scheduled request is sent."""
    cursor = iter(range(len(schedule)))
    cursor_lock = threading.Lock()

    def loop(index: int, out: Samples, t0: float) -> None:
        client = LibEIClient(address)
        while True:
            with cursor_lock:
                position = next(cursor, None)
            if position is None:
                return
            at_s, request = schedule[position]
            due = t0 + at_s
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            times = _send(client, request, check, out, recorder)
            if times is not None:
                sent, done = times
                out.stamp_s.append(at_s)
                out.done_s.append(done - t0)
                out.latency_s.append(done - due)
                out.get_s.append(done - sent)
                out.lag_s.append(sent - due)

    return _run_senders(senders, loop)


class ServerProcess:
    """The server subprocess, reaped on every way out of the ``with`` block."""

    def __init__(self, workload: str, traced: bool, workdir: Optional[Path]) -> None:
        env = dict(os.environ)
        paths = [str(BENCH_DIR), str(SRC_DIR)]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        command = [sys.executable, "-m", "servebench.server",
                   "--workload", workload, "--traced", str(int(traced))]
        if workdir is not None:
            command += ["--workdir", str(workdir)]
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=str(BENCH_DIR),
        )
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        self.instance_ids: List[str] = []

    def wait_ready(self) -> None:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"the server subprocess exited with code {self.process.wait()} before it was ready"
            )
        ready = json.loads(line)
        self.address = ("127.0.0.1", int(ready["port"]))
        self.instance_ids = list(ready["instance_ids"])

    def command(self, word: str) -> None:
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()

    def ask(self, word: str) -> Dict[str, object]:
        """Send a command the child answers with one JSON line."""
        self.command(word)
        return json.loads(self.process.stdout.readline())

    def stop(self) -> Dict[str, object]:
        """Ask the child to stop and collect its report line."""
        out, _ = self.process.communicate("stop\n", timeout=60.0)
        if self.process.returncode != 0:
            raise RuntimeError(f"the server subprocess exited with code {self.process.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # reached on success (already stopped), failure and Ctrl-C alike:
        # closing stdin stops a healthy child, kill() stops any other
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=5.0)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()
