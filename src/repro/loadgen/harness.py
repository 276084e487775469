"""The open-loop replay engine and its tail-latency recorder.

Closed-loop benchmarking (fire, wait, fire) hides queueing: when the
server slows down, the generator slows down with it, and the measured
latency stays flat while throughput silently collapses.
:class:`OpenLoopHarness` replays a :class:`~repro.loadgen.trace.Trace`
the way real traffic arrives — **by arrival timestamp**.  The schedule
thread fires each request at its trace offset (optionally compressed by
``time_scale``) and never waits for responses; worker threads carry the
requests, and a response that lags simply overlaps the arrivals behind
it.  Latency is measured from the *scheduled arrival*, so time a request
spends queued behind a saturated fleet lands in the tail percentiles
instead of disappearing into generator backpressure.

Faults in the trace's plan are dispatched at their offsets on a
dedicated thread through a
:class:`~repro.loadgen.faults.FaultInjector`, so a gateway kill cannot
stall the arrival schedule.

The resulting :class:`TailLatencyReport` holds per-scenario latencies,
error messages and the applied-fault records for the chaos suite to
assert on.  Serving *speed* is measured by ``bench/`` (see
docs/BENCHMARKS.md), not here.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.loadgen.faults import FaultInjector
from repro.loadgen.trace import TimedRequest, Trace


@dataclass
class ScenarioStats:
    """Latency/error accounting for one scenario (or the overall rollup)."""

    latencies_s: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    @property
    def requests(self) -> int:
        return self.completed + len(self.errors)

    def percentile_ms(self, q: float) -> Optional[float]:
        if not self.latencies_s:
            return None
        return float(np.percentile(np.asarray(self.latencies_s), q) * 1e3)


@dataclass
class TailLatencyReport:
    """One replay's aggregated results."""

    time_scale: float
    overall: ScenarioStats
    scenarios: Dict[str, ScenarioStats]
    faults: List[Dict[str, object]] = field(default_factory=list)

    @property
    def error_count(self) -> int:
        return len(self.overall.errors)


class _Recorder:
    """Thread-safe accumulation of per-scenario latencies and errors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.overall = ScenarioStats()  # guarded-by: _lock
        self.scenarios: Dict[str, ScenarioStats] = {}  # guarded-by: _lock

    def _bucket(self, scenario: str) -> ScenarioStats:  # requires-lock: _lock
        stats = self.scenarios.get(scenario)
        if stats is None:
            stats = self.scenarios[scenario] = ScenarioStats()
        return stats

    def success(self, scenario: str, latency_s: float) -> None:
        with self._lock:
            self.overall.latencies_s.append(latency_s)
            self._bucket(scenario).latencies_s.append(latency_s)

    def failure(self, scenario: str, error: str) -> None:
        with self._lock:
            self.overall.errors.append(error)
            self._bucket(scenario).errors.append(error)


#: A request carrier: takes one scheduled request, returns the response
#: dictionary, raises on failure.
Sender = Callable[[TimedRequest], Dict[str, object]]


class OpenLoopHarness:
    """Arrival-time-driven trace replay with bounded worker concurrency.

    ``send`` carries one request (see :func:`client_sender` /
    :func:`dispatcher_sender` for the two stock carriers).  ``time_scale``
    compresses the trace clock — a 60 s trace replays in 0.6 s wall time
    at ``time_scale=0.01`` with every inter-arrival gap shrunk
    proportionally.  ``max_workers`` bounds in-flight requests; arrivals
    beyond it queue, and their queueing delay is *measured* (latency runs
    from the scheduled arrival, not from the moment a worker picked the
    request up).

    ``on_response(request, result)`` runs on the worker thread after
    each successful response — the hook chaos tests use to pump adaptive
    and rollout control cycles under live traffic.
    """

    def __init__(
        self,
        send: Sender,
        time_scale: float = 1.0,
        max_workers: int = 32,
        fault_injector: Optional[FaultInjector] = None,
        on_response: Optional[Callable[[TimedRequest, Dict[str, object]], None]] = None,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if time_scale <= 0:
            raise ConfigurationError("time_scale must be positive")
        if max_workers <= 0:
            raise ConfigurationError("max_workers must be positive")
        self.send = send
        self.time_scale = float(time_scale)
        self.max_workers = int(max_workers)
        self.fault_injector = fault_injector
        self.on_response = on_response
        self.clock = clock
        self.sleep = sleep

    def run(self, trace: Trace) -> TailLatencyReport:
        """Replay one trace to completion and aggregate its tail report."""
        if trace.faults and self.fault_injector is None:
            raise ConfigurationError(
                f"trace {trace.name!r} schedules {len(trace.faults)} faults but the "
                "harness has no fault_injector; a silently skipped fault plan "
                "would report vacuously clean results"
            )
        recorder = _Recorder()
        schedule = sorted(
            [(r.at_s, 0, r) for r in trace.requests] + [(f.at_s, 1, f) for f in trace.faults],
            key=lambda item: (item[0], item[1]),
        )
        futures: List[Future] = []
        start = self.clock()
        with ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="loadgen"
        ) as pool, ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="loadgen-fault"
        ) as fault_pool:
            for at_s, kind, event in schedule:
                due = start + at_s * self.time_scale
                delay = due - self.clock()
                if delay > 0:
                    self.sleep(delay)
                if kind == 0:
                    futures.append(pool.submit(self._fire, event, due, recorder))
                else:
                    # faults run off the schedule thread: a kill/restart
                    # must not delay the arrivals behind it
                    futures.append(fault_pool.submit(self.fault_injector.apply, event))
            wait(futures)
        # surface fault-application bugs (request errors are already in the
        # recorder; only injector exceptions re-raise here)
        for future in futures:
            exc = future.exception()
            if exc is not None:
                raise exc
        return TailLatencyReport(
            time_scale=self.time_scale,
            overall=recorder.overall,
            scenarios=recorder.scenarios,
            faults=self.fault_injector.records() if self.fault_injector else [],
        )

    def _fire(self, request: TimedRequest, scheduled_at: float, recorder: _Recorder) -> None:
        """Carry one request; never raises (failures go to the recorder)."""
        try:
            result = self.send(request)
        except Exception as exc:  # noqa: BLE001 - every failure counts in the tail report
            recorder.failure(request.scenario, f"{type(exc).__name__}: {exc}")
            return
        # open-loop latency: completion minus *scheduled arrival*, so time
        # spent queued behind a saturated fleet is part of the measurement
        recorder.success(request.scenario, self.clock() - scheduled_at)
        if self.on_response is not None:
            self.on_response(request, result)


# -- stock request carriers -------------------------------------------------------

def client_sender(client) -> Sender:
    """Carry requests over HTTP through a :class:`~repro.serving.client.LibEIClient`.

    The client's replica failover is part of the measurement: a killed
    gateway shows up as a latency bump on the requests that failed over,
    not as errors.
    """

    def send(request: TimedRequest) -> Dict[str, object]:
        return client.call_algorithm(request.scenario, request.algorithm, dict(request.args))

    return send


def dispatcher_sender(dispatcher) -> Sender:
    """Carry requests through a :class:`~repro.serving.api.LibEIDispatcher` path."""

    def send(request: TimedRequest) -> Dict[str, object]:
        return dispatcher.handle_path(request.path)

    return send
