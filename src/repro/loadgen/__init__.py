"""Open-loop load generation and fault injection for the serving fleet.

The paper's accuracy/latency/energy story is only credible when latency
is measured the way real edge traffic arrives — open-loop, arrival-time
driven.  This package provides the three pieces:

* :mod:`repro.loadgen.trace` — deterministic, replayable traces:
  diurnal arrival curves, Poisson bursts, constant rates and
  per-scenario mixes generated from explicit seeds, with JSON
  save/load and fingerprinting;
* :mod:`repro.loadgen.harness` — :class:`OpenLoopHarness` fires each
  request at its trace offset regardless of response lag (queueing
  delay lands in the tail, not in generator backpressure) and
  aggregates per-scenario p50/p95/p99, RPS and error counts into a
  ``BENCH_serving_tail.json`` report;
* :mod:`repro.loadgen.faults` — :class:`FaultInjector` executes a
  trace's fault plan against the live stack: gateway kills/restarts
  (through :class:`~repro.serving.supervisor.GatewaySupervisor`),
  emulated device slowdowns and malformed-request injection.

See docs/BENCHMARKS.md for the trace and report file formats.
"""

from repro.loadgen.faults import MALFORMED_PATH, FaultInjector
from repro.loadgen.harness import (
    BENCH_REPORT_NAME,
    OpenLoopHarness,
    ScenarioStats,
    TailLatencyReport,
    client_sender,
    dispatcher_sender,
    fleet_sender,
    write_bench_report,
)
from repro.loadgen.trace import (
    FAULT_ACTIONS,
    FaultSpec,
    TimedRequest,
    Trace,
    burst_trace,
    constant_trace,
    diurnal_trace,
    poisson_trace,
    trace_from_stream,
)

__all__ = [
    "BENCH_REPORT_NAME",
    "FAULT_ACTIONS",
    "FaultInjector",
    "FaultSpec",
    "MALFORMED_PATH",
    "OpenLoopHarness",
    "ScenarioStats",
    "TailLatencyReport",
    "TimedRequest",
    "Trace",
    "burst_trace",
    "client_sender",
    "constant_trace",
    "dispatcher_sender",
    "diurnal_trace",
    "fleet_sender",
    "poisson_trace",
    "trace_from_stream",
    "write_bench_report",
]
