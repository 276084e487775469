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
  collects per-scenario latencies and errors into a
  :class:`TailLatencyReport`;
* :mod:`repro.loadgen.faults` — :class:`FaultInjector` executes a
  trace's fault plan against the live stack: gateway kills/restarts
  (through :class:`~repro.serving.supervisor.GatewaySupervisor`),
  emulated device slowdowns and malformed-request injection.

The chaos suite (``tests/serving/test_chaos.py``) drives all three;
``bench/`` pins its open-loop workload to :func:`poisson_trace`.  See
docs/BENCHMARKS.md for the trace file format.
"""

from repro.loadgen.faults import MALFORMED_PATH, FaultInjector
from repro.loadgen.harness import (
    OpenLoopHarness,
    ScenarioStats,
    TailLatencyReport,
    client_sender,
    dispatcher_sender,
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
    "poisson_trace",
    "trace_from_stream",
]
