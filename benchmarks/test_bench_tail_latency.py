"""Open-loop tail latency of the serving fleet under diurnal traffic + faults.

Every other bench in this directory is closed-loop: the next request
waits for the previous response, so server-side queueing is invisible.
This bench replays a **deterministic diurnal trace open-loop** — each
request fires at its arrival timestamp regardless of response lag, so
queueing delay lands in the measured tail — against a size-4 fleet
behind two HTTP gateways, with a **mid-trace gateway kill** (and later
re-registration by the :class:`~repro.serving.supervisor.GatewaySupervisor`)
that the :class:`~repro.serving.client.LibEIClient` must absorb through
replica failover with **zero failed requests**.

The per-scenario p50/p95/p99, RPS and error counts are written to
``BENCH_serving_tail.json`` under pytest's ``tmp_path`` — a test run
never edits the tracked repo-root copy (see docs/BENCHMARKS.md for the
schema; the ``tail-latency-smoke`` CI job runs with
``--basetemp=bench-out`` and uploads the file as a build artifact).

Determinism contract (asserted here, relied on everywhere): two traces
generated with the same seed are byte-identical — same arrivals, same
scenario assignment, same ``seq`` numbers — so a regression between PRs
is a change in the *fleet*, never in the *traffic*.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the trace for CI smoke runs.
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import print_table
from repro.apps import register_all
from repro.core.model_zoo import ModelZoo
from repro.loadgen import (
    BENCH_REPORT_NAME,
    FaultInjector,
    FaultSpec,
    OpenLoopHarness,
    client_sender,
    diurnal_trace,
    write_bench_report,
)
from repro.serving import ALEMTelemetry, EdgeFleet, GatewaySupervisor, LibEIClient

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

FLEET = ["raspberry-pi-4", "jetson-tx2", "raspberry-pi-4", "jetson-tx2"]
GATEWAYS = 2
SEED = 20190707  # the paper's conference year+month+day; any fixed int works

TRACE_DURATION_S = 8.0 if SMOKE else 30.0
PEAK_RPS = 12.0 if SMOKE else 40.0
TIME_SCALE = 0.1            # replay a 30 s diurnal day-cycle in ~3 s wall
KILL_AT_FRACTION = 0.4      # gateway 0 dies on the rising edge of the peak
RESTART_AT_FRACTION = 0.7   # ...and is re-registered on the same address
MAX_WORKERS = 32


def build_trace():
    trace = diurnal_trace(
        duration_s=TRACE_DURATION_S,
        peak_rps=PEAK_RPS,
        seed=SEED,
        name="diurnal-tail",
    )
    return trace.with_faults([
        FaultSpec(at_s=TRACE_DURATION_S * KILL_AT_FRACTION, action="kill-gateway", target=0),
        FaultSpec(at_s=TRACE_DURATION_S * RESTART_AT_FRACTION, action="restart-gateway", target=0),
    ])


def deploy_fleet() -> EdgeFleet:
    fleet = EdgeFleet.deploy(FLEET, zoo=ModelZoo(), telemetry=ALEMTelemetry(window_size=32))
    for instance in fleet:
        register_all(instance.openei, seed=0)
    return fleet


def test_bench_tail_latency_diurnal_trace_with_replica_kill(benchmark, tmp_path):
    # determinism first: the traffic itself must be reproducible before
    # any latency number measured under it can be compared across PRs
    trace = build_trace()
    replay = build_trace()
    assert trace.fingerprint() == replay.fingerprint()
    assert [r.as_dict() for r in trace.requests] == [r.as_dict() for r in replay.requests]
    assert trace.fingerprint() != diurnal_trace(
        duration_s=TRACE_DURATION_S, peak_rps=PEAK_RPS, seed=SEED + 1
    ).fingerprint()

    fleet = deploy_fleet()
    with GatewaySupervisor(fleet, gateways=GATEWAYS) as supervisor:
        client = LibEIClient(supervisor.addresses, timeout_s=10.0)
        injector = FaultInjector(fleet=fleet, supervisor=supervisor, client=client)
        harness = OpenLoopHarness(
            client_sender(client),
            time_scale=TIME_SCALE,
            max_workers=MAX_WORKERS,
            fault_injector=injector,
        )
        report = harness.run(trace)

        # the kill happened, the supervisor re-registered the gateway, and
        # not one client request failed: failover absorbed the fault
        assert supervisor.kills == 1 and supervisor.restarts == 1
        assert supervisor.alive(0) and supervisor.alive(1)
        assert report.error_count == 0, report.overall.errors[:5]
        assert report.overall.completed == len(trace)

        # every scenario of the mix produced a full percentile row
        for name in trace.scenarios():
            stats = report.scenarios[name]
            assert stats.completed > 0
            assert stats.percentile_ms(99) >= stats.percentile_ms(50) > 0.0

        # a single gateway round trip for the pytest-benchmark ledger
        benchmark(client.status)

    out = write_bench_report(
        report,
        tmp_path / BENCH_REPORT_NAME,
        extra={
            "fleet": {
                "devices": FLEET,
                "gateways": GATEWAYS,
                "faults_injected": len(trace.faults),
            },
            "smoke": SMOKE,
        },
    )
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["benchmark"] == "serving_tail"
    assert document["trace"]["fingerprint"] == trace.fingerprint()
    assert document["overall"]["errors"] == 0
    assert set(document["scenarios"]) == set(trace.scenarios())

    rows = [
        f"{name:>9s} {stats['requests']:>9d} {stats['errors']:>7d} "
        f"{stats['rps']:>8.0f} {stats['p50_ms']:>9.2f} {stats['p95_ms']:>9.2f} "
        f"{stats['p99_ms']:>9.2f}"
        for name, stats in document["scenarios"].items()
    ]
    overall = document["overall"]
    rows.append(
        f"{'overall':>9s} {overall['requests']:>9d} {overall['errors']:>7d} "
        f"{overall['rps']:>8.0f} {overall['p50_ms']:>9.2f} {overall['p95_ms']:>9.2f} "
        f"{overall['p99_ms']:>9.2f}"
    )
    print_table(
        "Open-loop tail latency — diurnal trace, mid-trace gateway kill "
        f"(fleet {len(FLEET)}, {GATEWAYS} gateways, x{1 / TIME_SCALE:.0f} compressed)",
        f"{'scenario':>9s} {'requests':>9s} {'errors':>7s} {'rps':>8s} "
        f"{'p50 (ms)':>9s} {'p95 (ms)':>9s} {'p99 (ms)':>9s}",
        rows,
    )
