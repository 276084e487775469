"""Tests for the open-loop replay engine, its recorder and the fault injector."""

import threading
import time

import pytest

from repro.exceptions import APIError, ConfigurationError, ResourceNotFoundError
from repro.loadgen import (
    MALFORMED_PATH,
    FaultInjector,
    FaultSpec,
    OpenLoopHarness,
    ScenarioStats,
    TimedRequest,
    Trace,
    dispatcher_sender,
)


def make_trace(offsets, scenario="safety"):
    return Trace(
        name="unit",
        requests=[
            TimedRequest(at_s=at, scenario=scenario, algorithm="classify",
                         args={"seq": i})
            for i, at in enumerate(offsets)
        ],
    )


# -- open-loop semantics -----------------------------------------------------------

def test_latency_is_measured_from_the_scheduled_arrival():
    """A saturated worker pool must *show* queueing delay, not hide it.

    Four requests all arrive at t=0 but only one worker exists and the
    sender takes ~20 ms per request: the k-th completion happens ~k
    service times after the shared arrival, so recorded latencies grow
    roughly linearly — the signature of open-loop measurement (a
    closed-loop generator would report a flat ~20 ms for every request).
    """
    service_s = 0.02

    def send(request):
        time.sleep(service_s)
        return {"status": "ok"}

    harness = OpenLoopHarness(send, max_workers=1)
    report = harness.run(make_trace([0.0, 0.0, 0.0, 0.0]))
    assert report.error_count == 0
    latencies = sorted(report.overall.latencies_s)
    assert latencies[0] >= service_s
    # the last request queued behind the other three
    assert latencies[-1] >= 3.5 * service_s


def test_time_scale_compresses_the_trace_clock():
    def send(request):
        return {"status": "ok"}

    harness = OpenLoopHarness(send, time_scale=0.01)
    start = time.perf_counter()
    report = harness.run(make_trace([0.0, 1.0, 2.0, 3.0]))
    elapsed = time.perf_counter() - start
    # 3 trace-seconds of schedule replay in ~0.03 s wall, not 3 s
    assert elapsed < 1.0
    assert report.overall.completed == 4
    assert report.time_scale == 0.01


def test_sender_failures_land_in_the_error_ledger_not_as_exceptions():
    def send(request):
        if request.args["seq"] == 1:
            raise APIError("replica gone")
        return {"status": "ok"}

    harness = OpenLoopHarness(send, time_scale=0.01)
    report = harness.run(make_trace([0.0, 0.1, 0.2]))
    assert report.error_count == 1
    assert report.overall.completed == 2
    assert "APIError: replica gone" in report.overall.errors[0]
    assert report.scenarios["safety"].requests == 3


def test_on_response_hook_sees_every_successful_response():
    seen = []
    lock = threading.Lock()

    def on_response(request, result):
        with lock:
            seen.append((request.args["seq"], result["echo"]))

    harness = OpenLoopHarness(
        lambda r: {"echo": r.args["seq"]}, time_scale=0.01, on_response=on_response
    )
    harness.run(make_trace([0.0, 0.05, 0.1]))
    assert sorted(seen) == [(0, 0), (1, 1), (2, 2)]


def test_per_scenario_buckets_split_the_overall_rollup():
    trace = Trace(
        name="mixed",
        requests=[
            TimedRequest(at_s=0.0, scenario="safety", algorithm="classify"),
            TimedRequest(at_s=0.01, scenario="home", algorithm="power_monitor"),
            TimedRequest(at_s=0.02, scenario="safety", algorithm="classify"),
        ],
    )
    harness = OpenLoopHarness(lambda r: {}, time_scale=0.1)
    report = harness.run(trace)
    assert report.scenarios["safety"].completed == 2
    assert report.scenarios["home"].completed == 1
    assert report.overall.completed == 3


def test_faulted_trace_without_injector_is_rejected():
    trace = make_trace([0.0]).with_faults(
        [FaultSpec(at_s=0.0, action="kill-gateway")]
    )
    harness = OpenLoopHarness(lambda r: {})
    with pytest.raises(ConfigurationError, match="no fault_injector"):
        harness.run(trace)


def test_injector_exceptions_surface_after_the_replay():
    trace = make_trace([0.0, 0.1]).with_faults(
        [FaultSpec(at_s=0.05, action="slowdown", factor=2.0)]
    )
    injector = FaultInjector()  # no fleet bound: the slowdown cannot apply
    harness = OpenLoopHarness(lambda r: {}, time_scale=0.01, fault_injector=injector)
    with pytest.raises(ConfigurationError, match="needs a fleet"):
        harness.run(trace)
    assert injector.records()[0]["outcome"] == "failed"


def test_harness_validation():
    with pytest.raises(ConfigurationError):
        OpenLoopHarness(lambda r: {}, time_scale=0.0)
    with pytest.raises(ConfigurationError):
        OpenLoopHarness(lambda r: {}, max_workers=0)


def test_dispatcher_sender_carries_the_request_path(image_zoo):
    from repro.core import OpenEI
    from repro.serving import LibEIDispatcher

    openei = OpenEI(device_name="raspberry-pi-4", zoo=image_zoo)
    openei.register_algorithm("safety", "echo", lambda ei, args: {"seq": args["seq"]})
    harness = OpenLoopHarness(
        dispatcher_sender(LibEIDispatcher(openei)), time_scale=0.01
    )
    trace = Trace(name="dispatch", requests=[
        TimedRequest(at_s=0.0, scenario="safety", algorithm="echo", args={"seq": 42})
    ])
    report = harness.run(trace)
    assert report.error_count == 0


# -- the report -------------------------------------------------------------------

def test_scenario_stats_percentiles_and_empty_bucket():
    stats = ScenarioStats(latencies_s=[0.001, 0.002, 0.010])
    assert stats.percentile_ms(50) == pytest.approx(2.0)
    assert stats.percentile_ms(99) <= 10.0
    empty = ScenarioStats()
    assert empty.percentile_ms(99) is None


# -- FaultInjector bindings --------------------------------------------------------

def test_injector_requires_the_binding_each_action_needs():
    injector = FaultInjector()
    for action in ("kill-gateway", "restart-gateway"):
        with pytest.raises(ConfigurationError, match="needs a supervisor"):
            injector.apply(FaultSpec(at_s=0.0, action=action, target=0))
    with pytest.raises(ConfigurationError, match="needs a client"):
        injector.apply(FaultSpec(at_s=0.0, action="malformed-request"))


def test_injector_gateway_target_must_be_an_index():
    class Supervisor:
        def kill(self, index):
            return ("127.0.0.1", 0)

    injector = FaultInjector(supervisor=Supervisor())
    with pytest.raises(ConfigurationError, match="slot index"):
        injector.apply(FaultSpec(at_s=0.0, action="kill-gateway", target="gw-zero"))
    record = injector.apply(FaultSpec(at_s=0.0, action="kill-gateway", target=0))
    assert record["outcome"] == "applied"


def test_injector_custom_malformed_sender_and_record_snapshot():
    calls = []
    injector = FaultInjector(send_malformed=lambda: calls.append(1))
    record = injector.apply(FaultSpec(at_s=0.0, action="malformed-request"))
    assert calls == [1] and record["path"] == "custom"
    snapshot = injector.records()
    snapshot[0]["outcome"] = "tampered"
    assert injector.records()[0]["outcome"] == "applied"


def test_injector_slowdown_resolves_index_and_instance_id(image_zoo):
    from repro.serving import ALEMTelemetry, EdgeFleet

    fleet = EdgeFleet.deploy(["raspberry-pi-4", "jetson-tx2"], zoo=image_zoo,
                             telemetry=ALEMTelemetry())
    injector = FaultInjector(fleet=fleet)
    by_index = injector.apply(FaultSpec(at_s=0.0, action="slowdown", target=1, factor=2.0))
    assert by_index["instance_id"] == fleet.instances[1].instance_id
    assert fleet.instances[1].openei.runtime.slowdown == pytest.approx(2.0)
    by_id = injector.apply(FaultSpec(
        at_s=0.0, action="slowdown",
        target=fleet.instances[0].instance_id, factor=1.0,
    ))
    assert by_id["instance_id"] == fleet.instances[0].instance_id
    with pytest.raises(ResourceNotFoundError):
        injector.apply(FaultSpec(at_s=0.0, action="slowdown", target=9))
    assert MALFORMED_PATH.startswith("/")
