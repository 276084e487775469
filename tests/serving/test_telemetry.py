"""Tests for the sliding-window ALEM telemetry collector."""

import threading

import pytest

from repro.core.alem import ALEMRequirement
from repro.exceptions import ConfigurationError
from repro.serving import ALEMTelemetry
from repro.serving.telemetry import OBSERVED_ALEM_KEY, TelemetryWindow


def test_window_slides_and_averages():
    window = TelemetryWindow(maxlen=3)
    for latency in (1.0, 2.0, 3.0, 4.0):
        window.record(latency_s=latency)
    # only the newest 3 samples remain: mean of (2, 3, 4)
    assert window.count("latency_s") == 3
    assert window.mean("latency_s") == pytest.approx(3.0)
    assert window.total_observations == 4


def test_window_neutral_axes_never_violate():
    window = TelemetryWindow(maxlen=4)
    window.record(latency_s=0.5)
    requirement = ALEMRequirement(
        min_accuracy=0.99, max_latency_s=0.1, max_energy_j=1e-9, max_memory_mb=1e-9
    )
    # only the measured axis (latency) can violate; unmeasured axes take
    # neutral values (accuracy 1.0, costs 0.0) and stay silent
    assert set(window.violations(requirement)) == {"latency"}
    observed = window.observed_alem()
    assert observed.accuracy == 1.0
    assert observed.energy_j == 0.0 and observed.memory_mb == 0.0


def test_window_rejects_unknown_axis_and_clips_accuracy():
    window = TelemetryWindow(maxlen=4)
    with pytest.raises(ConfigurationError):
        window.record(throughput=12.0)
    window.record(accuracy=1.7)  # a noisy >1 measurement must not crash ALEM
    assert window.observed_alem().accuracy == 1.0


def test_record_result_prefers_reported_measurements_over_wall_clock():
    telemetry = ALEMTelemetry(window_size=8)
    telemetry.record_result(
        "home", "power_monitor", "edge-0",
        {OBSERVED_ALEM_KEY: {"latency_s": 2.0, "accuracy": 0.75}},
        wall_latency_s=0.001,
    )
    observed = telemetry.observed("home", "power_monitor", "edge-0")
    assert observed.latency_s == pytest.approx(2.0)
    assert observed.accuracy == pytest.approx(0.75)


def test_record_result_falls_back_to_wall_clock():
    telemetry = ALEMTelemetry(window_size=8)
    telemetry.record_result("home", "power_monitor", "edge-0", {}, wall_latency_s=0.25)
    assert telemetry.observed("home", "power_monitor", "edge-0").latency_s == pytest.approx(0.25)
    # nothing measurable at all: no window is created
    telemetry.record_result("home", "power_monitor", "edge-1", {})
    assert telemetry.observed("home", "power_monitor", "edge-1") is None


def test_per_replica_windows_and_reset():
    telemetry = ALEMTelemetry(window_size=4)
    telemetry.record("safety", "detection", "edge-0", latency_s=0.1)
    telemetry.record("safety", "detection", "edge-1", latency_s=0.9)
    assert telemetry.observed("safety", "detection", "edge-0").latency_s == pytest.approx(0.1)
    telemetry.reset("safety", "detection", "edge-0")
    assert telemetry.observed("safety", "detection", "edge-0") is not None  # key survives
    assert telemetry.window("safety", "detection", "edge-0").count("latency_s") == 0
    assert telemetry.window("safety", "detection", "edge-1").count("latency_s") == 1


def test_describe_is_json_shaped():
    import json

    telemetry = ALEMTelemetry(window_size=4)
    telemetry.record("home", "power_monitor", "edge-0", latency_s=0.2, accuracy=0.9)
    description = telemetry.describe()
    assert description["window_size"] == 4
    assert description["tracked_keys"] == 1
    json.dumps(description)  # /ei_status must be able to serialize it


def test_validation():
    with pytest.raises(ConfigurationError):
        ALEMTelemetry(window_size=0)


def test_window_reads_are_snapshots():
    # regression: window() used to hand out the live object, so the
    # controller iterated deques that handler threads were appending to
    telemetry = ALEMTelemetry(window_size=4)
    telemetry.record("home", "power_monitor", "edge-0", latency_s=0.1)
    snapshot = telemetry.window("home", "power_monitor", "edge-0")
    telemetry.record("home", "power_monitor", "edge-0", latency_s=9.9)
    assert snapshot.mean("latency_s") == pytest.approx(0.1)
    snapshot.clear()  # mutating the snapshot must not touch the collector
    assert telemetry.window("home", "power_monitor", "edge-0").count("latency_s") == 2


def test_concurrent_read_during_recording_is_safe():
    telemetry = ALEMTelemetry(window_size=32)
    requirement = ALEMRequirement(max_latency_s=0.05)
    errors = []
    stop = threading.Event()

    def writer() -> None:
        try:
            n = 0
            while not stop.is_set():
                telemetry.record("home", "power_monitor", "edge-0", latency_s=0.001 * (n % 90))
                n += 1
        except Exception as exc:  # noqa: BLE001 - any escape fails the test
            errors.append(exc)

    def reader() -> None:
        try:
            for _ in range(2000):
                window = telemetry.window("home", "power_monitor", "edge-0")
                if window is not None:
                    window.violations(requirement)  # iterates the deques
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    writers = [threading.Thread(target=writer) for _ in range(3)]
    readers = [threading.Thread(target=reader) for _ in range(2)]
    for thread in writers + readers:
        thread.start()
    for thread in readers:
        thread.join()
    stop.set()
    for thread in writers:
        thread.join()
    assert errors == []


def test_concurrent_recording_is_safe():
    telemetry = ALEMTelemetry(window_size=16)
    errors = []

    def worker(replica: int) -> None:
        try:
            for n in range(200):
                telemetry.record("home", "power_monitor", f"edge-{replica % 2}",
                                 latency_s=0.001 * n)
        except Exception as exc:  # noqa: BLE001 - any escape fails the test
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert telemetry.window("home", "power_monitor", "edge-0").count("latency_s") == 16
