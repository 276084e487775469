"""Regression tests for the concurrency-contract fixes of this PR.

Three bug classes were fixed when the ``repro.analysis`` linter first
ran over the tree; each gets a behavioral regression test here, plus a
lint-based guard asserting the dispatch-path files stay free of
blocking-under-lock findings.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest

import repro.serving.batching as batching_module
import repro.serving.fleet as fleet_module
from repro.analysis import run_lint
from repro.exceptions import ResourceNotFoundError
from repro.serving.batching import BatchingConfig, BatchingDispatcher
from repro.serving.fleet import EdgeFleet
from repro.serving.supervisor import GatewaySupervisor


class _EchoTarget:
    """Minimal LibEITarget: answers with its own arguments."""

    def __init__(self, delay_s: float = 0.0) -> None:
        self.delay_s = delay_s

    def describe(self):
        return {"status": "ok"}

    def get_realtime_data(self, sensor_id):
        return {"sensor": sensor_id}

    def get_historical_data(self, sensor_id, start, end=None):
        return {"sensor": sensor_id}

    def call_algorithm(self, scenario, name, args=None):
        if self.delay_s:
            time.sleep(self.delay_s)
        return {"scenario": scenario, "name": name, "args": dict(args or {})}

    def call_algorithm_batch(self, scenario, name, args_list):
        return [self.call_algorithm(scenario, name, args) for args in args_list]


def test_dispatch_paths_have_no_blocking_under_lock_findings():
    """The satellite-b audit, kept machine-checked: batching and fleet
    dispatch/flush paths must never hold a lock across handler execution
    or network I/O."""
    paths = [Path(batching_module.__file__), Path(fleet_module.__file__)]
    report = run_lint([str(p) for p in paths], select=["blocking-under-lock"])
    assert report.findings == [], "\n".join(f.render() for f in report.findings)


def test_batch_results_are_distributed_under_the_condition():
    """A follower that times out of wait() must never observe a
    half-distributed batch: done implies result/error is fully written.
    The leader now assigns all three fields under queue.cond; hammer the
    dispatcher from many threads and verify every caller got exactly its
    own answer."""
    dispatcher = BatchingDispatcher(
        _EchoTarget(delay_s=0.002),
        config=BatchingConfig(max_batch_size=4, flush_window_s=0.02),
    )
    results: dict = {}
    errors: list = []

    def call(index: int) -> None:
        try:
            response = dispatcher.call_algorithm("scenario", "echo", {"index": index})
            results[index] = response["args"]["index"]
        except BaseException as exc:  # noqa: BLE001 - surfaced via the errors list
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(32)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not errors
    assert results == {i: i for i in range(32)}
    assert dispatcher.stats.requests == 32
    assert dispatcher.stats.batches >= 32 // 4


def _tiny_supervisor() -> GatewaySupervisor:
    fleet = EdgeFleet.deploy(["raspberry-pi-4"])
    return GatewaySupervisor(fleet, gateways=2)


def test_kill_joins_the_server_thread_outside_the_supervisor_lock():
    """kill() used to call gateway.stop() — which joins the HTTP server
    thread — while holding the supervisor lock, stalling every health
    probe behind the shutdown.  Verify another thread can read
    supervisor state while stop() is in flight."""
    supervisor = _tiny_supervisor()
    with supervisor:
        target = supervisor.gateway(0)
        probe_latency: list = []
        original_stop = target.stop

        def probing_stop() -> None:
            # while the killing thread is inside stop(), a concurrent
            # health probe must get through the supervisor lock
            done = threading.Event()

            def probe() -> None:
                start = time.monotonic()
                supervisor.alive(1)
                probe_latency.append(time.monotonic() - start)
                done.set()

            prober = threading.Thread(target=probe)
            prober.start()
            assert done.wait(timeout=2.0), "probe deadlocked behind kill()"
            prober.join(timeout=2.0)
            original_stop()

        target.stop = probing_stop
        supervisor.kill(0)
        assert probe_latency and probe_latency[0] < 1.0
        assert not supervisor.alive(0)
        assert supervisor.kills == 1


def test_restart_claims_the_slot_against_concurrent_restarts():
    """restart() binds the replacement socket outside the lock; the slot
    claim must make a concurrent restart of the same slot fail cleanly
    instead of double-binding the address."""
    supervisor = _tiny_supervisor()
    with supervisor:
        supervisor.kill(1)
        outcomes: list = []

        def restart() -> None:
            try:
                supervisor.restart(1)
                outcomes.append("ok")
            except Exception as exc:  # noqa: BLE001 - the loser records its error
                outcomes.append(type(exc).__name__)

        racers = [threading.Thread(target=restart) for _ in range(2)]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=5.0)
        assert sorted(outcomes) == ["ConfigurationError", "ok"]
        assert supervisor.alive(1)
        assert supervisor.restarts == 1


def test_killed_slot_raises_until_restarted():
    supervisor = _tiny_supervisor()
    with supervisor:
        address = supervisor.kill(0)
        assert address == supervisor.addresses[0]
        with pytest.raises(ResourceNotFoundError):
            supervisor.gateway(0)
        supervisor.restart(0)
        assert supervisor.alive(0)
