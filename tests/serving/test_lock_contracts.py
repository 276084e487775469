"""Regression tests for the concurrency-contract fixes.

Bug classes fixed when the ``repro.analysis`` linter first ran over the
tree each get a behavioral regression test here, plus a lint-based
guard asserting the dispatch-path files stay free of
blocking-under-lock findings.
"""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

import repro.serving.fleet as fleet_module
import repro.serving.server as server_module
from repro.analysis import run_lint
from repro.exceptions import ResourceNotFoundError
from repro.serving.fleet import EdgeFleet
from repro.serving.supervisor import GatewaySupervisor


def test_dispatch_paths_have_no_blocking_under_lock_findings():
    """The dispatch audit, kept machine-checked: the fleet and server
    dispatch paths must never hold a lock across handler execution or
    network I/O."""
    paths = [Path(fleet_module.__file__), Path(server_module.__file__)]
    report = run_lint([str(p) for p in paths], select=["blocking-under-lock"])
    assert report.findings == [], "\n".join(f.render() for f in report.findings)


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
        probed: list = []
        original_stop = target.stop

        def probing_stop() -> None:
            # while the killing thread is inside stop(), a concurrent
            # health probe must get through the supervisor lock: stop()
            # does not go on until the probe has answered
            prober = threading.Thread(target=lambda: probed.append(supervisor.alive(1)))
            prober.start()
            prober.join(timeout=10.0)
            assert not prober.is_alive(), "probe deadlocked behind kill()"
            original_stop()

        target.stop = probing_stop
        supervisor.kill(0)
        assert probed == [True]
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
