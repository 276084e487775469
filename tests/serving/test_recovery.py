"""Control-plane recovery: WAL replay reconstructs the serving state.

Simulated-crash tests for :mod:`repro.serving.recovery`: each test
builds a "first life" (store + journal + fleet + controllers), drops the
in-memory objects on the floor — exactly what ``kill -9`` leaves behind
is the on-disk store and WAL — and then builds a "second life" from the
same directories, proving the recovered controllers converge to the
pre-crash fleet state.  The true-SIGKILL variants live in
``tests/core/test_crash_recovery.py`` and ``tests/serving/test_chaos.py``.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.clock import SYSTEM_CLOCK, ManualClock
from repro.core import ALEMRequirement, BlobStore, ControlPlaneJournal, ModelRegistry, ModelZoo
from repro.nn.layers import Dense, ReLU, Softmax
from repro.nn.model import Sequential
from repro.serving import (
    ALEMTelemetry,
    AdaptiveController,
    EdgeFleet,
    RolloutController,
    RolloutPolicy,
    recover_control_plane,
)
from repro.serving.rollout import LEASE_TTL_S
from repro.serving.telemetry import JOURNAL_EVERY

SCENARIO, ALGORITHM = "safety", "classify"
MODEL = "safety-classifier"
FLEET = ["raspberry-pi-4", "jetson-tx2"]


def _classifier(scale: float = 1.0) -> Sequential:
    model = Sequential(
        [Dense(6, 8, seed=0), ReLU(), Dense(8, 3, seed=1), Softmax()], name=MODEL
    )
    model.layers[2].params["W"][...] *= scale
    return model


def _publish(registry: ModelRegistry, accuracy: float, scale: float = 1.0):
    return registry.publish(
        MODEL, _classifier(scale), task="image-classification",
        input_shape=(6,), scenario=SCENARIO, accuracy=accuracy,
    )


def _life(root, recovered: bool = False, clock=SYSTEM_CLOCK):
    """One process life over the durable directories under ``root``."""
    store = BlobStore(root / "store")
    journal = ControlPlaneJournal(root / "control.wal")
    if recovered:
        registry = ModelRegistry.recover(store, journal)
    else:
        registry = ModelRegistry(store=store, journal=journal)
    telemetry = ALEMTelemetry(window_size=32, journal=journal)
    fleet = EdgeFleet.deploy(list(FLEET), zoo=ModelZoo(), telemetry=telemetry, clock=clock)
    rollout = RolloutController(fleet, registry, journal=journal)
    return store, journal, registry, telemetry, fleet, rollout


def _serving(fleet):
    """The key's records, one per replica; something must be deployed."""
    records = fleet.deployments.records(SCENARIO, ALGORITHM)
    assert records, f"nothing deployed for {SCENARIO}/{ALGORITHM}"
    return records


def _assert_recovery_idempotent(fleet, registry, journal, **controllers) -> None:
    """A second recovery pass over the same journal restores nothing."""
    before = fleet.deployments.snapshot()
    report = recover_control_plane(fleet, registry, journal, **controllers)
    assert report.deployed == []
    assert report.leases_resumed == report.leases_expired == report.leases_released == 0
    assert report.telemetry_restored == report.calibrations_restored == 0
    assert fleet.deployments.snapshot() == before


def _first_life_with_lease(root, clock=SYSTEM_CLOCK) -> str:
    """Publish v1+v2, deploy v1, begin a v2 canary — then 'crash'.

    The crash window is the satellite-4 regression: the process dies
    between ``begin()`` and the first ``check()``, when the only record
    of the claim is the journaled lease.  Returns the canary id.
    """
    _, journal, registry, _, fleet, rollout = _life(root, clock=clock)
    _publish(registry, accuracy=0.95)
    _publish(registry, accuracy=0.97, scale=1.01)
    rollout.deploy(SCENARIO, ALGORITHM, MODEL, version=1)
    event = rollout.begin(
        SCENARIO, ALGORITHM, version=2,
        policy=RolloutPolicy(min_samples=2, healthy_checks=2),
    )
    journal.close()  # the OS would close the fd on kill -9 anyway
    return event.fields["canary"]


def test_unexpired_lease_resumes_the_same_canary(tmp_path):
    canary = _first_life_with_lease(tmp_path)

    _, journal, registry, _, fleet, rollout = _life(tmp_path, recovered=True)
    report = recover_control_plane(fleet, registry, journal, rollout=rollout)

    assert report.deployed == [f"{MODEL}@1"]
    assert report.leases_resumed == 1
    assert report.leases_expired == 0
    status = rollout.describe()["rollouts"][f"{SCENARIO}/{ALGORITHM}"]
    assert status["stage"] == "canary"
    assert status["target"] == f"{MODEL}@2"
    # instance ids are deterministic, so the recovered fleet resumes the
    # rollout on the SAME replica the crashed process canaried
    assert status["canary"] == canary
    # the policy round-tripped through the journal
    assert status["min_samples"] == 2 and status["healthy_checks"] == 2
    # the rest of the fleet stayed on the baseline
    for entry in _serving(fleet):
        expected = 2 if entry.instance_id == canary else 1
        assert entry.version.version == expected
    _assert_recovery_idempotent(fleet, registry, journal, rollout=rollout)


def test_expired_lease_is_released_and_fleet_stays_on_baseline(tmp_path):
    clock = ManualClock()
    _first_life_with_lease(tmp_path, clock=clock)

    clock.advance(LEASE_TTL_S + 1.0)  # the restart comes after the TTL
    _, journal, registry, _, fleet, rollout = _life(tmp_path, recovered=True, clock=clock)
    report = recover_control_plane(fleet, registry, journal, rollout=rollout)

    assert report.leases_resumed == 0
    assert report.leases_expired == 1
    assert f"{SCENARIO}/{ALGORITHM}" not in rollout.describe()["rollouts"]
    assert all(
        e.version.version == 1 for e in _serving(fleet)
    )
    # the release itself was journaled: the NEXT recovery sees a resolved
    # lease and does not adjudicate it again
    _, journal2, registry2, _, fleet2, rollout2 = _life(tmp_path, recovered=True)
    report2 = recover_control_plane(fleet2, registry2, journal2, rollout=rollout2)
    assert report2.leases_resumed == 0 and report2.leases_expired == 0
    _assert_recovery_idempotent(fleet, registry, journal, rollout=rollout)
    _assert_recovery_idempotent(fleet2, registry2, journal2, rollout=rollout2)
    journal2.close()
    journal.close()


def test_promoted_rollout_recovers_promoted_with_no_double_promote(tmp_path):
    _, journal, registry, telemetry, fleet, rollout = _life(tmp_path)
    _publish(registry, accuracy=0.95)
    _publish(registry, accuracy=0.97, scale=1.01)
    rollout.deploy(SCENARIO, ALGORITHM, MODEL, version=1)
    rollout.begin(
        SCENARIO, ALGORITHM, version=2,
        policy=RolloutPolicy(min_samples=2, healthy_checks=1),
    )
    canary = rollout.describe()["rollouts"][f"{SCENARIO}/{ALGORITHM}"]["canary"]
    for _ in range(3):
        telemetry.record(SCENARIO, ALGORITHM, canary, latency_s=0.01, accuracy=0.97)
    promoted = rollout.check(SCENARIO, ALGORITHM)
    assert promoted is not None and promoted.kind == "promote"
    journal.close()

    _, journal2, registry2, _, fleet2, rollout2 = _life(tmp_path, recovered=True)
    report = recover_control_plane(fleet2, registry2, journal2, rollout=rollout2)
    # the promote resolved the lease: recovery re-deploys v2 as the
    # baseline and must NOT re-stage (double-promote) the rollout
    assert report.deployed == [f"{MODEL}@2"]
    assert report.leases_resumed == 0 and report.leases_expired == 0
    assert all(
        e.version.version == 2 for e in _serving(fleet2)
    )
    assert rollout2.stats.promotions == 0
    _assert_recovery_idempotent(fleet2, registry2, journal2, rollout=rollout2)
    journal2.close()


def test_rolled_back_rollout_recovers_on_the_baseline(tmp_path):
    _, journal, registry, telemetry, fleet, rollout = _life(tmp_path)
    _publish(registry, accuracy=0.95)
    _publish(registry, accuracy=0.50, scale=1.01)  # a bad build
    rollout.deploy(SCENARIO, ALGORITHM, MODEL, version=1)
    rollout.begin(
        SCENARIO, ALGORITHM, version=2,
        policy=RolloutPolicy(
            requirement=ALEMRequirement(min_accuracy=0.9),
            min_samples=2, healthy_checks=1,
        ),
    )
    canary = rollout.describe()["rollouts"][f"{SCENARIO}/{ALGORITHM}"]["canary"]
    for _ in range(3):
        telemetry.record(SCENARIO, ALGORITHM, canary, latency_s=0.01, accuracy=0.5)
    event = rollout.check(SCENARIO, ALGORITHM)
    assert event is not None and event.kind == "rollback"
    journal.close()

    _, journal2, registry2, _, fleet2, rollout2 = _life(tmp_path, recovered=True)
    report = recover_control_plane(fleet2, registry2, journal2, rollout=rollout2)
    # the rollback resolved the lease; the fleet converges on v1
    assert report.deployed == [f"{MODEL}@1"]
    assert report.leases_resumed == 0
    assert all(
        e.version.version == 1 for e in _serving(fleet2)
    )
    _assert_recovery_idempotent(fleet2, registry2, journal2, rollout=rollout2)
    journal2.close()


def test_telemetry_windows_recover_but_never_clobber_live_observations(tmp_path):
    _, journal, _, telemetry, _, _ = _life(tmp_path)
    for i in range(2 * JOURNAL_EVERY):  # → two snapshots journaled
        telemetry.record(SCENARIO, ALGORITHM, "edge-0@raspberry-pi-4",
                         latency_s=0.02 + i * 0.001, accuracy=0.9)
    before = telemetry.window(SCENARIO, ALGORITHM, "edge-0@raspberry-pi-4")
    journal.close()

    _, journal2, registry2, telemetry2, fleet2, rollout2 = _life(
        tmp_path, recovered=True
    )
    report = recover_control_plane(
        fleet2, registry2, journal2, rollout=rollout2,
        telemetry=telemetry2,
    )
    assert report.telemetry_restored == 1
    after = telemetry2.window(SCENARIO, ALGORITHM, "edge-0@raspberry-pi-4")
    assert after is not None
    assert after.total_observations == before.total_observations
    assert after.mean("latency_s") == pytest.approx(before.mean("latency_s"))

    # live traffic after recovery wins over any further replay
    telemetry2.record(SCENARIO, ALGORITHM, "edge-0@raspberry-pi-4", latency_s=9.9)
    report2 = recover_control_plane(
        fleet2, registry2, journal2, rollout=rollout2, telemetry=telemetry2,
    )
    assert report2.telemetry_restored == 0
    live = telemetry2.window(SCENARIO, ALGORITHM, "edge-0@raspberry-pi-4")
    assert live.count("latency_s") == before.count("latency_s") + 1
    _assert_recovery_idempotent(
        fleet2, registry2, journal2, rollout=rollout2, telemetry=telemetry2
    )
    journal2.close()


def test_journaled_telemetry_never_fsyncs_on_the_recording_thread(tmp_path, monkeypatch):
    """Regression: a telemetry snapshot rides a request-handler thread, so
    its journal append must not fsync inline — that fsync would be tail
    latency for live traffic (the serving_tail bench's p99)."""
    import repro.core.wal as wal_module

    _, journal, _, telemetry, _, _ = _life(tmp_path)
    calls = []
    real_fsync = wal_module.os.fsync
    monkeypatch.setattr(wal_module.os, "fsync",
                        lambda fd: (calls.append(fd), real_fsync(fd)))
    for i in range(2 * JOURNAL_EVERY):  # → two snapshots journaled
        telemetry.record(SCENARIO, ALGORITHM, "edge-0@raspberry-pi-4",
                         latency_s=0.02 + i * 0.001)
    telemetry.reset(SCENARIO, ALGORITHM)
    assert calls == []  # snapshots and resets landed without one fsync
    # the snapshots are still on disk for recovery (page-cache durable)
    types = [r["type"] for r in journal.replay()]
    assert types.count(ControlPlaneJournal.TELEMETRY_WINDOW) == 2
    assert types.count(ControlPlaneJournal.TELEMETRY_RESET) == 1
    journal.close()
    assert len(calls) == 1  # close hardened the pending relaxed records


def test_calibration_drift_recovers_into_the_adaptive_controller(tmp_path):
    _, journal, _, _, fleet, _ = _life(tmp_path)
    # journal two calibration events directly (the drift values a crashed
    # controller had learned); last-writer-wins per key
    journal.append(
        ControlPlaneJournal.CALIBRATION, scenario=SCENARIO, algorithm=ALGORITHM,
        replica="edge-0@raspberry-pi-4", drift=2.0,
    )
    journal.append(
        ControlPlaneJournal.CALIBRATION, scenario=SCENARIO, algorithm=ALGORITHM,
        replica="edge-0@raspberry-pi-4", drift=3.5,
    )
    journal.close()

    _, journal2, registry2, telemetry2, fleet2, _ = _life(tmp_path, recovered=True)
    adaptive = AdaptiveController(fleet2, telemetry=telemetry2, journal=journal2)
    report = recover_control_plane(
        fleet2, registry2, journal2, adaptive=adaptive, telemetry=telemetry2,
    )
    assert report.calibrations_restored == 1
    key = (SCENARIO, ALGORITHM, "edge-0@raspberry-pi-4")
    assert adaptive._calibration[key] == 3.5
    # restoring again is a no-op: the live value is fresher by definition
    report2 = recover_control_plane(
        fleet2, registry2, journal2, adaptive=adaptive, telemetry=telemetry2,
    )
    assert report2.calibrations_restored == 0
    _assert_recovery_idempotent(
        fleet2, registry2, journal2, adaptive=adaptive, telemetry=telemetry2
    )
    journal2.close()


def test_calibration_reset_is_not_undone_by_recovery(tmp_path):
    """Drift an operator cleared stays cleared across a restart."""
    _, journal, _, telemetry, fleet, _ = _life(tmp_path)
    adaptive = AdaptiveController(fleet, telemetry=telemetry, journal=journal)
    for scenario, drift in ((SCENARIO, 2.0), ("home", 3.0)):
        journal.append(
            ControlPlaneJournal.CALIBRATION, scenario=scenario, algorithm=ALGORITHM,
            replica="edge-0@raspberry-pi-4", drift=drift,
        )
    adaptive.reset_calibration(SCENARIO)  # the device was serviced
    journal.close()

    _, journal2, registry2, telemetry2, fleet2, _ = _life(tmp_path, recovered=True)
    adaptive2 = AdaptiveController(fleet2, telemetry=telemetry2, journal=journal2)
    report = recover_control_plane(
        fleet2, registry2, journal2, adaptive=adaptive2, telemetry=telemetry2,
    )
    assert report.calibrations_restored == 1
    assert adaptive2._calibration == {("home", ALGORITHM, "edge-0@raspberry-pi-4"): 3.0}
    _assert_recovery_idempotent(
        fleet2, registry2, journal2, adaptive=adaptive2, telemetry=telemetry2
    )
    journal2.close()


def test_lease_for_unknown_canary_is_released_not_fatal(tmp_path):
    _first_life_with_lease(tmp_path)

    # the restarted deployment is SMALLER: the canary replica is gone
    store = BlobStore(tmp_path / "store")
    journal = ControlPlaneJournal(tmp_path / "control.wal")
    registry = ModelRegistry.recover(store, journal)
    telemetry = ALEMTelemetry(window_size=16)
    fleet = EdgeFleet.deploy(["jetson-tx2"], zoo=ModelZoo(), telemetry=telemetry)
    rollout = RolloutController(fleet, registry, journal=journal)

    report = recover_control_plane(fleet, registry, journal, rollout=rollout)
    assert report.leases_resumed == 0
    assert report.leases_released == 1
    assert all(
        e.version.version == 1 for e in _serving(fleet)
    )
    _assert_recovery_idempotent(fleet, registry, journal, rollout=rollout)
    journal.close()


def test_supervisor_runs_recovery_on_start_and_restart(tmp_path):
    from repro.serving import GatewaySupervisor

    _first_life_with_lease(tmp_path)

    _, journal, registry, telemetry, fleet, rollout = _life(tmp_path, recovered=True)
    reports = []

    def recovery():
        reports.append(
            recover_control_plane(fleet, registry, journal, rollout=rollout)
        )
        return reports[-1]

    with GatewaySupervisor(fleet, gateways=2, recovery=recovery) as supervisor:
        assert supervisor.recoveries == 1
        assert reports[0].leases_resumed == 1  # restart-into-recovery, not blank slate
        supervisor.kill(0)
        supervisor.restart(0)
        assert supervisor.recoveries == 2
        # the second pass found everything already converged
        assert reports[1].deployed == []
        assert reports[1].leases_resumed == 0
        assert supervisor.describe()["recoveries"] == 2
    _assert_recovery_idempotent(fleet, registry, journal, rollout=rollout)
    journal.close()
