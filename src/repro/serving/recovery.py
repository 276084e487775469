"""Crash recovery: replay the control-plane WAL back into a live fleet.

A restarted gateway process starts from nothing — an empty deployment
table, empty telemetry windows, no calibration, no rollout claims.  This module
turns the :class:`~repro.core.wal.ControlPlaneJournal` (plus the blob
store behind :meth:`~repro.core.registry.ModelRegistry.recover`) into
the pre-crash control state by a single left-to-right reduction over
the journal:

* the last ``telemetry-window`` snapshot per key (not erased by a later
  ``telemetry-reset``) is restored into :class:`ALEMTelemetry`;
* the last ``calibration`` drift per key is restored into the
  :class:`AdaptiveController`;
* the last ``rollout-deploy`` / ``rollout-promote`` per
  ``(scenario, algorithm)`` names the fleet-wide baseline, which is
  re-deployed through the normal :meth:`RolloutController.deploy` path
  unless the fleet's :class:`~repro.serving.deployments.DeploymentTable`
  says every replica already serves it;
* an *open* ``rollout-lease`` — one with no later release, promote or
  rollback — is adjudicated against its journaled ``expires_at``: an
  unexpired lease **resumes** (the recovered controller re-runs
  :meth:`RolloutController.begin` with the journaled policy and canary,
  taking a fresh lease), an expired one is **released** with a journaled
  ``rollout-lease-released`` event and the fleet stays on the baseline.

Every step is idempotent: recovering twice (the supervisor runs recovery
on :meth:`~repro.serving.supervisor.GatewaySupervisor.start` *and* every
:meth:`~repro.serving.supervisor.GatewaySupervisor.restart`) restores
nothing that live traffic has already refreshed and never re-stages a
rollout that is already in flight.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.registry import ModelRegistry
from repro.core.wal import ControlPlaneJournal
from repro.exceptions import ConfigurationError, ResourceNotFoundError
from repro.serving.rollout import RolloutController, RolloutPolicy


@dataclass
class RecoveryReport:
    """What one :func:`recover_control_plane` pass actually restored."""

    events_replayed: int = 0
    #: refs re-deployed as fleet baselines, in journal order
    deployed: List[str] = field(default_factory=list)
    leases_resumed: int = 0
    leases_expired: int = 0
    #: open leases released for a reason other than expiry (canary gone,
    #: target already serving, baseline missing)
    leases_released: int = 0
    telemetry_restored: int = 0
    calibrations_restored: int = 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


def _reduce(events: List[Dict[str, object]]):
    """Fold the journal into last-writer-wins control state.

    Returns ``(snapshots, calibrations, baselines, leases)`` keyed by
    ``(scenario, algorithm, replica)`` / ``(scenario, algorithm)``.
    """
    snapshots: Dict[Tuple[str, str, str], Dict[str, object]] = {}
    calibrations: Dict[Tuple[str, str, str], float] = {}
    baselines: Dict[Tuple[str, str], Dict[str, object]] = {}
    leases: Dict[Tuple[str, str], Dict[str, object]] = {}
    for event in events:
        kind = event.get("type")
        if kind == ControlPlaneJournal.TELEMETRY_WINDOW:
            key = (event["scenario"], event["algorithm"], event["replica"])
            snapshots[key] = event
        elif kind == ControlPlaneJournal.TELEMETRY_RESET:
            scenario, algorithm = event["scenario"], event["algorithm"]
            replica = event.get("replica")
            for key in list(snapshots):
                if key[0] == scenario and key[1] == algorithm and (
                    replica is None or key[2] == replica
                ):
                    del snapshots[key]
        elif kind == ControlPlaneJournal.CALIBRATION:
            key = (event["scenario"], event["algorithm"], event["replica"])
            calibrations[key] = float(event["drift"])
        elif kind == ControlPlaneJournal.ROLLOUT_DEPLOY:
            pair = (event["scenario"], event["algorithm"])
            baselines[pair] = event
            # an explicit deploy supersedes whatever rollout was in
            # flight, exactly as deploy() drops the active claim
            leases.pop(pair, None)
        elif kind == ControlPlaneJournal.ROLLOUT_LEASE:
            leases[(event["scenario"], event["algorithm"])] = event
        elif kind == ControlPlaneJournal.ROLLOUT_LEASE_RELEASED:
            leases.pop((event["scenario"], event["algorithm"]), None)
        elif kind == ControlPlaneJournal.ROLLOUT_PROMOTE:
            pair = (event["scenario"], event["algorithm"])
            baselines[pair] = event
            leases.pop(pair, None)
        elif kind == ControlPlaneJournal.ROLLOUT_ROLLBACK:
            leases.pop((event["scenario"], event["algorithm"]), None)
        # REGISTRY_PUBLISH events belong to ModelRegistry.recover()
    return snapshots, calibrations, baselines, leases


def recover_control_plane(
    fleet,
    registry: ModelRegistry,
    journal: ControlPlaneJournal,
    rollout: Optional[RolloutController] = None,
    adaptive=None,
    telemetry=None,
    now: Callable[[], float] = time.time,
) -> RecoveryReport:
    """Replay the journal into freshly constructed controllers.

    ``registry`` must already be recovered (it consumes its own
    ``registry-publish`` events via :meth:`ModelRegistry.recover`); this
    function restores the *serving* half: telemetry, calibration, the
    fleet baseline and the canary lease.  Components left as ``None``
    are simply skipped, so a telemetry-only process can recover without
    a rollout controller.
    """
    events = journal.replay()
    report = RecoveryReport(events_replayed=len(events))
    snapshots, calibrations, baselines, leases = _reduce(events)

    # telemetry first: a resumed canary below is judged against restored
    # windows, and restore_window() refuses to clobber live observations
    if telemetry is None and rollout is not None:
        telemetry = rollout.telemetry
    if telemetry is not None:
        for (scenario, algorithm, replica), snapshot in sorted(snapshots.items()):
            restored = telemetry.restore_window(
                scenario,
                algorithm,
                replica,
                samples={
                    axis: list(values)
                    for axis, values in dict(snapshot["samples"]).items()
                },
                total_observations=int(snapshot["total_observations"]),
            )
            if restored:
                report.telemetry_restored += 1

    if adaptive is not None and calibrations:
        report.calibrations_restored = adaptive.restore_calibration(
            sorted(calibrations.items())
        )

    if rollout is None:
        return report

    for (scenario, algorithm), baseline in sorted(baselines.items()):
        if rollout.in_flight(scenario, algorithm):
            # a live canary explains why the fleet is not uniformly on the
            # baseline; deploying now would stomp the claim mid-rollout
            continue
        if fleet.deployments.serves_everywhere(scenario, algorithm, baseline["fingerprint"]):
            continue
        rollout.deploy(
            scenario, algorithm, baseline["name"], version=int(baseline["version"])
        )
        report.deployed.append(str(baseline["ref"]))

    for (scenario, algorithm), lease in sorted(leases.items()):
        if rollout.in_flight(scenario, algorithm):
            continue  # a previous recovery pass (or live traffic) re-claimed it
        if float(lease["expires_at"]) <= now():
            # the crashed holder sat on the claim past its TTL: release it
            # durably and leave the fleet on the baseline — satellite fix
            # for the claim leaked between begin() and the first check()
            journal.append(
                ControlPlaneJournal.ROLLOUT_LEASE_RELEASED,
                scenario=scenario,
                algorithm=algorithm,
                ref=lease["ref"],
                canary=lease["canary"],
                reason="lease-expired",
            )
            report.leases_expired += 1
            continue
        try:
            rollout.begin(
                scenario,
                algorithm,
                version=int(lease["version"]),
                canary=str(lease["canary"]),
                policy=RolloutPolicy.from_dict(dict(lease["policy"])),
            )
            report.leases_resumed += 1
        except (ConfigurationError, ResourceNotFoundError) as exc:
            # the journaled canary no longer exists, or the target already
            # serves: the lease cannot be resumed in this fleet, so it is
            # released rather than left to block every future rollout
            journal.append(
                ControlPlaneJournal.ROLLOUT_LEASE_RELEASED,
                scenario=scenario,
                algorithm=algorithm,
                ref=lease["ref"],
                canary=lease["canary"],
                reason=f"unresumable: {type(exc).__name__}",
            )
            report.leases_released += 1
    return report
