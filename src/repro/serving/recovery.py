"""Crash recovery: replay the control-plane WAL back into a live fleet.

A restarted gateway process starts from nothing — an empty deployment
table, empty telemetry windows, no calibration, no rollout claims.  This module
turns the :class:`~repro.core.wal.ControlPlaneJournal` (plus the blob
store behind :meth:`~repro.core.registry.ModelRegistry.recover`) into
the pre-crash control state by a single left-to-right reduction over
the journal, decoded into the same
:class:`~repro.serving.deployments.ControlEvent` records the live
controllers emit:

* the last ``telemetry-window`` snapshot per key (not erased by a later
  ``telemetry-reset``) is restored into :class:`ALEMTelemetry`;
* the last ``calibration`` drift per key (not cleared by a later
  ``calibration-reset``) is restored into the :class:`AdaptiveController`;
* the last ``deploy`` / ``promote`` per ``(scenario, algorithm)`` names
  the fleet-wide baseline, which is re-deployed through the normal
  :meth:`RolloutController.deploy` path unless the fleet's
  :class:`~repro.serving.deployments.DeploymentTable` says every replica
  already serves it;
* an *open* ``lease`` — one no later ``lease-released``, ``promote``,
  ``rollback`` or ``deploy`` resolved — is adjudicated against its
  journaled ``expires_at``: an unexpired lease **resumes** (the recovered
  controller re-runs :meth:`RolloutController.begin` with the journaled
  policy and canary, taking a fresh lease), an expired one is
  **released** with a journaled ``lease-released`` event and the fleet
  stays on the baseline.

Every step is idempotent: recovering twice (the supervisor runs recovery
on :meth:`~repro.serving.supervisor.GatewaySupervisor.start` *and* every
:meth:`~repro.serving.supervisor.GatewaySupervisor.restart`) restores
nothing that live traffic has already refreshed and never re-stages a
rollout that is already in flight.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.registry import ModelRegistry
from repro.core.wal import ControlPlaneJournal
from repro.exceptions import ConfigurationError, ResourceNotFoundError
from repro.serving.deployments import ControlEvent
from repro.serving.rollout import RolloutController, RolloutPolicy

#: Journaled kinds that name the fleet-wide baseline.
_BASELINES = frozenset((ControlPlaneJournal.ROLLOUT_DEPLOY, ControlPlaneJournal.ROLLOUT_PROMOTE))

#: Journaled kinds that resolve an open lease (a deploy supersedes it,
#: exactly as :meth:`RolloutController.deploy` drops the active claim).
_RESOLVES_LEASE = _BASELINES | {
    ControlPlaneJournal.ROLLOUT_ROLLBACK,
    ControlPlaneJournal.ROLLOUT_LEASE_RELEASED,
}


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


def _decode(record: Dict[str, object]) -> ControlEvent:
    """One journal record as the event that wrote it."""
    fields = {k: v for k, v in record.items() if k not in ("type", "ts", "scenario", "algorithm")}
    return ControlEvent(record["type"], record.get("scenario"), record.get("algorithm"), fields)


def _forget(state: Dict[Tuple[str, str, str], object], *wanted: Optional[str]) -> None:
    """Drop every key matching ``wanted`` (``None`` matches anything)."""
    for key in [k for k in state if all(w is None or w == h for w, h in zip(wanted, k))]:
        del state[key]


def _reduce(events: List[ControlEvent]):
    """Fold the journal into last-writer-wins control state.

    Returns ``(snapshots, calibrations, baselines, leases)`` keyed by
    ``(scenario, algorithm, replica)`` / ``(scenario, algorithm)``.
    ``registry-publish`` events belong to :meth:`ModelRegistry.recover`.
    """
    snapshots: Dict[Tuple[str, str, str], Dict[str, object]] = {}
    calibrations: Dict[Tuple[str, str, str], float] = {}
    baselines: Dict[Tuple[str, str], ControlEvent] = {}
    leases: Dict[Tuple[str, str], ControlEvent] = {}
    for event in events:
        kind, fields, pair = event.kind, event.fields, (event.scenario, event.algorithm)
        if kind == ControlPlaneJournal.TELEMETRY_WINDOW:
            snapshots[(*pair, fields["replica"])] = fields
        elif kind == ControlPlaneJournal.TELEMETRY_RESET:
            _forget(snapshots, *pair, fields.get("replica"))
        elif kind == ControlPlaneJournal.CALIBRATION:
            calibrations[(*pair, fields["replica"])] = float(fields["drift"])
        elif kind == ControlPlaneJournal.CALIBRATION_RESET:
            _forget(calibrations, *pair)
        elif kind == ControlPlaneJournal.ROLLOUT_LEASE:
            leases[pair] = event
        elif kind in _RESOLVES_LEASE:
            leases.pop(pair, None)
            if kind in _BASELINES:
                baselines[pair] = event
    return snapshots, calibrations, baselines, leases


def recover_control_plane(
    fleet,
    registry: ModelRegistry,
    journal: ControlPlaneJournal,
    rollout: Optional[RolloutController] = None,
    adaptive=None,
    telemetry=None,
) -> RecoveryReport:
    """Replay the journal into freshly constructed controllers.

    ``registry`` must already be recovered (it consumes its own
    ``registry-publish`` events via :meth:`ModelRegistry.recover`); this
    function restores the *serving* half: telemetry, calibration, the
    fleet baseline and the canary lease.  Components left as ``None``
    are simply skipped, so a telemetry-only process can recover without
    a rollout controller.  A lease has expired when ``fleet.clock.wall()``
    has passed its ``expires_at``: the same clock the rollout controller
    stamped it with.
    """
    events = [_decode(record) for record in journal.replay()]
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
        fields = baseline.fields
        if rollout.in_flight(scenario, algorithm):
            # a live canary explains why the fleet is not uniformly on the
            # baseline; deploying now would stomp the claim mid-rollout
            continue
        if fleet.deployments.serves_everywhere(scenario, algorithm, fields["fingerprint"]):
            continue
        rollout.deploy(scenario, algorithm, fields["name"], version=int(fields["version"]))
        report.deployed.append(str(fields["ref"]))

    for (scenario, algorithm), lease in sorted(leases.items()):
        fields = lease.fields
        if rollout.in_flight(scenario, algorithm):
            continue  # a previous recovery pass (or live traffic) re-claimed it
        if float(fields["expires_at"]) <= fleet.clock.wall():
            # the crashed holder sat on the claim past its TTL: release it
            # durably and leave the fleet on the baseline, instead of
            # leaking the claim made between begin() and the first check()
            reason = "lease-expired"
            report.leases_expired += 1
        else:
            try:
                rollout.begin(
                    scenario,
                    algorithm,
                    version=int(fields["version"]),
                    canary=str(fields["canary"]),
                    policy=RolloutPolicy.from_dict(dict(fields["policy"])),
                )
                report.leases_resumed += 1
                continue
            except (ConfigurationError, ResourceNotFoundError) as exc:
                # the journaled canary no longer exists, or the target
                # already serves: the lease cannot be resumed in this
                # fleet, so it is released rather than left to block
                # every future rollout
                reason = f"unresumable: {type(exc).__name__}"
                report.leases_released += 1
        fleet.deployments.emit(
            ControlPlaneJournal.ROLLOUT_LEASE_RELEASED, scenario, algorithm, journal,
            ref=fields["ref"], canary=fields["canary"], reason=reason,
        )
    return report
