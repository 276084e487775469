"""Zero-downtime fleet rollouts: publish → canary → promote / rollback.

The :class:`~repro.core.registry.ModelRegistry` gives models versions;
this module makes a *new* version safe to push across a live fleet.  A
:class:`RolloutController` drives the rollout state machine, proposing
each transition to the fleet's one
:class:`~repro.serving.deployments.DeploymentTable` (which holds what
every replica currently serves for a ``(scenario, algorithm)``):

1. **deploy** — install a registry version fleet-wide as the serving
   baseline.  Every replica pulls its own private copy of the artifact
   (replicas never share mutable model objects), the shared zoo entry is
   refreshed so Eq. (1) selection and the adaptive controller see the
   same build, and the table's handler is registered through the
   existing ``register_algorithm`` path.
2. **canary** (:meth:`begin`) — stage the candidate version on one
   replica only.  Its telemetry window is reset so the candidate is
   judged on its own observations, while the rest of the fleet keeps
   serving the baseline.
3. **watch** (:meth:`step`) — each control cycle reads the canary's
   observed ALEM window (the PR-3 telemetry the adaptive controller also
   uses) against the rollout policy's
   :class:`~repro.core.alem.ALEMRequirement`.  A confirmed violation
   **rolls back** the canary to the baseline; ``healthy_checks``
   consecutive clean windows of at least ``min_samples`` observations
   **promote** the candidate fleet-wide.
4. **promote / rollback** — both are hot swaps: the deployment table
   flips under its lock, in-flight requests finish on the immutable
   record they already resolved, and the next request sees the new
   version.  No sockets close, no handler re-registration, nothing
   drops.  Engine plans recompile automatically because every pulled
   copy is a fresh :class:`~repro.nn.model.Sequential` whose structural
   fingerprint no longer matches any cached plan.

Transfer costs are accounted per replica against what it already held
(:meth:`~repro.core.registry.ModelRegistry.delta_bytes`), so rollout
events report how many bytes the version push actually moved.  Every
transition is one :class:`~repro.serving.deployments.ControlEvent`,
emitted through the table: kept for ``/ei_status``, journaled when
durable, and returned to the caller.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.alem import ALEM, ALEMRequirement
from repro.core.registry import ModelRegistry, ModelVersion
from repro.core.wal import ControlPlaneJournal
from repro.exceptions import ConfigurationError, ResourceNotFoundError
from repro.serving.deployments import ControlEvent, Deployment
from repro.serving.telemetry import ALEMTelemetry

#: TTL of a canary claim, on the fleet's wall clock: a crashed process
#: cannot hold the rollout slot forever, because recovery releases any
#: journaled lease whose ``expires_at`` has passed.
LEASE_TTL_S = 300.0


@dataclass(frozen=True)
class RolloutPolicy:
    """Health criteria for promoting a canaried version.

    ``requirement`` is evaluated on the canary's *measured* ALEM window;
    each health check needs at least ``min_samples`` windowed latency
    observations, and ``healthy_checks`` consecutive clean checks (each
    on a fresh window) promote.  A confirmed violation rolls back
    immediately — a canary is cheap, a degraded fleet is not.
    """

    requirement: ALEMRequirement = field(default_factory=ALEMRequirement)
    min_samples: int = 5
    healthy_checks: int = 2

    def __post_init__(self) -> None:
        if self.min_samples <= 0:
            raise ConfigurationError("min_samples must be positive")
        if self.healthy_checks <= 0:
            raise ConfigurationError("healthy_checks must be positive")

    def as_dict(self) -> Dict[str, object]:
        """Lossless serialization for the rollout-lease journal record."""
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "RolloutPolicy":
        """Rebuild a policy from its journaled form (recovery path)."""
        return cls(
            requirement=ALEMRequirement(**dict(record.get("requirement") or {})),
            min_samples=int(record["min_samples"]),
            healthy_checks=int(record["healthy_checks"]),
        )


@dataclass
class _ActiveRollout:
    """Book-keeping for one in-flight canary."""

    target: ModelVersion
    canary_id: str
    policy: RolloutPolicy
    baseline: Deployment  # guarded-by: _lock (what the canary served before staging)
    healthy_streak: int = 0  # guarded-by: _lock
    stage: str = "canary"  # guarded-by: _lock ("staging" | "canary" | "promoting" | "promoted" | "rolled-back")
    #: Lease bounds journaled when the claim was granted; after a crash,
    #: recovery resumes an unexpired lease and releases an expired one.
    granted_at: float = 0.0
    expires_at: float = 0.0
    #: True while one check() judges this canary's window — a concurrent
    #: check must not count the same window into healthy_streak twice.
    judging: bool = False  # guarded-by: _lock


@dataclass
class RolloutStats:
    """Counters surfaced through ``/ei_status``."""

    deploys: int = 0
    canaries: int = 0
    checks: int = 0
    promotions: int = 0
    rollbacks: int = 0
    #: staging or promotion attempts that died on an exception (the
    #: exception is re-raised to the caller *and* recorded here)
    failures: int = 0
    bytes_transferred: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class RolloutController:
    """The versioned deploy → canary → promote/rollback policy loop."""

    def __init__(
        self,
        fleet,
        registry: ModelRegistry,
        telemetry: Optional[ALEMTelemetry] = None,
        journal: Optional[ControlPlaneJournal] = None,
    ) -> None:
        self.fleet = fleet
        self.registry = registry
        self.journal = journal
        telemetry = telemetry if telemetry is not None else getattr(fleet, "telemetry", None)
        if telemetry is None:
            raise ConfigurationError(
                "RolloutController needs telemetry to judge canaries: pass one, "
                "or deploy the fleet with telemetry attached"
            )
        self.telemetry = telemetry
        self.stats = RolloutStats()  # guarded-by: _lock
        self._lock = threading.RLock()
        self._rollouts: Dict[Tuple[str, str], _ActiveRollout] = {}  # guarded-by: _lock
        fleet.rollout = self

    # -- installing entries ------------------------------------------------------
    def _make_entry(
        self, key: Tuple[str, str], instance, version: ModelVersion, canary: bool = False
    ) -> Deployment:
        """Pull a private model copy for one replica and profile it there."""
        model = self.registry.pull(version.name, version.version)
        openei = instance.openei
        profile = openei.package_manager.profiler.profile(
            model,
            version.input_shape,
            openei.device,
            bytes_per_param=float(model.metadata.get("bytes_per_param", 4.0)),
        )
        accuracy = version.extra.get("accuracy")
        expected = ALEM(
            accuracy=float(accuracy) if accuracy is not None else 1.0,
            latency_s=profile.latency_s,
            energy_j=profile.energy_j,
            memory_mb=profile.memory_mb,
        )
        return Deployment(
            scenario=key[0],
            algorithm=key[1],
            instance_id=instance.instance_id,
            model_name=version.name,
            mode="edge",
            expected=expected,
            predicted=expected,
            version=version,
            model=model,
            canary=canary,
        )

    def _emit(
        self, kind: str, key: Tuple[str, str], target: ModelVersion, **fields
    ) -> ControlEvent:
        """Emit one transition of ``target``'s rollout through the table."""
        return self.fleet.deployments.emit(
            kind, *key, self.journal, name=target.name, version=target.version,
            ref=target.ref, fingerprint=target.fingerprint, **fields,
        )

    def _held(self, key: Tuple[str, str]) -> Dict[str, Deployment]:
        """What each replica serves for ``key`` right now, by replica id."""
        return {r.instance_id: r for r in self.fleet.deployments.records(*key)}

    def _transfer_cost(
        self, target: ModelVersion, held: Optional[ModelVersion]
    ) -> int:
        have = None if held is None else (held.name, held.version)
        return self.registry.delta_bytes(target.name, target.version, have=have)

    def _shape_check(self, target: ModelVersion, validate: bool) -> None:
        """Deploy-time twin of the registry's publish gate: re-validate
        the artifact against its recorded input shape before any replica
        serves it.  Catches artifacts published before the gate existed
        (or with ``validate=False``) and blobs corrupted in storage;
        raises :class:`~repro.exceptions.AnalysisError`.  Runs outside
        ``_lock`` — it deserializes a model copy.
        """
        if not validate:
            return
        from repro.analysis.shapes import validate_model

        model = self.registry.pull(target.name, target.version)
        validate_model(model, target.input_shape, context="deploy")

    # -- baseline deployment -----------------------------------------------------
    def deploy(
        self,
        scenario: str,
        algorithm: str,
        name: str,
        version: Optional[int] = None,
        validate: bool = True,
    ) -> List[Deployment]:
        """Serve a registry version fleet-wide as the rollout baseline.

        Registers the deployment table's handler for the algorithm on
        every replica and refreshes the fleet's shared zoo entry so
        selection-layer consumers profile the exact published build.
        ``validate=True`` (default) re-runs the static shape checker on
        the pulled artifact before any replica serves it; see
        :meth:`_shape_check`.
        """
        target = self.registry.get(name, version)
        self._shape_check(target, validate)
        key = (scenario, algorithm)
        previous = self._held(key)
        # pull + profile per replica happens outside any lock: a deploy
        # must not stall live traffic for N artifact deserializations
        table: Dict[str, Deployment] = {}
        moved = 0
        for instance in self.fleet:
            held = previous.get(instance.instance_id)
            moved += self._transfer_cost(target, held.version if held else None)
            table[instance.instance_id] = self._make_entry(key, instance, target)
        with self._lock:
            self.fleet.deployments.deploy(scenario, algorithm, table.values())
            self._rollouts.pop(key, None)
            self.stats.deploys += 1
            self.stats.bytes_transferred += moved
        # journaled before deploy() returns: an acknowledged baseline
        # survives a crash, and recovery re-deploys the same version
        self._emit(ControlPlaneJournal.ROLLOUT_DEPLOY, key, target,
                   instances=sorted(table), transfer_bytes=moved)
        self._refresh_zoo(target)
        self.fleet.deployments.serve(scenario, algorithm)
        return list(table.values())

    def _refresh_zoo(self, version: ModelVersion) -> None:
        """Install the promoted build into the fleet's shared zoo."""
        zoos = []
        for instance in self.fleet:
            zoo = instance.openei.zoo
            if all(zoo is not seen for seen in zoos):
                zoos.append(zoo)
        for zoo in zoos:
            zoo.pull_from(self.registry, version.name, version.version)

    # -- the canary state machine ------------------------------------------------
    def begin(
        self,
        scenario: str,
        algorithm: str,
        version: Optional[int] = None,
        canary: Optional[str] = None,
        policy: Optional[RolloutPolicy] = None,
        validate: bool = True,
    ) -> ControlEvent:
        """Stage the candidate version on one canary replica.

        ``version=None`` stages the latest registry version of the name
        the baseline serves; ``canary=None`` picks the first replica.
        ``validate=True`` (default) shape-checks the candidate before it
        is staged: a rejected artifact releases the rollout claim with a
        ``lease-released`` event carrying the error, and raises
        ``AnalysisError`` — the fleet keeps serving the baseline.
        """
        key = (scenario, algorithm)
        policy = policy or RolloutPolicy()
        window_size = getattr(self.telemetry, "window_size", None)
        if window_size is not None and policy.min_samples > window_size:
            raise ConfigurationError(
                f"min_samples={policy.min_samples} can never be reached: the "
                f"telemetry windows hold at most {window_size} observations, "
                "so the canary would neither promote nor roll back"
            )
        with self._lock:
            table = self._held(key)
            first = next(iter(table.values()), None)
            if first is None or first.version is None:
                raise ResourceNotFoundError(
                    f"nothing deployed for {scenario}/{algorithm}; call deploy() first"
                )
            if self.in_flight(scenario, algorithm):
                raise ConfigurationError(
                    f"a rollout of {self._rollouts[key].target.ref} is already in flight "
                    f"for {scenario}/{algorithm}"
                )
            target = self.registry.get(first.version.name, version)
            if canary is None:
                canary = self.fleet.instances[0].instance_id
            instance = self.fleet.instance(canary)
            baseline = table[canary]
            if baseline.fingerprint == target.fingerprint:
                raise ConfigurationError(
                    f"{canary} already serves {target.ref}; nothing to roll out"
                )
            # claim the rollout slot before releasing the lock, so the
            # artifact pulls below cannot race a second begin(); the real
            # rollback target is captured at swap time below
            granted_at = self.fleet.clock.wall()
            claim = _ActiveRollout(
                target=target, canary_id=canary, policy=policy,
                baseline=baseline,
                stage="staging",
                granted_at=granted_at,
                expires_at=granted_at + LEASE_TTL_S,
            )
            self._rollouts[key] = claim
            baseline_ref = claim.baseline.version.ref
        # the claim becomes a durable *lease* before any staging work runs:
        # a process killed between here and the first check() leaves a
        # journaled lease for recovery to adjudicate (resume while the TTL
        # holds, release after it) instead of a silently leaked claim
        self._emit(
            ControlPlaneJournal.ROLLOUT_LEASE, key, target, canary=canary,
            baseline_ref=baseline_ref, policy=policy.as_dict(),
            granted_at=claim.granted_at, expires_at=claim.expires_at,
        )
        # pull + profile outside the lock: staging must not stall the
        # control loop for an artifact deserialization
        try:
            self._shape_check(target, validate)
            moved = self._transfer_cost(target, baseline.version)
            entry = self._make_entry(key, instance, target, canary=True)
        except Exception as exc:
            # a failed staging must leave a trace operators can find:
            # count it, release the claim, emit the release carrying the
            # error (journaled, so recovery never resumes a lease whose
            # staging already failed in this life), and only then re-raise
            with self._lock:
                self.stats.failures += 1
                if self._rollouts.get(key) is claim:  # release the claim; nothing was staged
                    del self._rollouts[key]
            self._emit(
                ControlPlaneJournal.ROLLOUT_LEASE_RELEASED, key, target, canary=canary,
                reason=f"staging-failed: {type(exc).__name__}",
                error=f"{type(exc).__name__}: {exc}",
            )
            raise
        with self._lock:
            # rollback restores whatever the replica served at swap time
            replaced = self.fleet.deployments.put(entry)
            claim.baseline = replaced if replaced is not None else baseline
            claim.stage = "canary"
            self.stats.canaries += 1
            self.stats.bytes_transferred += moved
        event = self._emit("canary", key, target, canary=canary, transfer_bytes=moved)
        # judge the canary on its own observations, not its predecessor's
        self.telemetry.reset(scenario, algorithm, canary)
        return event

    def step(self) -> List[ControlEvent]:
        """One control cycle over every in-flight canary."""
        events: List[ControlEvent] = []
        with self._lock:
            keys = [k for k, r in self._rollouts.items() if r.stage == "canary"]
        for scenario, algorithm in keys:
            event = self.check(scenario, algorithm)
            if event is not None:
                events.append(event)
        return events

    def check(self, scenario: str, algorithm: str) -> Optional[ControlEvent]:
        """Evaluate one canary window; promote, roll back, or keep watching."""
        key = (scenario, algorithm)
        with self._lock:
            active = self._rollouts.get(key)
            if active is None or active.stage != "canary":
                return None
            if active.judging:
                # another thread is judging this very window snapshot:
                # counting it twice would promote on fewer distinct
                # healthy windows than the policy demands
                return None
            active.judging = True
            self.stats.checks += 1
            policy = active.policy
            canary_id = active.canary_id
        try:
            window = self.telemetry.window(scenario, algorithm, canary_id)
            if window is None:
                return None
            violations = window.confirmed_violations(policy.requirement, policy.min_samples)
            if violations:
                return self._rollback(key, active, violations, window.count("latency_s"))
            if window.count("latency_s") < policy.min_samples:
                return None
            with self._lock:
                if active.stage != "canary":  # raced with an operator override
                    return None
                active.healthy_streak += 1
                promote_now = active.healthy_streak >= policy.healthy_checks
            if promote_now:
                return self._promote(key, active)
            event = self._emit("healthy", key, active.target, canary=canary_id,
                               samples=window.count("latency_s"))
            # each healthy check must stand on a fresh window: clear so the
            # next check cannot be satisfied by the samples just judged
            self.telemetry.reset(scenario, algorithm, canary_id)
            return event
        finally:
            # the judging flag is lock-guarded state: writing it bare
            # would race the "is someone already judging?" read above
            with self._lock:
                active.judging = False

    def promote(self, scenario: str, algorithm: str) -> ControlEvent:
        """Promote the in-flight canary fleet-wide immediately (operator override)."""
        with self._lock:
            active = self._require_active(scenario, algorithm)
        return self._promote((scenario, algorithm), active)

    def rollback(self, scenario: str, algorithm: str) -> ControlEvent:
        """Roll the in-flight canary back to the baseline (operator override)."""
        with self._lock:
            active = self._require_active(scenario, algorithm)
        event = self._rollback((scenario, algorithm), active, {}, 0)
        if event is None:  # lost a race with a concurrent transition
            raise ResourceNotFoundError(
                f"no rollout in flight for {scenario}/{algorithm}"
            )
        return event

    def _require_active(self, scenario: str, algorithm: str) -> _ActiveRollout:
        active = self._rollouts.get((scenario, algorithm))
        if active is None or active.stage != "canary":
            raise ResourceNotFoundError(
                f"no rollout in flight for {scenario}/{algorithm}"
            )
        return active

    def _promote(self, key: Tuple[str, str], active: _ActiveRollout) -> ControlEvent:
        scenario, algorithm = key
        target = active.target
        # claim the transition, then build the new entries outside the
        # lock: N artifact pulls + profiling passes must not stall the
        # control loop
        with self._lock:
            if active.stage != "canary":
                raise ResourceNotFoundError(
                    f"no rollout in flight for {scenario}/{algorithm}"
                )
            active.stage = "promoting"
            snapshot = self._held(key)
        try:
            fresh: List[Deployment] = []
            moved = 0
            for instance in self.fleet:
                held = snapshot.get(instance.instance_id)
                if held is not None and held.fingerprint == target.fingerprint:
                    continue
                moved += self._transfer_cost(target, held.version if held else None)
                fresh.append(self._make_entry(key, instance, target))
        except Exception as exc:
            # failed mid-pull: the canary keeps serving, but the aborted
            # promotion is counted and emitted before the error propagates
            with self._lock:
                active.stage = "canary"
                self.stats.failures += 1
            self._emit("promote-failed", key, target, canary=active.canary_id,
                       error=f"{type(exc).__name__}: {exc}")
            raise
        with self._lock:
            serving = self.fleet.deployments.promote(scenario, algorithm, fresh)
            active.stage = "promoted"
            self.stats.promotions += 1
            self.stats.bytes_transferred += moved
        # resolves the journaled lease: recovery treats a promote as both
        # the lease's resolution and the new fleet-wide baseline
        event = self._emit(ControlPlaneJournal.ROLLOUT_PROMOTE, key, target,
                           canary=active.canary_id, instances=serving, transfer_bytes=moved)
        # the fleet-wide swap starts every replica on a fresh window, and
        # the shared zoo now hands selection consumers the promoted build
        self.telemetry.reset(scenario, algorithm)
        self._refresh_zoo(target)
        return event

    def _rollback(
        self,
        key: Tuple[str, str],
        active: _ActiveRollout,
        violations: Dict[str, float],
        samples: int,
    ) -> Optional[ControlEvent]:
        scenario, algorithm = key
        with self._lock:
            if active.stage != "canary":  # raced with a concurrent transition
                return None
            baseline = active.baseline
            self.fleet.deployments.put(baseline)
            active.stage = "rolled-back"
            self.stats.rollbacks += 1
        # resolves the journaled lease: after a crash the fleet must come
        # back on the baseline, not retry the rejected canary
        event = self._emit(
            ControlPlaneJournal.ROLLOUT_ROLLBACK, key, active.target,
            baseline_ref=baseline.version.ref, canary=active.canary_id,
            violations=violations, samples=samples,
        )
        self.telemetry.reset(scenario, algorithm, active.canary_id)
        return event

    def in_flight(self, scenario: str, algorithm: str) -> bool:
        """Whether a canary claim is staging, serving or promoting for the key."""
        with self._lock:
            active = self._rollouts.get((scenario, algorithm))
            return active is not None and active.stage in ("staging", "canary", "promoting")

    # -- reporting ---------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Controller status surfaced through the fleet's ``/ei_status``."""
        with self._lock:
            return {
                **self.stats.as_dict(),
                "serving": {
                    f"{scenario}/{algorithm}": [r.as_dict() for r in records]
                    for (scenario, algorithm), records in self.fleet.deployments.snapshot().items()
                    if any(r.version is not None for r in records)
                },
                "rollouts": {
                    f"{scenario}/{algorithm}": {
                        "target": active.target.ref,
                        "canary": active.canary_id,
                        "stage": active.stage,
                        "healthy_streak": active.healthy_streak,
                        "healthy_checks": active.policy.healthy_checks,
                        "min_samples": active.policy.min_samples,
                        "granted_at": active.granted_at,
                        "expires_at": active.expires_at,
                    }
                    for (scenario, algorithm), active in sorted(self._rollouts.items())
                },
            }
