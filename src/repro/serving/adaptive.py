"""The adaptive SLO control plane: measure, detect, re-solve, redeploy.

Eq. (1) is solved once from analytically profiled ALEM points, but the
premise of serving live traffic is that device latency, energy and
accuracy *drift*.  :class:`AdaptiveController` closes the loop the paper
leaves open (and that DERopt-style rolling re-optimization demonstrates
for energy systems): it

1. **measures** — reads the windowed per-replica ALEM observations that
   :class:`~repro.serving.telemetry.ALEMTelemetry` collects from live
   gateway calls;
2. **detects** — evaluates :meth:`ALEMRequirement.violations` on the
   windowed means, gated by a minimum sample count and a cooldown;
3. **re-solves** — invalidates the affected
   :class:`~repro.serving.cache.SelectionCache` keys, rescales the
   candidate ALEM points by the measured latency/accuracy drift, and
   re-runs :meth:`~repro.core.model_selector.ModelSelector.select`
   (optionally warm-started by
   :class:`~repro.core.model_selector.RLModelSelector` online feedback);
4. **redeploys** — hot-swaps the replica's deployed model in place, or,
   when nothing on the edge is feasible any more, falls back to the
   paper's first dataflow through a
   :class:`~repro.collaboration.cloud_edge.CloudOffloadPlanner`.

The controller holds policy state only.  What each replica serves lives
in the fleet's one :class:`~repro.serving.deployments.DeploymentTable`:
a reselection *proposes* a ``select`` or ``offload`` transition to it,
and the table's libei handler (see :meth:`AdaptiveController.register_handlers`)
serves whatever record is current and reports simulation-aware
``observed_alem`` (nominal profile latency scaled by the runtime's
emulated :attr:`~repro.runtime.edgeos.EdgeRuntime.slowdown`), so an
injected device slowdown propagates through telemetry into a reselection
without restarting the gateway.  A policy added over a key that already
has records — a rollout baseline, say — *adopts* them rather than
solving a second selection nobody would serve.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collaboration.cloud_edge import CloudOffloadPlanner
from repro.core.alem import ALEM, ALEMRequirement, OptimizationTarget
from repro.core.capability import EvaluatedCandidate
from repro.core.model_selector import RLModelSelector
from repro.core.openei import OpenEI
from repro.core.wal import ControlPlaneJournal
from repro.exceptions import ConfigurationError, ModelSelectionError, ResourceNotFoundError
from repro.serving.deployments import Deployment
from repro.serving.telemetry import ALEMTelemetry, TelemetryWindow


@dataclass(frozen=True)
class SLOPolicy:
    """The service-level objective for one ``(scenario, algorithm)``.

    ``requirement`` is the constraint side of Eq. (1) applied to *measured*
    ALEM; ``task`` scopes which zoo models are candidates on reselection.
    ``min_samples`` observations of a violated axis must be in the window
    before the controller acts (one slow request must not trigger a fleet
    reconfiguration), and ``cooldown_s`` spaces consecutive reselection
    attempts on the same replica — including hold-position cycles where a
    violated cloud fallback is re-confirmed as the best option.
    """

    scenario: str
    algorithm: str
    task: Optional[str]
    requirement: ALEMRequirement
    target: OptimizationTarget = OptimizationTarget.ACCURACY
    min_samples: int = 5
    cooldown_s: float = 0.0

    def __post_init__(self) -> None:
        if self.min_samples <= 0:
            raise ConfigurationError("min_samples must be positive")
        if self.cooldown_s < 0:
            raise ConfigurationError("cooldown_s must be non-negative")

    @property
    def key(self) -> Tuple[str, str]:
        return (self.scenario, self.algorithm)


@dataclass(frozen=True)
class ReselectionEvent:
    """One control action taken after a detected SLO violation."""

    scenario: str
    algorithm: str
    instance_id: str
    violations: Dict[str, float]
    drift: float
    old_model: str
    new_model: Optional[str]
    outcome: str                 # "reselected" | "offloaded" | "exhausted"
    invalidated_keys: int

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class ControllerStats:
    """Counters surfaced through the gateway's ``/ei_status``."""

    checks: int = 0
    violations: int = 0
    reselections: int = 0
    offloads: int = 0
    exhausted: int = 0
    cache_invalidations: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


def _where(policy: SLOPolicy, instance) -> Dict[str, str]:
    """The key fields a record and its reselection event share."""
    return dict(
        scenario=policy.scenario, algorithm=policy.algorithm, instance_id=instance.instance_id
    )


class AdaptiveController:
    """Fleet-wide online reselection driven by measured ALEM.

    Under each registered policy the fleet's deployment table holds one
    :class:`~repro.serving.deployments.Deployment` per replica.
    :meth:`check_all` (typically called periodically, or every N gateway
    requests) compares each record's telemetry window against its policy
    and reselects where the SLO is violated.
    """

    def __init__(
        self,
        fleet,
        telemetry: Optional[ALEMTelemetry] = None,
        offload: Optional[CloudOffloadPlanner] = None,
        rl_episodes: int = 0,
        rl_seed: int = 0,
        max_events: int = 128,
        clock: Callable[[], float] = time.monotonic,
        journal: Optional[ControlPlaneJournal] = None,
    ) -> None:
        if rl_episodes < 0:
            raise ConfigurationError("rl_episodes must be non-negative")
        self.fleet = fleet
        self.journal = journal
        telemetry = telemetry if telemetry is not None else getattr(fleet, "telemetry", None)
        if telemetry is None:
            raise ConfigurationError(
                "AdaptiveController needs telemetry: pass one, or deploy the "
                "fleet with telemetry attached"
            )
        self.telemetry = telemetry
        self.offload = offload
        self.rl_episodes = int(rl_episodes)
        self.rl_seed = int(rl_seed)
        self.clock = clock
        self.stats = ControllerStats()  # guarded-by: _lock
        self.events: Deque[ReselectionEvent] = deque(maxlen=max_events)  # guarded-by: _lock
        self._lock = threading.RLock()
        self._policies: Dict[Tuple[str, str], SLOPolicy] = {}  # guarded-by: _lock
        self._last_action: Dict[Tuple[str, str, str], float] = {}  # guarded-by: _lock
        # measured-over-analytic latency factor per deployment key.  It is
        # learned from *edge* observations and deliberately persists while
        # a deployment is offloaded: cloud traffic says nothing about the
        # edge device, so the last known edge drift keeps gating failback
        # (otherwise a violated cloud deployment would flap straight back
        # onto the still-slowed edge).
        self._calibration: Dict[Tuple[str, str, str], float] = {}  # guarded-by: _lock
        # let the fleet surface this controller through /ei_status
        fleet.adaptive = self

    # -- policy registration -----------------------------------------------------
    def add_policy(self, policy: SLOPolicy) -> List[Deployment]:
        """Register a policy over one key's records on every replica.

        A key nothing serves yet gets the initial Eq. (1) selection per
        replica.  A key that already has records (a rollout baseline) is
        *adopted*: the policy watches what is actually being served.
        """
        with self._lock:
            if policy.key in self._policies:
                raise ConfigurationError(
                    f"a policy for {policy.scenario}/{policy.algorithm} is already registered"
                )
            self._policies[policy.key] = policy
            table = self.fleet.deployments
            deployments = table.records(*policy.key)
            if not deployments:
                deployments = [self._initial_deployment(policy, i) for i in self.fleet]
                table.deploy(*policy.key, deployments)
            return deployments

    def policy(self, scenario: str, algorithm: str) -> SLOPolicy:
        with self._lock:
            try:
                # lint: ignore[mutable-return] SLOPolicy is a frozen dataclass — sharing it cannot leak mutable state
                return self._policies[(scenario, algorithm)]
            except KeyError as exc:
                raise ResourceNotFoundError(
                    f"no SLO policy registered for {scenario}/{algorithm}"
                ) from exc

    def _initial_deployment(self, policy: SLOPolicy, instance) -> Deployment:
        openei = instance.openei
        where = _where(policy, instance)
        try:
            selected = openei.select_model(
                task=policy.task, requirement=policy.requirement, target=policy.target
            ).selected
            return Deployment(
                **where, model_name=selected.model_name, mode="edge",
                expected=selected.alem, predicted=selected.alem,
            )
        except ModelSelectionError:
            if self.offload is None:
                raise
            plan = self._offload_plan(openei, policy)
            return Deployment(
                **where, model_name=plan.model_name, mode="cloud",
                expected=plan.alem, predicted=plan.alem,
            )

    # -- deployment lookup -------------------------------------------------------
    def deployment(self, scenario: str, algorithm: str, instance_id: str) -> Deployment:
        return self.fleet.deployments.get(scenario, algorithm, instance_id)

    def deployments(self) -> List[Deployment]:
        """The records under every registered policy."""
        with self._lock:
            keys = list(self._policies)
        return [record for key in keys for record in self.fleet.deployments.records(*key)]

    def reset_calibration(
        self, scenario: Optional[str] = None, algorithm: Optional[str] = None
    ) -> None:
        """Forget learned latency drift (e.g. after a device was serviced).

        The next violation check re-measures from scratch, which is how an
        offloaded deployment gets a chance to fail back to the edge once
        the operator knows the slowdown has cleared.
        """
        with self._lock:
            for key in list(self._calibration):
                if scenario is not None and key[0] != scenario:
                    continue
                if algorithm is not None and key[1] != algorithm:
                    continue
                del self._calibration[key]

    def restore_calibration(
        self, entries: Sequence[Tuple[Tuple[str, str, str], float]]
    ) -> int:
        """Reinstate journaled drift factors after a restart.

        Only keys with no live calibration are restored — drift measured
        since the restart is always fresher than the journal.  Returns the
        number of keys restored.
        """
        restored = 0
        with self._lock:
            for key, drift in entries:
                if key in self._calibration:
                    continue
                self._calibration[tuple(key)] = float(drift)
                restored += 1
        return restored

    # -- the serving handler -----------------------------------------------------
    def register_handlers(self) -> None:
        """Serve every policy's key from the deployment table, fleet-wide."""
        with self._lock:
            keys = list(self._policies)
        for key in keys:
            self.fleet.deployments.serve(*key)

    # -- the control loop --------------------------------------------------------
    def check_all(self) -> List[ReselectionEvent]:
        """Run one control cycle over every registered policy."""
        with self._lock:
            policies = list(self._policies.values())
        events: List[ReselectionEvent] = []
        for policy in policies:
            events.extend(self.check(policy.scenario, policy.algorithm))
        return events

    def check(self, scenario: str, algorithm: str) -> List[ReselectionEvent]:
        """Compare telemetry against one policy; reselect where violated."""
        policy = self.policy(scenario, algorithm)
        events: List[ReselectionEvent] = []
        learned: List[Tuple[Tuple[str, str, str], float]] = []
        with self._lock:
            self.stats.checks += 1
            for deployment in self.fleet.deployments.records(scenario, algorithm):
                instance = self.fleet.instance(deployment.instance_id)
                key = (scenario, algorithm, instance.instance_id)
                window = self.telemetry.window(scenario, algorithm, instance.instance_id)
                if window is None:
                    continue
                violations = window.confirmed_violations(policy.requirement, policy.min_samples)
                if not violations:
                    continue
                last = self._last_action.get(key)
                if last is not None and self.clock() - last < policy.cooldown_s:
                    continue
                self.stats.violations += 1
                event = self._reselect(policy, instance, deployment, window, violations, learned)
                # stamp even when holding position, so cooldown_s also
                # spaces the (re-)evaluation work for a deployment that
                # cannot improve — not just successful swaps
                self._last_action[key] = self.clock()
                if event is None:
                    # already on the best known fallback; nothing to change
                    continue
                self.events.append(event)
                events.append(event)
        if self.journal is not None:
            # calibration is learned under the lock but journaled after it:
            # the fsync must not extend the critical section every handler
            # thread contends on
            for (s, a, replica), drift in learned:
                self.journal.append(
                    ControlPlaneJournal.CALIBRATION,
                    scenario=s,
                    algorithm=a,
                    replica=replica,
                    drift=drift,
                )
        return events

    def _reselect(  # requires-lock: _lock (only called from check() inside the with block)
        self,
        policy: SLOPolicy,
        instance,
        deployment: Deployment,
        window: TelemetryWindow,
        violations: Dict[str, float],
        learned: List[Tuple[Tuple[str, str, str], float]],
    ) -> Optional[ReselectionEvent]:
        openei = instance.openei
        observed = window.observed_alem()
        key = (policy.scenario, policy.algorithm, instance.instance_id)
        where = _where(policy, instance)

        # calibrate the analytic profile against the measurements: the
        # latency drift of the *deployed* model applies to every candidate
        # on the same device (the slowdown is a device property, not a
        # model property); measured accuracy rescales the same way.  Cloud
        # deployments keep the last edge calibration — see _calibration.
        drift = self._calibration.get(key, 1.0)
        accuracy_scale = 1.0
        if deployment.mode == "edge":
            if window.count("latency_s") and deployment.expected.latency_s > 0:
                drift = max(observed.latency_s / deployment.expected.latency_s, 1e-9)
            if window.count("accuracy") and deployment.expected.accuracy > 0:
                accuracy_scale = observed.accuracy / deployment.expected.accuracy
        if self._calibration.get(key) != drift:
            learned.append((key, drift))
        self._calibration[key] = drift

        # stale analytic selections for this device/task are now wrong
        invalidated = 0
        if self.fleet.selection_cache is not None:
            invalidated = self.fleet.selection_cache.invalidate(
                device_name=openei.device.name, task=policy.task
            )
        self.stats.cache_invalidations += invalidated

        candidates = openei.evaluate_capability(task=policy.task)
        adjusted = [self._apply_drift(c, drift, accuracy_scale) for c in candidates]

        def event(new_model: Optional[str], outcome: str) -> ReselectionEvent:
            return ReselectionEvent(
                **where, violations=violations, drift=drift, old_model=deployment.model_name,
                new_model=new_model, outcome=outcome, invalidated_keys=invalidated,
            )

        try:
            selected = self._solve(openei, adjusted, policy)
            nominal = next(
                c for c in candidates if c.model_name == selected.model_name
            )
            new_deployment = Deployment(
                **where, model_name=selected.model_name, mode="edge",
                expected=nominal.alem, predicted=selected.alem,
                reselections=deployment.reselections + 1,
            )
            outcome = "reselected"
            self.stats.reselections += 1
        except ModelSelectionError:
            if self.offload is None:
                self.stats.exhausted += 1
                return event(None, "exhausted")
            plan = self._offload_plan(openei, policy)
            if deployment.mode == "cloud" and plan.model_name == deployment.model_name:
                # the SLO is still violated but the cloud is already the
                # best known fallback: hold position instead of flapping
                return None
            new_deployment = Deployment(
                **where, model_name=plan.model_name, mode="cloud",
                expected=plan.alem, predicted=plan.alem,
                reselections=deployment.reselections + 1,
            )
            outcome = "offloaded"
            self.stats.offloads += 1

        # hot swap: subsequent handler calls serve the new deployment; the
        # fresh model is judged on its own window, not its predecessor's
        self.fleet.deployments.put(new_deployment)
        self.telemetry.reset(policy.scenario, policy.algorithm, instance.instance_id)
        return event(new_deployment.model_name, outcome)

    @staticmethod
    def _apply_drift(
        candidate: EvaluatedCandidate, drift: float, accuracy_scale: float
    ) -> EvaluatedCandidate:
        alem = candidate.alem
        return replace(
            candidate,
            alem=ALEM(
                accuracy=float(np.clip(alem.accuracy * accuracy_scale, 0.0, 1.0)),
                latency_s=alem.latency_s * drift,
                energy_j=alem.energy_j * drift,
                memory_mb=alem.memory_mb,
            ),
        )

    def _solve(
        self,
        openei: OpenEI,
        adjusted: Sequence[EvaluatedCandidate],
        policy: SLOPolicy,
    ) -> EvaluatedCandidate:
        """Exact Eq. (1) over drift-adjusted candidates, optionally RL-refined."""
        result = openei.model_selector.select(
            adjusted, requirement=policy.requirement, target=policy.target
        )
        if self.rl_episodes > 0 and len(result.feasible) > 1:
            # warm start from the feasible set only: the bandit gathers
            # noisy online feedback and may overturn near-ties, but can
            # never pick an infeasible arm
            learner = RLModelSelector(
                result.feasible,
                requirement=policy.requirement,
                target=policy.target,
                seed=self.rl_seed,
            )
            return learner.train(self.rl_episodes)
        return result.selected

    def _offload_plan(self, openei: OpenEI, policy: SLOPolicy):
        return self.offload.plan(
            openei.zoo,
            task=policy.task,
            requirement=policy.requirement,
            target=policy.target,
            accuracies=dict(openei.capability_evaluator.accuracy_fingerprint),
        )

    # -- reporting ---------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Controller status surfaced through the fleet's ``/ei_status``."""
        with self._lock:
            return {
                "policies": [
                    {
                        "scenario": p.scenario,
                        "algorithm": p.algorithm,
                        "task": p.task,
                        "target": p.target.value,
                        "min_samples": p.min_samples,
                        "cooldown_s": p.cooldown_s,
                    }
                    for p in self._policies.values()
                ],
                **self.stats.as_dict(),
                "deployments": [d.as_dict() for d in self.deployments()],
                "recent_events": [e.as_dict() for e in list(self.events)[-10:]],
            }
