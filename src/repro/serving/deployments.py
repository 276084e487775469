"""The fleet's one deployment table and the one libei handler that reads it.

In the paper an edge serves one model per algorithm at a time: the model
selector solves Eq. (1) over ALEM and the package manager installs the
winner behind a libei URL.  :class:`DeploymentTable` is that fact, held
once per fleet: one frozen :class:`Deployment` per
``(scenario, algorithm, replica)``.  The two control loops —
:class:`~repro.serving.adaptive.AdaptiveController` (SLO reselection) and
:class:`~repro.serving.rollout.RolloutController` (versioned canaries) —
keep only policy state of their own and *propose transitions* to this
table:

===============  ==========================================================
transition       table call
===============  ==========================================================
select, offload  :meth:`DeploymentTable.put` (one replica's record replaced)
deploy           :meth:`DeploymentTable.deploy` (the key's records replaced)
stage-canary     :meth:`DeploymentTable.put` (returns the rollback target)
rollback         :meth:`DeploymentTable.put` (the saved baseline record)
promote          :meth:`DeploymentTable.promote` (fresh records in, canary
                 flags cleared, atomically)
===============  ==========================================================

Records are immutable, so a request that resolved its record keeps a
consistent view while a transition installs the next one, and nothing
handed out can be edited behind the table's lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.alem import ALEM
from repro.core.openei import BatchAlgorithmHandler, OpenEI
from repro.core.registry import ModelVersion
from repro.exceptions import ResourceNotFoundError
from repro.nn.model import Sequential
from repro.serving.telemetry import OBSERVED_ALEM_KEY


@dataclass(frozen=True, slots=True)
class Deployment:
    """What one replica serves for one ``(scenario, algorithm)``.

    ``expected`` is the *nominal* ALEM of the model on the replica's
    device (the baseline drift is measured against); ``predicted`` is the
    drift-adjusted ALEM the last selection believed it would deliver.
    ``mode`` is ``"edge"`` or ``"cloud"``.  A record installed from the
    :class:`~repro.core.registry.ModelRegistry` also carries its
    ``version`` and the replica's private ``model`` copy (replicas never
    share mutable model objects); a record selected from the zoo leaves
    both ``None`` and the handler runs the zoo entry.
    """

    scenario: str
    algorithm: str
    instance_id: str
    model_name: str
    mode: str
    expected: ALEM
    predicted: ALEM
    version: Optional[ModelVersion] = None
    model: Optional[Sequential] = None
    canary: bool = False
    reselections: int = 0

    @property
    def fingerprint(self) -> Optional[str]:
        """Content fingerprint of the served registry version, if any."""
        return None if self.version is None else self.version.fingerprint

    def as_dict(self) -> Dict[str, object]:
        fingerprint = self.fingerprint
        return {
            "scenario": self.scenario,
            "algorithm": self.algorithm,
            "instance_id": self.instance_id,
            "model": self.model_name,
            "mode": self.mode,
            "version": None if self.version is None else self.version.ref,
            "fingerprint": None if fingerprint is None else fingerprint[:12],
            "canary": self.canary,
            "reselections": self.reselections,
            "expected": self.expected.as_dict(),
            "predicted": self.predicted.as_dict(),
        }


class DeploymentTable:
    """Lock-guarded ``(scenario, algorithm) -> replica -> Deployment``.

    Owned by the :class:`~repro.serving.fleet.EdgeFleet` (as
    ``fleet.deployments``).  The lock is a leaf: no method calls out of
    the table while holding it, so controllers may call in with their
    own locks held.
    """

    def __init__(self, fleet) -> None:
        self._fleet = fleet
        self._lock = threading.Lock()
        self._records: Dict[Tuple[str, str], Dict[str, Deployment]] = {}  # guarded-by: _lock

    # -- reading -----------------------------------------------------------------
    def get(self, scenario: str, algorithm: str, instance_id: str) -> Deployment:
        with self._lock:
            record = self._records.get((scenario, algorithm), {}).get(instance_id)
        if record is None:
            raise ResourceNotFoundError(
                f"no deployment for {scenario}/{algorithm} on {instance_id!r}"
            )
        return record

    def records(self, scenario: str, algorithm: str) -> List[Deployment]:
        """One key's records, one per replica (empty when nothing is deployed)."""
        with self._lock:
            return list(self._records.get((scenario, algorithm), {}).values())

    def snapshot(self) -> Dict[Tuple[str, str], List[Deployment]]:
        """Every key's records, keys sorted (what ``/ei_status`` reports)."""
        with self._lock:
            return {key: list(table.values()) for key, table in sorted(self._records.items())}

    def serves_everywhere(self, scenario: str, algorithm: str, fingerprint: str) -> bool:
        """Whether every fleet replica already serves the version ``fingerprint``."""
        records = self.records(scenario, algorithm)
        return bool(records) and len(records) >= len(self._fleet) and all(
            record.fingerprint == fingerprint for record in records
        )

    # -- transitions -------------------------------------------------------------
    def put(self, record: Deployment) -> Optional[Deployment]:
        """Install one replica's record; returns the record it replaced."""
        with self._lock:
            table = self._records.setdefault((record.scenario, record.algorithm), {})
            previous = table.get(record.instance_id)
            table[record.instance_id] = record
        return previous

    def deploy(self, scenario: str, algorithm: str, records: Iterable[Deployment]) -> None:
        """Replace everything served for one key (replicas not named are dropped)."""
        with self._lock:
            self._records[(scenario, algorithm)] = {r.instance_id: r for r in records}

    def promote(self, scenario: str, algorithm: str, fresh: Iterable[Deployment]) -> List[str]:
        """Install ``fresh`` and clear every canary flag in one step.

        Returns the replica ids now serving the key.
        """
        with self._lock:
            table = self._records[(scenario, algorithm)]
            table.update({r.instance_id: r for r in fresh})
            for instance_id, record in table.items():
                if record.canary:
                    table[instance_id] = replace(record, canary=False)
            return sorted(table)

    # -- serving -----------------------------------------------------------------
    def _instance_id(self, openei: OpenEI) -> str:
        for instance in self._fleet:
            if instance.openei is openei:
                return instance.instance_id
        raise ResourceNotFoundError(
            "the OpenEI instance handling this request is not part of the table's fleet"
        )

    def _handler(self, scenario: str, algorithm: str) -> BatchAlgorithmHandler:
        """The libei handler serving whatever the table holds for the replica.

        It reports simulation-aware ``observed_alem``: the record's
        nominal latency scaled by the runtime's emulated slowdown (a
        cloud deployment is immune to edge slowdown) and its expected
        accuracy, so an injected slowdown or a regressed build shows up
        in the telemetry windows both controllers judge.  A ``payload``
        argument is run through the deployed model — the replica's
        private copy of a registry version, else the zoo entry (which
        also stands in for cloud-hosted weights).  Every call of a list
        is answered from the one record resolved when the list arrived.
        """

        def answer(ei: OpenEI, record: Deployment, args: Dict[str, object]) -> Dict[str, object]:
            latency = record.expected.latency_s
            if record.mode != "cloud":
                latency *= ei.runtime.slowdown
            result: Dict[str, object] = {
                "model": record.model_name,
                "mode": record.mode,
                "version": None if record.version is None else record.version.ref,
                "canary": record.canary,
                OBSERVED_ALEM_KEY: {
                    "latency_s": latency,
                    "accuracy": record.expected.accuracy,
                },
            }
            payload = args.get("payload")
            if payload is None:
                return result
            if record.version is not None:
                model, input_shape = record.model, record.version.input_shape
            elif record.model_name in ei.zoo:
                entry = ei.zoo.get(record.model_name)
                model, input_shape = entry.model, entry.input_shape
            else:
                return result
            inputs = np.asarray(payload, dtype=np.float64)
            if inputs.shape == tuple(input_shape):
                inputs = inputs[None, ...]
            result["label"] = int(np.argmax(model.predict(inputs)[0]))
            return result

        def handle(ei: OpenEI, calls: List[Dict[str, object]]) -> List[Dict[str, object]]:
            record = self.get(scenario, algorithm, self._instance_id(ei))
            return [answer(ei, record, args) for args in calls]

        return handle

    def serve(self, scenario: str, algorithm: str) -> None:
        """Register the table's libei handler for the key on every replica."""
        self._fleet.register_algorithm(
            scenario, algorithm, batch_handler=self._handler(scenario, algorithm)
        )
