"""Executing a trace's fault plan against a live serving stack.

A :class:`~repro.loadgen.trace.FaultSpec` says *what* happens *when*;
:class:`FaultInjector` knows *how*, by binding the abstract plan to the
concrete objects under test:

* ``kill-gateway`` / ``restart-gateway`` → a
  :class:`~repro.serving.supervisor.GatewaySupervisor` slot index.  A
  kill closes the gateway's listening socket mid-trace (clients must
  fail over); a restart re-registers a fresh gateway on the original
  address (clients fail back without reconfiguration).
* ``slowdown`` → :meth:`EdgeRuntime.set_slowdown` on one fleet instance
  (by registration index or instance id), emulating thermal throttling /
  co-tenant contention.  ``factor=1.0`` clears it.  The PR-3 adaptive
  controller is expected to *observe* this through telemetry and
  reselect.
* ``malformed-request`` → a syntactically invalid libei path is fired at
  the stack.  The request must be *rejected* (4xx), not crash a worker;
  the injector records the rejection so harness reports can separate
  injected errors from real failures.

Every applied fault is appended to :attr:`FaultInjector.applied` with
its outcome, which the harness hands back as ``TailLatencyReport.faults``
— a replay's result without its fault history is not reproducible.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Union

from repro.exceptions import APIError, ConfigurationError, ResourceNotFoundError
from repro.loadgen.trace import FaultSpec

#: The deliberately malformed path fired by ``malformed-request`` faults:
#: an unknown resource family, guaranteed to parse-fail into HTTP 400.
MALFORMED_PATH = "/chaos/injected/malformed"


class FaultInjector:
    """Binds a fault plan to a live fleet / supervisor / client triple.

    Any of the three bindings may be omitted when the plan does not need
    it; applying a fault whose binding is missing raises
    :class:`~repro.exceptions.ConfigurationError` (a chaos experiment
    silently skipping its faults would report vacuously clean results).

    ``send_malformed`` overrides how malformed requests are delivered;
    the default GETs :data:`MALFORMED_PATH` through the bound client and
    expects an :class:`~repro.exceptions.APIError` rejection.
    """

    def __init__(
        self,
        fleet=None,
        supervisor=None,
        client=None,
        send_malformed: Optional[Callable[[], object]] = None,
    ) -> None:
        self.fleet = fleet
        self.supervisor = supervisor
        self.client = client
        self._send_malformed = send_malformed
        self._lock = threading.Lock()
        self.applied: List[Dict[str, object]] = []  # guarded-by: _lock

    # -- application -------------------------------------------------------------
    def apply(self, fault: FaultSpec) -> Dict[str, object]:
        """Execute one fault; returns (and records) its outcome entry."""
        handler = {
            "kill-gateway": self._kill_gateway,
            "restart-gateway": self._restart_gateway,
            "slowdown": self._slowdown,
            "malformed-request": self._malformed_request,
        }[fault.action]
        record = dict(fault.as_dict())
        try:
            detail = handler(fault)
        except Exception as exc:
            record["outcome"] = "failed"
            record["error"] = f"{type(exc).__name__}: {exc}"
            with self._lock:
                self.applied.append(record)
            raise
        record["outcome"] = "applied"
        if detail:
            record.update(detail)
        with self._lock:
            self.applied.append(record)
        return record

    def records(self) -> List[Dict[str, object]]:
        """A snapshot of every fault applied so far, in application order."""
        with self._lock:
            return [dict(r) for r in self.applied]

    # -- individual actions ------------------------------------------------------
    def _kill_gateway(self, fault: FaultSpec) -> Dict[str, object]:
        supervisor = self._require("supervisor")
        address = supervisor.kill(self._gateway_index(fault))
        return {"address": list(address)}

    def _restart_gateway(self, fault: FaultSpec) -> Dict[str, object]:
        supervisor = self._require("supervisor")
        gateway = supervisor.restart(self._gateway_index(fault))
        return {"address": list(gateway.address)}

    def _slowdown(self, fault: FaultSpec) -> Dict[str, object]:
        fleet = self._require("fleet")
        instance = self._resolve_instance(fleet, fault.target)
        instance.openei.runtime.set_slowdown(fault.factor)
        return {"instance_id": instance.instance_id, "factor": fault.factor}

    def _malformed_request(self, fault: FaultSpec) -> Dict[str, object]:
        del fault
        if self._send_malformed is not None:
            self._send_malformed()
            return {"path": "custom"}
        client = self._require("client")
        try:
            client.get(MALFORMED_PATH)
        except APIError:
            # the expected outcome: the stack rejected garbage instead of
            # crashing a worker or poisoning a batch
            return {"path": MALFORMED_PATH, "rejected": True}
        raise ConfigurationError(
            f"the stack accepted the malformed path {MALFORMED_PATH!r}; "
            "it must be rejected with an HTTP error"
        )

    # -- resolution helpers ------------------------------------------------------
    def _require(self, name: str):
        bound = getattr(self, name)
        if bound is None:
            raise ConfigurationError(
                f"this fault plan needs a {name} but the injector was built without one"
            )
        return bound

    @staticmethod
    def _gateway_index(fault: FaultSpec) -> int:
        if fault.target is None:
            return 0
        try:
            return int(fault.target)  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"gateway faults target a slot index, got {fault.target!r}"
            ) from exc

    @staticmethod
    def _resolve_instance(fleet, target: Optional[Union[int, str]]):
        instances = fleet.instances
        if target is None:
            return instances[0]
        if isinstance(target, int) or (isinstance(target, str) and target.isdigit()):
            index = int(target)
            if not 0 <= index < len(instances):
                raise ResourceNotFoundError(
                    f"no fleet instance index {index}; fleet size is {len(instances)}"
                )
            return instances[index]
        return fleet.instance(str(target))
