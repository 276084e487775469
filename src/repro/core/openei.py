"""The OpenEI facade (Fig. 4): package manager + model selector + libei resources.

Deploying :class:`OpenEI` on a device spec turns that device into an
"intelligent edge": it owns an edge runtime, a package manager over a
model zoo, a capability evaluator and model selector, an edge data store,
and a registry of scenario algorithms reachable through libei's
``/ei_algorithms/<scenario>/<algorithm>`` URLs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.alem import ALEMRequirement, OptimizationTarget
from repro.core.capability import CapabilityEvaluator, EvaluatedCandidate
from repro.core.model_selector import ModelSelector, SelectionResult
from repro.core.model_zoo import ModelZoo
from repro.core.package_manager import InferenceOutcome, PackageManager
from repro.data.sensors import PayloadList
from repro.data.store import EdgeDataStore
from repro.exceptions import (
    BatchContractError,
    ConfigurationError,
    DeploymentError,
    ResourceNotFoundError,
)
from repro.hardware.catalog import get_device
from repro.hardware.device import DeviceSpec
from repro.runtime.edgeos import EdgeRuntime

#: Signature of a scenario algorithm as the registry stores it: one call
#: over a list of request argument dicts, returning one JSON-serializable
#: result per request *in order* — typically a single vectorized
#: ``predict`` over stacked inputs.  A single request is a list of one.
BatchAlgorithmHandler = Callable[
    ["OpenEI", List[Dict[str, object]]], List[Dict[str, object]]
]

#: Convenience signature for an algorithm written one request at a time;
#: :meth:`OpenEI.register_algorithm` adapts it into a loop.
AlgorithmHandler = Callable[["OpenEI", Dict[str, object]], Dict[str, object]]


def _looped(handler: AlgorithmHandler) -> BatchAlgorithmHandler:
    """Adapt a one-request handler to the list signature the registry stores."""

    def handle_each(ei: "OpenEI", calls: List[Dict[str, object]]) -> List[Dict[str, object]]:
        return [handler(ei, args) for args in calls]

    return handle_each


class OpenEI:
    """One deployed OpenEI instance on one edge device.

    The algorithm registry holds one handler per
    ``/ei_algorithms/<scenario>/<algorithm>`` URL — a callable over a
    list of calls — and :meth:`_invoke` is the only path to it:
    :meth:`call_algorithm` is a list of one, :meth:`call_algorithm_batch`
    the list as given.  Neither public method calls the other, so a
    subclass may wrap both (spans, counters) and see each call once.
    """

    #: The four application scenarios of Fig. 4.
    SCENARIOS = ("safety", "vehicles", "home", "health")

    def __init__(
        self,
        device: Optional[DeviceSpec] = None,
        device_name: Optional[str] = None,
        package_name: str = "openei-lite",
        zoo: Optional[ModelZoo] = None,
        data_store: Optional[EdgeDataStore] = None,
        selection_cache=None,
    ) -> None:
        if device is None and device_name is None:
            raise DeploymentError("OpenEI needs a device or a device name to deploy onto")
        self.device = device or get_device(device_name)  # type: ignore[arg-type]
        self.runtime = EdgeRuntime(self.device)
        # "zoo or ModelZoo()" would discard an *empty* shared zoo (len() == 0
        # makes it falsy), silently unsharing fleet instances deployed before
        # any model is registered.
        self.zoo = zoo if zoo is not None else ModelZoo()
        self.package_manager = PackageManager(self.runtime, self.zoo, package_name=package_name)
        self.capability_evaluator = CapabilityEvaluator(self.zoo, self.package_manager.profiler)
        self.model_selector = ModelSelector()
        self.data_store = data_store or EdgeDataStore()
        # A repro.serving.cache.SelectionCache (duck-typed here so core does
        # not import serving); may be shared by every instance of a fleet.
        self.selection_cache = selection_cache
        self._algorithms: Dict[str, Dict[str, BatchAlgorithmHandler]] = {
            scenario: {} for scenario in self.SCENARIOS
        }

    # -- deployment -----------------------------------------------------------
    @classmethod
    def deploy(cls, device_name: str, package_name: str = "openei-lite") -> "OpenEI":
        """The paper's "deploy and play": stand up OpenEI on a named catalog device."""
        return cls(device_name=device_name, package_name=package_name)

    def describe(self) -> Dict[str, object]:
        """Status summary exposed through libei."""
        return {
            "device": self.device.name,
            "package_manager": self.package_manager.describe(),
            "runtime": self.runtime.describe(),
            "models": self.zoo.names,
            "scenarios": self.algorithms(),
            "sensors": self.data_store.sensor_ids,
            "selection_cache": (
                self.selection_cache.describe() if self.selection_cache is not None else None
            ),
        }

    # -- model selection ---------------------------------------------------------
    def evaluate_capability(
        self,
        task: Optional[str] = None,
        x_test: Optional[np.ndarray] = None,
        y_test: Optional[np.ndarray] = None,
    ) -> List[EvaluatedCandidate]:
        """ALEM tuples for every zoo model (of a task) on this device."""
        return self.capability_evaluator.evaluate_all(
            self.device, task=task, x_test=x_test, y_test=y_test
        )

    def select_model(
        self,
        task: Optional[str] = None,
        requirement: Optional[ALEMRequirement] = None,
        target: OptimizationTarget = OptimizationTarget.LATENCY,
        x_test: Optional[np.ndarray] = None,
        y_test: Optional[np.ndarray] = None,
    ) -> SelectionResult:
        """Run the Selecting Algorithm for this device and the given requirement.

        When a selection cache is attached, repeated calls with the same
        (device, task, zoo contents, requirement, target) skip both the
        capability re-evaluation and the ranking.  Calls that carry fresh
        evaluation data bypass the cache, since the data may change the
        measured Accuracy.
        """
        requirement = requirement or ALEMRequirement()
        key = None
        if self.selection_cache is not None and x_test is None and y_test is None:
            # the fingerprint covers everything besides the device that
            # changes the measured ALEM points: the package configuration
            # (profiles differ per package, and two same-device instances
            # may share one fleet cache), the zoo contents, and the known
            # accuracies — so package swaps, register()/remove() and
            # set_accuracy() all invalidate stale selections immediately
            fingerprint = (
                self.capability_evaluator.profiler.package_name,
                tuple(self.zoo.names),
                self.capability_evaluator.accuracy_fingerprint,
            )
            key = self.selection_cache.make_key(
                self.device.name, task, fingerprint, requirement, target
            )
            cached = self.selection_cache.get(key)
            if cached is not None:
                return cached
        candidates = self.evaluate_capability(task=task, x_test=x_test, y_test=y_test)
        result = self.model_selector.select(candidates, requirement=requirement, target=target)
        if key is not None:
            self.selection_cache.put(key, result)
        return result

    # -- inference ------------------------------------------------------------------
    def infer(
        self,
        model_name: str,
        inputs: np.ndarray,
        realtime: bool = False,
        deadline_s: Optional[float] = None,
    ) -> InferenceOutcome:
        """Run inference through the package manager."""
        return self.package_manager.infer(
            model_name, inputs, realtime=realtime, deadline_s=deadline_s
        )

    def infer_with_selection(
        self,
        task: str,
        inputs: np.ndarray,
        requirement: Optional[ALEMRequirement] = None,
        target: OptimizationTarget = OptimizationTarget.ACCURACY,
        realtime: bool = False,
        x_test: Optional[np.ndarray] = None,
        y_test: Optional[np.ndarray] = None,
    ) -> Tuple[SelectionResult, InferenceOutcome]:
        """The Section III.E processing flow: select a model, then execute it.

        The default target is accuracy-oriented, matching "the default is
        accuracy oriented" in the paper's walk-through.
        """
        selection = self.select_model(
            task=task, requirement=requirement, target=target, x_test=x_test, y_test=y_test
        )
        outcome = self.infer(selection.selected.model_name, inputs, realtime=realtime)
        return selection, outcome

    # -- algorithm registry (libei's /ei_algorithms) -----------------------------------
    def register_algorithm(
        self,
        scenario: str,
        name: str,
        handler: Optional[AlgorithmHandler] = None,
        batch_handler: Optional[BatchAlgorithmHandler] = None,
    ) -> None:
        """Expose one handler as ``/ei_algorithms/<scenario>/<name>``.

        Pass exactly one of the two.  ``batch_handler`` answers a whole
        list of calls in one invocation — one result per call, in call
        order — and is stored as is.  ``handler`` answers one call; it is
        adapted here, once, into a loop over the list.  Either way the
        registry holds a single callable per algorithm, which serves
        :meth:`call_algorithm` (a list of one) and
        :meth:`call_algorithm_batch` alike.
        """
        if (handler is None) == (batch_handler is None):
            raise ConfigurationError(
                f"register_algorithm({scenario!r}, {name!r}) takes exactly one of "
                "handler= and batch_handler="
            )
        self._algorithms.setdefault(scenario, {})[name] = (
            batch_handler if batch_handler is not None else _looped(handler)
        )

    def algorithms(self, scenario: Optional[str] = None) -> Dict[str, List[str]]:
        """Registered algorithm names, optionally for one scenario."""
        if scenario is not None:
            return {scenario: sorted(self._algorithms.get(scenario, {}))}
        return {s: sorted(handlers) for s, handlers in self._algorithms.items()}

    def _invoke(
        self, scenario: str, name: str, args_list: Sequence[Optional[Dict[str, object]]]
    ) -> List[Dict[str, object]]:
        """The one path to a handler: look up, copy each call's args, call, count."""
        handler = self._algorithms.get(scenario, {}).get(name)
        if handler is None:
            raise ResourceNotFoundError(
                f"no algorithm {name!r} registered for scenario {scenario!r}"
            )
        if not args_list:
            return []
        calls = [dict(args or {}) for args in args_list]
        results = list(handler(self, calls))
        if len(results) != len(calls):
            raise BatchContractError(
                f"handler for {scenario}/{name} returned {len(results)} "
                f"results for {len(calls)} requests"
            )
        return results

    def call_algorithm(
        self, scenario: str, name: str, args: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """Serve one ``/ei_algorithms`` request: a batch of one."""
        return self._invoke(scenario, name, [args])[0]

    def call_algorithm_batch(
        self,
        scenario: str,
        name: str,
        args_list: Sequence[Optional[Dict[str, object]]],
    ) -> List[Dict[str, object]]:
        """Serve many ``/ei_algorithms`` requests for one algorithm in one call.

        The handler sees the whole list at once (a vectorized ``predict``
        over stacked inputs when it was written for lists) and answers
        one result per request, in request order.
        """
        return self._invoke(scenario, name, args_list)

    # -- data access (libei's /ei_data) ---------------------------------------------------
    def get_realtime_data(self, sensor_id: str) -> Dict[str, object]:
        """Newest reading of a sensor, serialized for the REST layer."""
        reading = self.data_store.realtime(sensor_id)
        return {
            "sensor_id": reading.sensor_id,
            "timestamp": reading.timestamp,
            "shape": list(reading.payload.shape),
            "payload": PayloadList(reading),
            "annotations": reading.annotations,
        }

    def get_historical_data(
        self, sensor_id: str, start: float, end: Optional[float] = None
    ) -> Dict[str, object]:
        """Readings of a sensor within a time window, serialized for the REST layer."""
        readings = self.data_store.historical(sensor_id, start, end)
        return {
            "sensor_id": sensor_id,
            "count": len(readings),
            "start": start,
            "end": end,
            "timestamps": [r.timestamp for r in readings],
            "payloads": [PayloadList(r) for r in readings],
        }
