"""Routing policies for the edge fleet gateway.

A router picks which deployed :class:`~repro.core.openei.OpenEI` instance
should serve one libei request.  Three policies are provided:

* ``round-robin`` — uniform rotation, the baseline;
* ``least-loaded`` — cheapest runtime first, using the
  :meth:`~repro.runtime.edgeos.EdgeRuntime.load_score` introspection
  (queued tasks dominate, memory pressure breaks ties);
* ``capability`` — Eq. (1)-aware placement: instances are scored by the
  best feasible ALEM objective their device achieves over the shared
  zoo (via each instance's :class:`~repro.core.capability.CapabilityEvaluator`),
  so requests land on the hardware that can answer them fastest.
  Scores are cached (TTL + LRU) because they only change when the zoo or
  the device profile does; load breaks ties between equally-capable
  instances.

Routers are deliberately duck-typed over the fleet's instances (anything
with ``openei`` and ``load_score()``) so they carry no import cycle with
:mod:`repro.serving.fleet`.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence

from repro.core.alem import OptimizationTarget
from repro.exceptions import APIError, ConfigurationError
from repro.serving.api import ParsedRequest
from repro.serving.cache import TTLLRUCache


class RoutingPolicy:
    """Base class: choose one instance for a (possibly parsed) request."""

    name = "base"

    def choose(self, instances: Sequence, request: Optional[ParsedRequest] = None):
        """Return the instance that should serve ``request``.

        Raises
        ------
        APIError
            If the fleet has no instances to route to.
        """
        raise NotImplementedError

    @staticmethod
    def _require_instances(instances: Sequence) -> None:
        if not instances:
            raise APIError("the fleet has no deployed instances to route to")

    def describe(self) -> Dict[str, object]:
        """Policy summary for the gateway's ``/ei_status``."""
        return {"policy": self.name}


class RoundRobinRouter(RoutingPolicy):
    """Uniform rotation over the fleet, independent of the request."""

    name = "round-robin"

    def __init__(self) -> None:
        # itertools.count: next() is atomic under the GIL, so concurrent
        # gateway handler threads never draw the same rotation slot
        self._counter = itertools.count()

    def choose(self, instances: Sequence, request: Optional[ParsedRequest] = None):
        self._require_instances(instances)
        return instances[next(self._counter) % len(instances)]


class LeastLoadedRouter(RoutingPolicy):
    """Route to the runtime with the most headroom right now."""

    name = "least-loaded"

    def choose(self, instances: Sequence, request: Optional[ParsedRequest] = None):
        self._require_instances(instances)
        return min(instances, key=lambda instance: instance.load_score())


class CapabilityAwareRouter(RoutingPolicy):
    """Route to the instance whose hardware best serves the scenario.

    For the request's scenario, every candidate zoo model is profiled on
    each instance's device (through the instance's own capability
    evaluator, so accuracy caches are reused) and the instance is scored
    by the best feasible objective value — by default the lowest
    achievable latency.  Instances whose device cannot fit any model get
    an infinite score; ties (including the no-zoo case, where every score
    is infinite) fall back to least-loaded.
    """

    name = "capability"

    def __init__(self, target: OptimizationTarget = OptimizationTarget.LATENCY) -> None:
        self.target = target
        # scores of the last 256 (device, package, scenario) keys, for 60 s
        self._scores = TTLLRUCache()

    def score(self, instance, scenario: Optional[str]) -> float:
        """Best feasible ALEM objective this instance offers for a scenario."""
        openei = instance.openei
        # the key mirrors the selection cache's: package identity changes
        # the profile, accuracy injection changes ACCURACY-target scores
        key = (
            openei.device.name,
            openei.capability_evaluator.profiler.package_name,
            scenario,
            tuple(openei.zoo.names),
            openei.capability_evaluator.accuracy_fingerprint,
            self.target,
        )
        cached = self._scores.get(key)
        if cached is not None:
            return cached
        candidates = openei.capability_evaluator.evaluate_all(openei.device, scenario=scenario)
        feasible = [c.alem.objective_value(self.target) for c in candidates if c.fits_in_memory]
        value = min(feasible) if feasible else float("inf")
        self._scores.put(key, value)
        return value

    def choose(self, instances: Sequence, request: Optional[ParsedRequest] = None):
        self._require_instances(instances)
        scenario = request.scenario if request is not None else None
        return min(
            instances,
            key=lambda instance: (self.score(instance, scenario), instance.load_score()),
        )

    def describe(self) -> Dict[str, object]:
        return {"policy": self.name, "target": self.target.value,
                "score_cache": self._scores.describe()}


#: Registry of policy name -> factory, used by ``make_router`` and the docs.
ROUTING_POLICIES = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
    CapabilityAwareRouter.name: CapabilityAwareRouter,
}


def make_router(policy: str) -> RoutingPolicy:
    """Build a router from its policy name.

    Raises
    ------
    ConfigurationError
        If the policy name is unknown.
    """
    try:
        return ROUTING_POLICIES[policy]()
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown routing policy {policy!r}; choose from {sorted(ROUTING_POLICIES)}"
        ) from exc
