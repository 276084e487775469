"""The edge fleet: many deployed OpenEI instances behind one gateway.

The paper deploys one OpenEI per device; the ROADMAP's north star is
serving heavy traffic, which needs many.  :class:`EdgeFleet` keeps a
registry of deployed instances over heterogeneous
:class:`~repro.hardware.device.DeviceSpec`\\ s, routes each libei request
to the best one through a pluggable :class:`~repro.serving.router.RoutingPolicy`,
and shares one :class:`~repro.serving.cache.SelectionCache` across the
whole fleet so repeated model selections are answered from memory.

Because :class:`EdgeFleet` implements the
:class:`~repro.serving.api.LibEITarget` surface, the fleet is served by
the very same dispatcher/server path as a single instance —
:class:`FleetGateway` is just a :class:`~repro.serving.server.LibEIServer`
whose target routes.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.core.model_zoo import ModelZoo
from repro.core.openei import AlgorithmHandler, BatchAlgorithmHandler, OpenEI
from repro.exceptions import ConfigurationError, ResourceNotFoundError
from repro.serving.api import ParsedRequest
from repro.serving.batching import BatchingConfig
from repro.serving.cache import SelectionCache
from repro.serving.deployments import DeploymentTable
from repro.serving.router import RoutingPolicy, make_router
from repro.serving.server import LibEIServer
from repro.serving.telemetry import ALEMTelemetry


@dataclass
class FleetInstance:
    """One deployed OpenEI instance plus its fleet bookkeeping."""

    instance_id: str
    openei: OpenEI
    requests_served: int = field(default=0)  # guarded-by: _stats_lock

    @property
    def device_name(self) -> str:
        """Name of the device this instance is deployed on."""
        return self.openei.device.name

    def load_score(self) -> float:
        """Routing load signal, delegated to the runtime's introspection."""
        return self.openei.runtime.load_score()

    def describe(self) -> Dict[str, object]:
        """Per-instance summary surfaced by the fleet's ``/ei_status``."""
        return {
            "instance_id": self.instance_id,
            "device": self.device_name,
            "requests_served": self.requests_served,
            "load": self.openei.runtime.load(),
        }


class EdgeFleet:
    """Registry + router over N deployed OpenEI instances.

    Implements :class:`~repro.serving.api.LibEITarget`: algorithm calls
    are routed by the policy, data calls go to an instance that actually
    owns the sensor, and ``describe()`` aggregates fleet-wide status.
    """

    def __init__(
        self,
        router: Union[RoutingPolicy, str, None] = None,
        selection_cache: Optional[SelectionCache] = None,
        telemetry: Optional[ALEMTelemetry] = None,
    ) -> None:
        if isinstance(router, str):
            router = make_router(router)
        self.router = router or make_router("round-robin")
        self.selection_cache = selection_cache
        # when attached, every routed algorithm call records its observed
        # ALEM per (scenario, algorithm, replica); the adaptive controller
        # registers itself here so /ei_status reports reselections
        self.telemetry = telemetry
        self.adaptive = None
        # a RolloutController registers itself here so /ei_status reports
        # per-replica serving versions and in-flight canaries
        self.rollout = None
        # what every replica serves per (scenario, algorithm): the one
        # table both controllers propose transitions to
        self.deployments = DeploymentTable(self)
        self._instances: List[FleetInstance] = []
        self._ids = itertools.count()
        self._stats_lock = threading.Lock()

    # -- construction -----------------------------------------------------------
    @classmethod
    def deploy(
        cls,
        device_names: Iterable[str],
        package_name: str = "openei-lite",
        zoo: Optional[ModelZoo] = None,
        policy: Union[RoutingPolicy, str] = "round-robin",
        selection_cache: Optional[SelectionCache] = None,
        cache_size: int = 1024,
        cache_ttl_s: Optional[float] = 60.0,
        telemetry: Optional[ALEMTelemetry] = None,
    ) -> "EdgeFleet":
        """Deploy one OpenEI per named catalog device behind one fleet.

        All instances share a single model zoo (so capability-aware
        routing compares like with like) and a single selection cache
        (keys include the device name, so sharing is safe).  Pass
        ``selection_cache=None`` with ``cache_size=0`` to disable caching.
        """
        device_names = list(device_names)
        if not device_names:
            raise ConfigurationError("a fleet needs at least one device to deploy onto")
        if selection_cache is None and cache_size > 0:
            selection_cache = SelectionCache(max_size=cache_size, ttl_s=cache_ttl_s)
        fleet = cls(router=policy, selection_cache=selection_cache, telemetry=telemetry)
        zoo = zoo if zoo is not None else ModelZoo()  # an empty ModelZoo is falsy
        for name in device_names:
            fleet.add_instance(
                OpenEI(
                    device_name=name,
                    package_name=package_name,
                    zoo=zoo,
                    selection_cache=selection_cache,
                )
            )
        return fleet

    def add_instance(self, openei: OpenEI, instance_id: Optional[str] = None) -> FleetInstance:
        """Register an already-deployed OpenEI instance with the fleet."""
        if instance_id is None:
            instance_id = f"edge-{next(self._ids)}@{openei.device.name}"
        if any(existing.instance_id == instance_id for existing in self._instances):
            raise ConfigurationError(f"duplicate fleet instance id {instance_id!r}")
        if self.selection_cache is not None and openei.selection_cache is None:
            openei.selection_cache = self.selection_cache
        instance = FleetInstance(instance_id=instance_id, openei=openei)
        self._instances.append(instance)
        return instance

    # -- registry ---------------------------------------------------------------
    @property
    def instances(self) -> List[FleetInstance]:
        """All registered instances, in registration order."""
        return list(self._instances)

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[FleetInstance]:
        return iter(self._instances)

    def instance(self, instance_id: str) -> FleetInstance:
        """Look up one instance by id.

        Raises
        ------
        ResourceNotFoundError
            If no instance has that id.
        """
        for instance in self._instances:
            if instance.instance_id == instance_id:
                return instance
        raise ResourceNotFoundError(
            f"no fleet instance {instance_id!r}; "
            f"known: {[i.instance_id for i in self._instances]}"
        )

    def register_algorithm(
        self,
        scenario: str,
        name: str,
        handler: Optional[AlgorithmHandler] = None,
        batch_handler: Optional[BatchAlgorithmHandler] = None,
    ) -> None:
        """Expose one handler on every instance (any replica can then serve it).

        Exactly one of ``handler`` / ``batch_handler``, as on
        :meth:`OpenEI.register_algorithm <repro.core.openei.OpenEI.register_algorithm>`.
        """
        for instance in self._instances:
            instance.openei.register_algorithm(scenario, name, handler, batch_handler)

    # -- routing ----------------------------------------------------------------
    def route(self, request: Optional[ParsedRequest] = None) -> FleetInstance:
        """Pick the instance that should serve ``request`` under the policy."""
        return self.router.choose(self._instances, request)

    def _instance_with_sensor(self, sensor_id: str) -> FleetInstance:
        """The first instance whose data store owns the sensor."""
        for instance in self._instances:
            if sensor_id in instance.openei.data_store.sensor_ids:
                return instance
        raise ResourceNotFoundError(
            f"no fleet instance owns sensor {sensor_id!r}"
        )

    # -- LibEITarget surface -----------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Fleet-wide status for the gateway's ``/ei_status``."""
        return {
            "fleet_size": len(self._instances),
            "router": self.router.describe(),
            "requests_served": sum(i.requests_served for i in self._instances),
            "selection_cache": (
                self.selection_cache.describe() if self.selection_cache is not None else None
            ),
            "telemetry": self.telemetry.describe() if self.telemetry is not None else None,
            "adaptive": self.adaptive.describe() if self.adaptive is not None else None,
            "rollout": self.rollout.describe() if self.rollout is not None else None,
            "instances": [instance.describe() for instance in self._instances],
        }

    def _route_call(
        self, scenario: str, name: str, args: Optional[Dict[str, object]]
    ) -> FleetInstance:
        """The instance the policy picks for an algorithm call with ``args``."""
        return self.route(ParsedRequest(
            resource_type="ei_algorithms", scenario=scenario, algorithm=name,
            args=dict(args or {}),
        ))

    def _finish(
        self, scenario: str, name: str, instance: FleetInstance,
        results: Sequence[Dict[str, object]], start: float,
    ) -> List[Dict[str, object]]:
        """Copy, record and tag what ``instance`` answered since ``start``.

        Each result's wall clock is its amortized share: the calls ran as
        one invocation.
        """
        per_request_s = (time.perf_counter() - start) / max(1, len(results))
        tagged = []
        for result in results:
            # copy before tagging: a handler may return a shared/cached dict
            result = dict(result)
            if self.telemetry is not None:
                self.telemetry.record_result(
                    scenario, name, instance.instance_id, result,
                    wall_latency_s=per_request_s,
                )
            result.setdefault("served_by", instance.instance_id)
            tagged.append(result)
        return tagged

    def call_algorithm(
        self, scenario: str, name: str, args: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """Route an algorithm call to the policy's chosen instance."""
        instance = self._route_call(scenario, name, args)
        self._count_request(instance)
        start = time.perf_counter()
        result = instance.openei.call_algorithm(scenario, name, args)
        return self._finish(scenario, name, instance, [result], start)[0]

    def call_algorithm_batch(
        self,
        scenario: str,
        name: str,
        args_list: Sequence[Optional[Dict[str, object]]],
    ) -> List[Dict[str, object]]:
        """Route one micro-batch of same-algorithm calls to a single instance.

        The whole batch lands on the policy's chosen replica (routed on
        its first call's arguments) so the handler can answer it with one
        vectorized invocation.
        """
        instance = self._route_call(scenario, name, args_list[0] if args_list else None)
        start = time.perf_counter()
        results = instance.openei.call_algorithm_batch(scenario, name, args_list)
        # count only after success: a failed batch is retried per request by
        # the batching dispatcher, and those retries count themselves
        self._count_request(instance, count=len(args_list))
        return self._finish(scenario, name, instance, results, start)

    def get_realtime_data(self, sensor_id: str) -> Dict[str, object]:
        """Serve a realtime data call from an instance owning the sensor."""
        instance = self._instance_with_sensor(sensor_id)
        self._count_request(instance)
        return instance.openei.get_realtime_data(sensor_id)

    def get_historical_data(
        self, sensor_id: str, start: float, end: Optional[float] = None
    ) -> Dict[str, object]:
        """Serve a historical data call from an instance owning the sensor."""
        instance = self._instance_with_sensor(sensor_id)
        self._count_request(instance)
        return instance.openei.get_historical_data(sensor_id, start, end)

    def _count_request(self, instance: FleetInstance, count: int = 1) -> None:
        """Bump a request counter under the fleet lock (handler threads race)."""
        with self._stats_lock:
            instance.requests_served += count


class FleetGateway(LibEIServer):
    """HTTP front-end for an :class:`EdgeFleet`.

    The gateway speaks the exact libei grammar of Fig. 6 — clients cannot
    tell a fleet from a single instance, except that ``/ei_status`` now
    reports fleet-wide state and responses carry a ``served_by`` field.
    Run several gateways over one fleet for replica failover (see
    :class:`~repro.serving.client.LibEIClient`).  Passing
    ``batching=BatchingConfig(...)`` micro-batches concurrent
    same-algorithm requests before they are routed, so one replica
    answers the whole batch with a single vectorized invocation.
    """

    def __init__(
        self,
        fleet: EdgeFleet,
        host: str = "127.0.0.1",
        port: int = 0,
        batching: Optional[BatchingConfig] = None,
    ) -> None:
        super().__init__(fleet, host=host, port=port, batching=batching)
        self.fleet = fleet
