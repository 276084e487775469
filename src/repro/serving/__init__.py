"""libei: the RESTful API of Fig. 6, plus the edge-fleet serving layer.

Every resource — algorithms, data, models, the device itself — is a URL:

* ``/ei_algorithms/<scenario>/<algorithm>/{json-args}`` runs a registered
  scenario algorithm;
* ``/ei_data/realtime/<sensor_id>/{timestamp}`` returns the newest sensor
  reading;
* ``/ei_data/historical/<sensor_id>/{start,end}`` returns a time window;
* ``/ei_status`` describes the deployed OpenEI instance (or whole fleet).

:mod:`repro.serving.api` parses URLs and dispatches them against any
:class:`~repro.serving.api.LibEITarget` without any network;
:mod:`repro.serving.server` exposes a target over a threaded
HTTP/1.1 server with persistent connections, and
:mod:`repro.serving.client` is a small keep-alive client that
reuses them, with replica failover.  Both ends are framed by
:mod:`repro.serving.http`, the subset of HTTP/1.1 libei speaks.

The fleet layer scales the same grammar to many devices:
:mod:`repro.serving.fleet` deploys N OpenEI instances behind one
:class:`~repro.serving.fleet.FleetGateway`, :mod:`repro.serving.router`
chooses which instance serves each request (round-robin, least-loaded,
capability-aware), and :mod:`repro.serving.cache` memoizes Eq. (1) model
selections behind a TTL + LRU :class:`~repro.serving.cache.SelectionCache`.

Under concurrency, :mod:`repro.serving.batching` micro-batches
same-algorithm requests into one vectorized invocation
(:class:`~repro.serving.batching.BatchingDispatcher`); pass
``batching=BatchingConfig(...)`` to :class:`LibEIServer` or
:class:`~repro.serving.fleet.FleetGateway` to turn it on.

What each replica serves per ``(scenario, algorithm)`` is held once, in
the fleet's :class:`~repro.serving.deployments.DeploymentTable` of
frozen :class:`~repro.serving.deployments.Deployment` records, read by
one libei handler; the two controllers below are policy loops that
propose transitions to it.

The model lifecycle layer makes serving *versions* operable:
:mod:`repro.serving.rollout` canaries a new
:class:`~repro.core.registry.ModelRegistry` version on one replica,
judges it on observed ALEM windows, and promotes it fleet-wide (or rolls
it back) without dropping in-flight requests.

The adaptive control plane closes the Eq. (1) loop online:
:mod:`repro.serving.telemetry` records observed per-replica ALEM from
live gateway calls into sliding windows, and
:mod:`repro.serving.adaptive` re-runs the selection (and hot-swaps the
deployed model, or offloads to the cloud) when the measurements violate
the application's :class:`~repro.core.alem.ALEMRequirement`.

The control plane is durable: registry publishes, rollout transitions
(with canary claims journaled as expiring *leases*), telemetry windows
and drift calibration all journal through one
:class:`~repro.core.wal.ControlPlaneJournal`, and
:mod:`repro.serving.recovery` replays that journal so a restarted
process — wired through ``GatewaySupervisor(recovery=...)`` — converges
back to the pre-crash fleet state.
"""

from repro.serving.adaptive import (
    AdaptiveController,
    ControllerStats,
    ReselectionEvent,
    SLOPolicy,
)
from repro.serving.api import LibEIDispatcher, LibEITarget, ParsedRequest, parse_path
from repro.serving.batching import BatchingConfig, BatchingDispatcher, BatchingStats
from repro.serving.cache import CacheStats, SelectionCache, TTLLRUCache
from repro.serving.client import LibEIClient
from repro.serving.deployments import Deployment, DeploymentTable
from repro.serving.fleet import EdgeFleet, FleetGateway, FleetInstance
from repro.serving.recovery import RecoveryReport, recover_control_plane
from repro.serving.rollout import (
    RolloutController,
    RolloutEvent,
    RolloutPolicy,
    RolloutStats,
)
from repro.serving.telemetry import ALEMTelemetry, TelemetryWindow
from repro.serving.router import (
    ROUTING_POLICIES,
    CapabilityAwareRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    RoutingPolicy,
    make_router,
)
from repro.serving.server import LibEIServer
from repro.serving.supervisor import GatewaySupervisor

__all__ = [
    "ALEMTelemetry",
    "AdaptiveController",
    "BatchingConfig",
    "BatchingDispatcher",
    "BatchingStats",
    "CacheStats",
    "CapabilityAwareRouter",
    "ControllerStats",
    "Deployment",
    "DeploymentTable",
    "EdgeFleet",
    "FleetGateway",
    "FleetInstance",
    "GatewaySupervisor",
    "LeastLoadedRouter",
    "LibEIClient",
    "LibEIDispatcher",
    "LibEIServer",
    "LibEITarget",
    "ParsedRequest",
    "ROUTING_POLICIES",
    "RecoveryReport",
    "ReselectionEvent",
    "RolloutController",
    "RolloutEvent",
    "RolloutPolicy",
    "RolloutStats",
    "RoundRobinRouter",
    "RoutingPolicy",
    "SLOPolicy",
    "SelectionCache",
    "TTLLRUCache",
    "TelemetryWindow",
    "make_router",
    "parse_path",
    "recover_control_plane",
]
