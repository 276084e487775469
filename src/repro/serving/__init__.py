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

from repro.serving.adaptive import AdaptiveController, SLOPolicy
from repro.serving.api import LibEIDispatcher, parse_path
from repro.serving.cache import SelectionCache
from repro.serving.client import LibEIClient
from repro.serving.fleet import EdgeFleet, FleetGateway
from repro.serving.recovery import recover_control_plane
from repro.serving.rollout import RolloutController, RolloutPolicy
from repro.serving.router import RoundRobinRouter
from repro.serving.server import LibEIServer
from repro.serving.supervisor import GatewaySupervisor
from repro.serving.telemetry import ALEMTelemetry

__all__ = [
    "ALEMTelemetry",
    "AdaptiveController",
    "EdgeFleet",
    "FleetGateway",
    "GatewaySupervisor",
    "LibEIClient",
    "LibEIDispatcher",
    "LibEIServer",
    "RolloutController",
    "RolloutPolicy",
    "RoundRobinRouter",
    "SLOPolicy",
    "SelectionCache",
    "parse_path",
    "recover_control_plane",
]
