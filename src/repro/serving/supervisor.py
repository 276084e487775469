"""Gateway supervision: keep N HTTP front-ends alive over one fleet.

One :class:`~repro.serving.fleet.EdgeFleet` can sit behind several
:class:`~repro.serving.fleet.FleetGateway` front-ends; a
:class:`~repro.serving.client.LibEIClient` given all their addresses
fails over when one goes down.  :class:`GatewaySupervisor` owns that
gateway set and closes the loop operationally:

* :meth:`kill` takes a gateway down hard (its listening socket closes,
  new connections are refused, and the keep-alive connections it had
  accepted are ended — a request already in its handler is answered
  first) — the fault-injection primitive used by the chaos suite and
  :class:`~repro.loadgen.faults.FaultInjector`;
* :meth:`restart` **re-registers** the replica: a fresh
  :class:`~repro.serving.fleet.FleetGateway` over the *same* fleet is
  rebound to the *same* address, so clients holding the address list
  fail back without reconfiguration (the stdlib server sets
  ``allow_reuse_address``, making an immediate rebind safe).

The supervisor is a context manager: entering starts every gateway,
exiting stops whatever is still alive.  All mutations are lock-protected
because fault injectors fire from their own threads while request
workers read :attr:`addresses`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError, ResourceNotFoundError
from repro.serving.fleet import EdgeFleet, FleetGateway


class GatewaySupervisor:
    """Lifecycle manager for a set of gateways over one shared fleet."""

    def __init__(
        self,
        fleet: EdgeFleet,
        gateways: int = 2,
        host: str = "127.0.0.1",
        recovery: Optional[Callable[[], object]] = None,
    ) -> None:
        if gateways <= 0:
            raise ConfigurationError("a supervisor needs at least one gateway")
        self.fleet = fleet
        self.host = host
        # the durable-control-plane hook, typically a closure over
        # repro.serving.recovery.recover_control_plane: it runs before the
        # first gateway binds and again on every restart(), so a replica
        # that comes back always converges to the journaled fleet state
        # before taking traffic.  It MUST be idempotent — and
        # recover_control_plane is.
        self.recovery = recovery
        self.recoveries = 0  # guarded-by: _lock
        self._lock = threading.RLock()
        self._gateways: List[Optional[FleetGateway]] = []  # guarded-by: _lock
        # slot addresses are fixed at construction and never mutated, so
        # reads need no lock; the *list* is copied before handing out
        self._addresses: List[Tuple[str, int]] = []
        #: slots whose replacement gateway is being bound outside the lock
        self._restarting: set = set()  # guarded-by: _lock
        self.kills = 0  # guarded-by: _lock
        self.restarts = 0  # guarded-by: _lock
        for _ in range(gateways):
            gateway = FleetGateway(fleet, host=host, port=0)
            self._gateways.append(gateway)
            self._addresses.append(gateway.address)

    # -- lifecycle --------------------------------------------------------------
    # start/stop/kill snapshot the slot table under the lock but do the
    # actual socket work outside it: FleetGateway.start() binds a socket
    # and stop() joins the server thread, and holding the registry lock
    # across either stalls every concurrent health probe and address read
    # behind network I/O.

    def start(self) -> "GatewaySupervisor":
        """Start every gateway that is not already serving.

        When a recovery hook is configured it runs *first*: the journaled
        control state (baseline deploys, telemetry, an open canary lease)
        is restored before any gateway accepts a request.
        """
        self._recover()
        with self._lock:
            alive = [g for g in self._gateways if g is not None]
        for gateway in alive:
            gateway.start()
        return self

    def _recover(self) -> None:
        """Run the recovery hook outside the lock (it deploys models)."""
        if self.recovery is None:
            return
        self.recovery()
        with self._lock:
            self.recoveries += 1

    def stop(self) -> None:
        """Stop every gateway that is still alive (idempotent)."""
        with self._lock:
            doomed = [g for g in self._gateways if g is not None]
            self._gateways = [None] * len(self._gateways)
        for gateway in doomed:
            gateway.stop()

    def __enter__(self) -> "GatewaySupervisor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- introspection ----------------------------------------------------------
    @property
    def addresses(self) -> List[Tuple[str, int]]:
        """Every gateway slot's bound address — stable across kill/restart.

        Dead slots keep their address in the list on purpose: clients are
        configured once with the full replica set and rely on failover,
        exactly as they would with a static load-balancer pool.
        """
        with self._lock:
            return list(self._addresses)

    def __len__(self) -> int:
        return len(self._addresses)

    def alive(self, index: int) -> bool:
        """Whether the gateway in one slot is currently serving."""
        with self._lock:
            self._check_index(index)
            return self._gateways[index] is not None

    def gateway(self, index: int) -> FleetGateway:
        """The live gateway in one slot (raises if it was killed)."""
        with self._lock:
            self._check_index(index)
            gateway = self._gateways[index]
            if gateway is None:
                raise ResourceNotFoundError(
                    f"gateway {index} is down; restart() re-registers it"
                )
            return gateway

    # -- fault surface -----------------------------------------------------------
    def kill(self, index: int) -> Tuple[str, int]:
        """Take one gateway down hard; returns the address that went dark.

        New connections to the slot are refused until :meth:`restart`
        and pooled ones are severed (see :meth:`LibEIServer.stop`);
        clients with the full address list fail over to the survivors.
        """
        with self._lock:
            self._check_index(index)
            gateway = self._gateways[index]
            if gateway is None:
                raise ResourceNotFoundError(f"gateway {index} is already down")
            self._gateways[index] = None
            self.kills += 1
            address = self._addresses[index]
        # the slot is already marked dead, so the thread join inside
        # stop() happens without stalling other supervisor calls
        gateway.stop()
        return address

    def restart(self, index: int) -> FleetGateway:
        """Re-register a killed gateway on its original address.

        The replacement is a brand-new :class:`FleetGateway` over the
        same fleet — shared selection cache, telemetry, adaptive and
        rollout controllers all reattach for free because they live on
        the fleet, not the HTTP front-end.
        """
        with self._lock:
            self._check_index(index)
            if self._gateways[index] is not None:
                raise ConfigurationError(f"gateway {index} is already serving")
            if index in self._restarting:
                raise ConfigurationError(f"gateway {index} is already restarting")
            # claim the slot so a concurrent restart cannot double-bind,
            # then do the socket bind + server start outside the lock
            self._restarting.add(index)
            host, port = self._addresses[index]
        try:
            # recovery runs before the replacement binds: a restarted
            # replica converges to the journaled control state before it
            # can take a single request (restart-into-recovery, ROADMAP 3)
            self._recover()
            gateway = FleetGateway(self.fleet, host=host, port=port)
            gateway.start()
        except BaseException:
            with self._lock:
                self._restarting.discard(index)
            raise
        with self._lock:
            self._restarting.discard(index)
            self._gateways[index] = gateway
            self.restarts += 1
            return gateway

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self._addresses):
            raise ResourceNotFoundError(
                f"no gateway slot {index}; supervisor manages {len(self._addresses)}"
            )

    def describe(self) -> Dict[str, object]:
        """Status summary (mirrors the fleet's ``/ei_status`` style)."""
        with self._lock:
            return {
                "gateways": len(self._addresses),
                "alive": sum(1 for g in self._gateways if g is not None),
                "kills": self.kills,
                "restarts": self.restarts,
                "recoveries": self.recoveries,
                "slots": [
                    {"index": i, "address": list(self._addresses[i]),
                     "alive": self._gateways[i] is not None}
                    for i in range(len(self._addresses))
                ],
            }
