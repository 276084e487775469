"""A small client for libei endpoints, framed by :mod:`repro.serving.http`.

This is what "other edges and IoT devices" use to call a peer's
algorithms and read its data (Section III.D) — and what the Fig. 6
benchmark uses to measure round-trip latency.

The client accepts either one ``(host, port)`` address or a list of
replica addresses (several :class:`~repro.serving.fleet.FleetGateway`
front-ends over one fleet).  When a replica is unreachable it fails over
to the next one, sticking with whichever last answered; ``retries``
adds full extra passes over the replica set with ``backoff_s`` sleeps
in between.

Connections are persistent (HTTP/1.1 keep-alive): the client keeps a
stack of idle connections per address and a request takes one, reads its
response fully and gives the connection back, so steady traffic pays TCP
set-up once.  A connection is a ``TCP_NODELAY`` socket plus the bytes
read ahead on it (:class:`~repro.serving.http.Connection`).  A pooled
connection the peer has since closed (idled out, restarted) is told
apart from an unreachable replica: the request is
sent once more on a fresh connection to the *same* replica before
failover is considered.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.parse
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import APIError, ConfigurationError
from repro.serving.http import Connection, FramingError

Address = Tuple[str, int]


def _normalize_addresses(address: Union[Address, Sequence[Address]]) -> List[Address]:
    """Accept one (host, port) pair or a sequence of them."""
    if isinstance(address, tuple) and len(address) == 2 and isinstance(address[0], str):
        return [(address[0], int(address[1]))]
    addresses = [(str(host), int(port)) for host, port in address]
    if not addresses:
        raise ConfigurationError("LibEIClient needs at least one endpoint address")
    return addresses


def _algorithm_path(scenario: str, algorithm: str, args: Optional[Dict[str, object]]) -> str:
    """``/ei_algorithms/<scenario>/<algorithm>/`` with ``args`` as the query string."""
    query = "?" + urllib.parse.urlencode(args) if args else ""
    return f"/ei_algorithms/{scenario}/{algorithm}/{query}"


class LibEIClient:
    """HTTP client speaking the libei URL grammar, with replica failover.

    The client is safe to share across threads: each :meth:`get` has a
    connection to itself for the whole exchange (taken from the idle
    stack or freshly opened, given back only once the response is fully
    read), and ``_primary`` (the sticky last-good replica index) is a
    single atomic int.  The client owns no threads — a load generator
    that must not block on a response brings its own pool and calls
    :meth:`get` from it; :meth:`close` (or the context-manager exit)
    closes the idle connections.
    """

    def __init__(
        self,
        address: Union[Address, Sequence[Address]],
        timeout_s: float = 10.0,
        retries: int = 0,
        backoff_s: float = 0.0,
    ) -> None:
        if retries < 0 or backoff_s < 0:
            raise ConfigurationError("retries and backoff_s must be non-negative")
        self.addresses = _normalize_addresses(address)
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self._primary = 0  # index of the replica that last answered
        # one stack of idle keep-alive connections per address; the lock is
        # a leaf held for the push/pop only, never across socket I/O
        self._idle: List[List[Connection]] = [  # guarded-by: _idle_lock
            [] for _ in self.addresses
        ]
        self._idle_lock = threading.Lock()

    @property
    def base_url(self) -> str:
        """URL of the current primary replica."""
        host, port = self.addresses[self._primary]
        return f"http://{host}:{port}"

    # -- low-level ------------------------------------------------------------
    def _get_from(self, replica_index: int, path: str) -> Dict[str, object]:
        """GET from one replica; APIError for HTTP errors and malformed bodies."""
        with self._idle_lock:
            idle = self._idle[replica_index]
            connection = idle.pop() if idle else None
        if connection is not None:
            try:
                return self._exchange(replica_index, connection, path)
            except ConnectionError:
                # the peer closed this connection since it was pooled (idle
                # timeout, restart): that says nothing about the replica
                # yet, so ask once more on a fresh connection
                pass
        address = self.addresses[replica_index]
        connection = Connection(socket.create_connection(address, timeout=self.timeout_s), address)
        return self._exchange(replica_index, connection, path)

    def _exchange(
        self, replica_index: int, connection: Connection, path: str
    ) -> Dict[str, object]:
        """One request/response on a connection this call owns until it is read out."""
        try:
            response = connection.get(path)
        except BaseException:
            connection.close()  # half-used: must never reach the idle stack
            raise
        if response.will_close:  # HTTP/1.0 peer, "Connection: close", or read to EOF
            connection.close()
        else:
            with self._idle_lock:
                self._idle[replica_index].append(connection)
        raw = response.body.decode("utf-8")
        if not 200 <= response.status < 300:
            try:
                message = json.loads(raw).get("error", response.reason)
            except (ValueError, AttributeError):  # body is not a JSON object
                message = response.reason
            raise APIError(f"libei request failed ({response.status}): {message}")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise APIError(
                f"libei endpoint returned malformed JSON: {raw[:80]!r}"
            ) from exc

    def get(self, path: str) -> Dict[str, object]:
        """GET a path, failing over across replicas (raises APIError on failure).

        Unreachable replicas (connection refused, timeout) trigger
        failover to the next address; HTTP error responses and malformed
        bodies do not, since the endpoint did answer.  A path that cannot
        go on a request line (a space, a control character, non-ASCII) is
        refused before any replica is asked.
        """
        if " " in path or not path.isprintable() or not path.isascii():
            raise APIError(f"libei path must be printable ASCII without spaces: {path[:80]!r}")
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            # snapshot once per pass: another thread moving _primary
            # mid-pass would otherwise make this one try a dead replica
            # twice and the live one never
            start = self._primary
            for offset in range(len(self.addresses)):
                index = (start + offset) % len(self.addresses)
                try:
                    body = self._get_from(index, path)
                # OSError covers refused connections, timeouts and mid-read
                # resets (ConnectionResetError); FramingError covers
                # truncated or garbled responses.  APIError — an HTTP
                # error status or malformed body — is NOT caught: the replica
                # answered, so failing over would mask real errors.
                except (OSError, FramingError) as exc:
                    last_error = exc
                    continue
                self._primary = index
                return body
            if attempt < self.retries and self.backoff_s > 0:
                time.sleep(self.backoff_s)
        reason = getattr(last_error, "reason", last_error)
        raise APIError(f"libei endpoint unreachable: {reason}") from last_error

    def timed_get(self, path: str) -> Tuple[Dict[str, object], float]:
        """GET a path and also return the wall-clock round-trip seconds."""
        start = time.perf_counter()
        body = self.get(path)
        return body, time.perf_counter() - start

    def close(self) -> None:
        """Close the idle connections (idempotent; the client stays usable)."""
        with self._idle_lock:
            stacks, self._idle = self._idle, [[] for _ in self.addresses]
        for stack in stacks:
            for connection in stack:
                connection.close()

    def __enter__(self) -> "LibEIClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- grammar helpers ----------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """GET /ei_status."""
        return self.get("/ei_status")

    def call_algorithm(
        self, scenario: str, algorithm: str, args: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """GET /ei_algorithms/<scenario>/<algorithm>/?args as query string."""
        return self.get(_algorithm_path(scenario, algorithm, args))

    def realtime_data(self, sensor_id: str, timestamp: Optional[float] = None) -> Dict[str, object]:
        """GET /ei_data/realtime/<sensor_id>/{timestamp=...}."""
        suffix = f"%7Btimestamp={timestamp}%7D" if timestamp is not None else ""
        return self.get(f"/ei_data/realtime/{sensor_id}/{suffix}")

    def historical_data(self, sensor_id: str, start: float, end: Optional[float] = None) -> Dict[str, object]:
        """GET /ei_data/historical/<sensor_id>/?start=...&end=..."""
        args: Dict[str, object] = {"start": start}
        if end is not None:
            args["end"] = end
        query = urllib.parse.urlencode(args)
        return self.get(f"/ei_data/historical/{sensor_id}/?{query}")
