"""A small urllib-based client for libei endpoints.

This is what "other edges and IoT devices" use to call a peer's
algorithms and read its data (Section III.D) — and what the Fig. 6
benchmark uses to measure round-trip latency.

The client accepts either one ``(host, port)`` address or a list of
replica addresses (several :class:`~repro.serving.fleet.FleetGateway`
front-ends over one fleet).  When a replica is unreachable it fails over
to the next one, sticking with whichever last answered; ``retries``
adds full extra passes over the replica set with ``backoff_s`` sleeps
in between.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import APIError, ConfigurationError

Address = Tuple[str, int]


def _normalize_addresses(address: Union[Address, Sequence[Address]]) -> List[Address]:
    """Accept one (host, port) pair or a sequence of them."""
    if isinstance(address, tuple) and len(address) == 2 and isinstance(address[0], str):
        return [(address[0], int(address[1]))]
    addresses = [(str(host), int(port)) for host, port in address]
    if not addresses:
        raise ConfigurationError("LibEIClient needs at least one endpoint address")
    return addresses


class LibEIClient:
    """HTTP client speaking the libei URL grammar, with replica failover.

    The client is safe to share across threads: each :meth:`get` opens
    its own connection, and ``_primary`` (the sticky last-good replica
    index) is a single atomic int.  For open-loop load generation,
    :meth:`submit` / :meth:`submit_algorithm` dispatch without blocking
    the caller, on a lazily-built client-owned worker pool sized by
    ``max_workers``; :meth:`close` (or the context-manager exit) tears
    the pool down.
    """

    def __init__(
        self,
        address: Union[Address, Sequence[Address]],
        timeout_s: float = 10.0,
        retries: int = 0,
        backoff_s: float = 0.0,
        max_workers: int = 16,
    ) -> None:
        if retries < 0 or backoff_s < 0:
            raise ConfigurationError("retries and backoff_s must be non-negative")
        if max_workers <= 0:
            raise ConfigurationError("max_workers must be positive")
        self.addresses = _normalize_addresses(address)
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.max_workers = int(max_workers)
        self._primary = 0  # index of the replica that last answered
        self._pool: Optional[ThreadPoolExecutor] = None  # guarded-by: _pool_lock
        self._pool_lock = threading.Lock()

    @property
    def base_url(self) -> str:
        """URL of the current primary replica."""
        host, port = self.addresses[self._primary]
        return f"http://{host}:{port}"

    # -- low-level ------------------------------------------------------------
    def _get_from(self, replica_index: int, path: str) -> Dict[str, object]:
        """GET from one replica; APIError for HTTP errors and malformed bodies."""
        host, port = self.addresses[replica_index]
        url = f"http://{host}:{port}" + path
        try:
            with urllib.request.urlopen(url, timeout=self.timeout_s) as response:
                raw = response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            try:
                body = json.loads(exc.read().decode("utf-8"))
                message = body.get("error", str(exc))
            except Exception:  # noqa: BLE001 - body may not be JSON
                message = str(exc)
            raise APIError(f"libei request failed ({exc.code}): {message}") from exc
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
        bodies do not, since the endpoint did answer.
        """
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
                # OSError covers URLError, timeouts and mid-read resets
                # (ConnectionResetError); HTTPException covers truncated
                # responses (IncompleteRead).  APIError — an HTTP error
                # status or malformed body — is NOT caught: the replica
                # answered, so failing over would mask real errors.
                except (OSError, http.client.HTTPException) as exc:
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

    # -- non-blocking dispatch ----------------------------------------------------
    def submit(self, path: str) -> "Future[Dict[str, object]]":
        """Non-blocking :meth:`get`: dispatch on the worker pool, return a future.

        The open-loop firing primitive for HTTP load generation — the
        caller's schedule thread never waits on a response.  Failover
        semantics are identical to :meth:`get` (the future raises
        :class:`~repro.exceptions.APIError` when every replica fails).
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="libei-client"
                )
            pool = self._pool
        return pool.submit(self.get, path)

    def submit_algorithm(
        self, scenario: str, algorithm: str, args: Optional[Dict[str, object]] = None
    ) -> "Future[Dict[str, object]]":
        """Non-blocking :meth:`call_algorithm` (see :meth:`submit`)."""
        query = ""
        if args:
            query = "?" + urllib.parse.urlencode({k: v for k, v in args.items()})
        return self.submit(f"/ei_algorithms/{scenario}/{algorithm}/{query}")

    def close(self, wait: bool = True) -> None:
        """Tear down the :meth:`submit` worker pool (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

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
        query = ""
        if args:
            query = "?" + urllib.parse.urlencode({k: v for k, v in args.items()})
        return self.get(f"/ei_algorithms/{scenario}/{algorithm}/{query}")

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
