"""Threaded HTTP server exposing libei over the network (stdlib only)."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.serving.api import LibEIDispatcher, LibEITarget
from repro.serving.batching import BatchingConfig, BatchingDispatcher


class _LibEIRequestHandler(BaseHTTPRequestHandler):
    """Maps GET requests to the libei dispatcher; responses are JSON."""

    dispatcher: LibEIDispatcher  # injected by LibEIServer

    # silence the default stderr access log
    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        del format, args

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        status, body = self.dispatcher.safe_handle_path(self.path)
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class LibEIServer:
    """A libei HTTP endpoint for one dispatch target.

    The target is anything implementing
    :class:`~repro.serving.api.LibEITarget` — a single deployed OpenEI
    instance, or an :class:`~repro.serving.fleet.EdgeFleet` (which is how
    :class:`~repro.serving.fleet.FleetGateway` is built).

    The server is its own context manager, so examples and tests cannot
    leak sockets::

        with LibEIServer(openei) as server:
            client = LibEIClient(server.address)
            client.get("/ei_status")

    Passing ``batching=BatchingConfig(...)`` wraps the target in a
    :class:`~repro.serving.batching.BatchingDispatcher`, so concurrent
    same-algorithm requests from the handler threads coalesce into one
    vectorized invocation.
    """

    def __init__(
        self,
        target: LibEITarget,
        host: str = "127.0.0.1",
        port: int = 0,
        batching: Optional[BatchingConfig] = None,
    ) -> None:
        self.batching: Optional[BatchingDispatcher] = None
        if batching is not None:
            if isinstance(target, LibEIDispatcher):
                raise ConfigurationError(
                    "batching= cannot wrap an already-built LibEIDispatcher; "
                    "pass the raw target (OpenEI / EdgeFleet) instead"
                )
            target = self.batching = BatchingDispatcher(target, config=batching)
        self.dispatcher = target if isinstance(target, LibEIDispatcher) else LibEIDispatcher(target)
        handler = type(
            "BoundLibEIRequestHandler",
            (_LibEIRequestHandler,),
            {"dispatcher": self.dispatcher},
        )
        self._server = ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) the server is bound to (port is concrete even when 0 was requested)."""
        return self._server.server_address[0], self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the endpoint."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Start serving in a daemon thread."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the server, join its thread, and close the listening socket.

        Safe to call repeatedly; ``server_close()`` runs even if the
        server never started, so a constructed-but-unused server does not
        leak its bound socket either.
        """
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "LibEIServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
