"""Threaded HTTP/1.1 server exposing libei over the network.

Connections are persistent: a handler thread lives as long as its
connection and serves every request the peer sends on it, so a caller
that reuses connections (:class:`~repro.serving.client.LibEIClient`
does) pays TCP set-up and thread start once, not per request.  Requests
are framed by :mod:`repro.serving.http`, the subset of HTTP/1.1 libei
speaks.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import Optional, Set, Tuple

from repro.serving.api import LibEIDispatcher, LibEITarget, encode_body
from repro.serving.http import FramingError, read_request, response_head

#: Seconds a connection may sit without a complete request (or a peer
#: may stall a response write) before the server closes it and the
#: handler thread ends.  Clients see a closed pooled connection and
#: redial; see ``LibEIClient``'s stale-connection rule.
IDLE_TIMEOUT_S = 30.0

#: How often ``serve_forever`` looks for a shutdown request between
#: accepts.  ``stop()`` — and so every ``GatewaySupervisor.kill()`` /
#: ``restart()`` and context-manager exit — waits out at most this, not
#: the stdlib's default half second.
SHUTDOWN_POLL_S = 0.02


class _LibEIRequestHandler(socketserver.BaseRequestHandler):
    """Serves one connection: each GET goes to the libei dispatcher, each answer is JSON."""

    timeout = IDLE_TIMEOUT_S  # applied to the accepted socket by handle()
    dispatcher: LibEIDispatcher  # injected by LibEIServer
    server: "_LibEIHTTPServer"
    request: socket.socket

    def handle(self) -> None:
        connection = self.request
        connection.settimeout(self.timeout)
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if not self.server.park(connection):
            return  # accepted in the instant stop() ran: close unanswered
        buffer = bytearray()  # bytes received past the request being answered
        try:
            while self._answer(connection, buffer):
                pass
        except OSError:
            # how a persistent connection ends when the peer resets it,
            # idles past the timeout, or writes into one stop() severed:
            # nobody is left to answer
            pass
        finally:
            self.server.forget(connection)

    def _answer(self, connection: socket.socket, buffer: bytearray) -> bool:
        """Read one request and answer it; False when the connection is to close."""
        try:
            request = read_request(connection, buffer)
        except FramingError as error:
            payload = encode_body({"status": "error", "error": str(error)})
            connection.sendall(response_head(error.status, len(payload), True) + payload)
            return False
        if request is None:
            return False  # the peer closed between requests
        if not self.server.claim(connection):
            # stop() found this connection waiting and severed it while the
            # request was being read; the peer redials elsewhere
            return False
        path, keep_alive = request
        try:
            status, body = self.dispatcher.safe_handle_path(path)
            payload = encode_body(body)
            if self.server.closing.is_set():
                keep_alive = False
            # ONE write: a head and a body written separately park the
            # body behind Nagle until the peer's delayed ACK (~40 ms) on
            # every request after a connection's first
            connection.sendall(response_head(status, len(payload), not keep_alive) + payload)
        finally:
            if not self.server.park(connection):
                keep_alive = False
        return keep_alive


class _LibEIHTTPServer(socketserver.ThreadingTCPServer):
    """A threading TCP server that can end the connections it accepted.

    With keep-alive a closed listening socket is not enough to take a
    server down: a peer holding an open connection would go on being
    answered.  Handlers report here whenever their connection starts
    waiting for a request (:meth:`park`) and when one arrives
    (:meth:`claim`), so :meth:`sever` can shut the waiting connections
    down at once and leave the claimed ones to close after their response.
    """

    allow_reuse_address = True  # restart() rebinds the port a killed server held
    # the listen backlog: socketserver's 5 drops the rest of a connection
    # burst, and each dropped peer waits out a SYN retransmit (1 s or more)
    request_queue_size = socket.SOMAXCONN
    daemon_threads = True  # stop() must not wait on a connection's thread

    def __init__(self, address: Tuple[str, int], handler: type) -> None:
        super().__init__(address, handler)
        # leaf lock: held for set updates only, never across socket I/O
        self._lock = threading.Lock()
        #: live connections waiting for a request (not inside a handler)
        self._waiting: Set[socket.socket] = set()  # guarded-by: _lock
        #: set by sever() under _lock, so park/claim order against it
        self.closing = threading.Event()

    def park(self, connection: socket.socket) -> bool:
        """The connection now waits for a request; False when the server is closing."""
        with self._lock:
            if self.closing.is_set():
                return False
            self._waiting.add(connection)
            return True

    def claim(self, connection: socket.socket) -> bool:
        """A request arrived on the connection; False when :meth:`sever` got to it first."""
        with self._lock:
            self._waiting.discard(connection)
            return not self.closing.is_set()

    def forget(self, connection: socket.socket) -> None:
        """The connection is ending, whichever side ended it."""
        with self._lock:
            self._waiting.discard(connection)

    def sever(self) -> None:
        """Shut down every waiting connection; claimed ones close after their response."""
        with self._lock:
            self.closing.set()
            waiting, self._waiting = self._waiting, set()
        for connection in waiting:
            try:
                # wakes the handler thread blocked on the next request line
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer, or the handler, already closed it


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
    """

    def __init__(
        self,
        target: LibEITarget,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.dispatcher = target if isinstance(target, LibEIDispatcher) else LibEIDispatcher(target)
        handler = type(
            "BoundLibEIRequestHandler",
            (_LibEIRequestHandler,),
            {"dispatcher": self.dispatcher},
        )
        self._server = _LibEIHTTPServer((host, port), handler)
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
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(SHUTDOWN_POLL_S,), daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting, close the listening socket, end accepted connections.

        A request in flight still gets its complete response, marked
        ``Connection: close``; idle connections are shut down, so no
        request sent after this returns is answered by this server —
        a peer holding a pooled connection finds it closed and redials.

        Safe to call repeatedly; ``server_close()`` runs even if the
        server never started, so a constructed-but-unused server does not
        leak its bound socket either.
        """
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()
        self._server.sever()

    def __enter__(self) -> "LibEIServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
