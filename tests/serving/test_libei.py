"""Tests for the libei URL grammar, dispatcher, HTTP server and client."""

import json
import socket
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.core import OpenEI
from repro.data import CameraSensor
from repro.exceptions import APIError, ReproError
from repro.serving import LibEIClient, LibEIDispatcher, LibEIServer, parse_path
from repro.serving.http import Connection


# -- URL grammar (Fig. 6) -------------------------------------------------------

def test_parse_paper_algorithm_example():
    request = parse_path("/ei_algorithms/safety/detection/{video=camera1}")
    assert request.resource_type == "ei_algorithms"
    assert request.scenario == "safety"
    assert request.algorithm == "detection"
    assert request.args == {"video": "camera1"}


def test_parse_paper_data_example():
    request = parse_path("/ei_data/realtime/camera1/{timestamp=123.5}")
    assert request.resource_type == "ei_data"
    assert request.data_type == "realtime"
    assert request.sensor_id == "camera1"
    assert request.args == {"timestamp": 123.5}


def test_parse_query_string_arguments():
    request = parse_path("/ei_data/historical/camera1/?start=1.0&end=5.5")
    assert request.data_type == "historical"
    assert request.args == {"start": 1.0, "end": 5.5}


def test_parse_json_style_arguments_and_booleans():
    request = parse_path('/ei_algorithms/home/power_monitor/{"verbose": true, "count": 3}')
    assert request.args == {"verbose": True, "count": 3}
    request2 = parse_path("/ei_algorithms/home/power_monitor/?urgent=true")
    assert request2.args == {"urgent": True}


def test_parse_status_and_invalid_paths():
    assert parse_path("/ei_status").resource_type == "ei_status"
    for bad in ("/", "/unknown/a/b", "/ei_algorithms/safety", "/ei_data/streaming/cam1"):
        with pytest.raises(APIError):
            parse_path(bad)


# -- dispatcher -------------------------------------------------------------------

@pytest.fixture()
def served_openei(image_zoo):
    openei = OpenEI(device_name="raspberry-pi-4", zoo=image_zoo)
    openei.data_store.register_sensor(CameraSensor(sensor_id="camera1", seed=0))

    def detection(ei, args):
        reading = ei.data_store.realtime(str(args.get("video", "camera1")))
        return {"timestamp": reading.timestamp, "num_boxes": len(reading.annotations["boxes"])}

    openei.register_algorithm("safety", "detection", detection)
    return openei


def test_dispatcher_safe_handle_maps_errors_to_status_codes(served_openei):
    """A handler bug is a 500.  The 400 and 404 spellings are rows of the
    conformance table (``test_conformance.py``), on every transport."""
    dispatcher = LibEIDispatcher(served_openei)

    def broken(ei, args):
        raise ValueError("handler bug")

    served_openei.register_algorithm("safety", "broken", broken)
    assert dispatcher.safe_handle_path("/ei_algorithms/safety/broken/")[0] == 500


# -- HTTP server + client -------------------------------------------------------------

def test_server_round_trip_with_client(served_openei):
    server = LibEIServer(served_openei)
    with server:
        client = LibEIClient(server.address)
        assert client.status()["status"] == "ok"
        response = client.call_algorithm("safety", "detection", {"video": "camera1"})
        assert response["status"] == "ok"
        realtime = client.realtime_data("camera1", timestamp=0.0)
        assert realtime["data"]["sensor_id"] == "camera1"
        historical = client.historical_data("camera1", start=0.0, end=100.0)
        assert historical["data"]["count"] >= 1
        body, seconds = client.timed_get("/ei_status")
        assert body["status"] == "ok" and seconds >= 0.0
        assert server.url.startswith("http://127.0.0.1:")


def test_a_burst_of_connections_waits_in_the_listen_backlog(served_openei):
    """Connections a busy server has not accepted yet queue in the kernel.

    Nothing accepts here (the server is never started), so every
    connection beyond the listen backlog would be dropped and time out.
    """
    server = LibEIServer(served_openei)
    try:
        for _ in range(32):
            connection = socket.create_connection(server.address, timeout=0.5)
            connection.close()
    finally:
        server.stop()


def test_client_raises_api_error_on_missing_resources(served_openei):
    server = LibEIServer(served_openei)
    with server:
        client = LibEIClient(server.address)
        with pytest.raises(APIError):
            client.call_algorithm("safety", "missing")
        with pytest.raises(APIError):
            client.get("/nonsense")


def test_client_unreachable_endpoint_raises():
    client = LibEIClient(("127.0.0.1", 9), timeout_s=0.5)
    with pytest.raises(APIError):
        client.status()


# -- client error paths ----------------------------------------------------------

class _CannedHandler(BaseHTTPRequestHandler):
    """Replies to every GET with a fixed (status, body) pair."""

    canned_status = 200
    canned_body = b"{}"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        del format, args

    def do_GET(self):  # noqa: N802 - stdlib naming
        self.send_response(self.canned_status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.canned_body)))
        self.end_headers()
        self.wfile.write(self.canned_body)


@contextmanager
def canned_server(status: int, body: bytes):
    handler = type("Handler", (_CannedHandler,), {"canned_status": status, "canned_body": body})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()


def test_client_non_200_json_error_body():
    with canned_server(503, b'{"status": "error", "error": "fleet draining"}') as address:
        client = LibEIClient(address)
        with pytest.raises(APIError, match="503.*fleet draining"):
            client.status()


def test_client_non_200_non_json_error_body():
    with canned_server(500, b"<html>boom</html>") as address:
        client = LibEIClient(address)
        with pytest.raises(APIError, match="500"):
            client.status()


def test_client_malformed_json_on_success_status():
    with canned_server(200, b"this is not json") as address:
        client = LibEIClient(address)
        with pytest.raises(APIError, match="malformed JSON"):
            client.status()


def test_client_connection_refused_fails_over_to_replica(served_openei):
    server = LibEIServer(served_openei)
    with server:
        dead = ("127.0.0.1", 9)  # discard port: connection refused
        client = LibEIClient([dead, server.address], timeout_s=2.0)
        assert client.status()["status"] == "ok"
        # the client sticks with the replica that answered
        host, port = server.address
        assert client.base_url == f"http://{host}:{port}"


class _TruncatingHandler(BaseHTTPRequestHandler):
    """Advertises a large body but closes the connection early."""

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        del format, args

    def do_GET(self):  # noqa: N802 - stdlib naming
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", "1000")
        self.end_headers()
        self.wfile.write(b'{"status"')  # far fewer than 1000 bytes


def test_client_mid_read_failure_fails_over(served_openei):
    broken = ThreadingHTTPServer(("127.0.0.1", 0), _TruncatingHandler)
    thread = threading.Thread(target=broken.serve_forever, daemon=True)
    thread.start()
    try:
        with LibEIServer(served_openei) as good:
            client = LibEIClient([broken.server_address, good.address], timeout_s=2.0)
            assert client.status()["status"] == "ok"
    finally:
        broken.shutdown()
        thread.join(timeout=5.0)
        broken.server_close()


def test_client_all_replicas_down_raises_after_retries():
    client = LibEIClient([("127.0.0.1", 9), ("127.0.0.1", 10)], timeout_s=0.5,
                         retries=1, backoff_s=0.0)
    with pytest.raises(APIError, match="unreachable"):
        client.status()


def test_client_failover_pass_visits_every_replica_once_when_primary_moves():
    """Regression: ``get`` re-read ``_primary`` on every offset of a pass,
    so another thread moving it mid-pass made a two-replica client try
    the dead replica twice and the live one never."""
    client = LibEIClient([("127.0.0.1", 9), ("127.0.0.1", 10)], retries=0)
    visited = []

    def fake_get_from(index, path):
        visited.append(index)
        # what a concurrent caller's success on the other replica does
        client._primary = (client._primary + 1) % len(client.addresses)
        if index == 0:
            raise ConnectionRefusedError(111, "Connection refused")
        return {"status": "ok"}

    client._get_from = fake_get_from
    assert client.get("/ei_status") == {"status": "ok"}
    assert visited == [0, 1]

    # and a pass over all-dead replicas still tries each exactly once
    visited.clear()
    client._primary = 0

    def dead_get_from(index, path):
        visited.append(index)
        client._primary = (client._primary + 1) % len(client.addresses)
        raise ConnectionRefusedError(111, "Connection refused")

    client._get_from = dead_get_from
    with pytest.raises(APIError, match="unreachable"):
        client.get("/ei_status")
    assert sorted(visited) == [0, 1]


def test_client_rejects_invalid_configuration():
    with pytest.raises(ReproError):
        LibEIClient([])
    with pytest.raises(ReproError):
        LibEIClient(("127.0.0.1", 9), retries=-1)


def test_server_is_its_own_context_manager(served_openei):
    with LibEIServer(served_openei) as server:
        assert LibEIClient(server.address).status()["status"] == "ok"
    # socket is fully closed after exit: a fresh server can rebind the port
    host, port = server.address
    rebound = LibEIServer(served_openei, host=host, port=port)
    rebound.stop()  # also safe on a never-started server


class _ResettingHandler(BaseHTTPRequestHandler):
    """Accepts the request, then aborts the TCP connection with an RST.

    SO_LINGER with a zero timeout makes ``close()`` send a reset instead
    of a FIN: the client sees ``ECONNRESET`` *mid-request* — a different
    failure mode from connection-refused (no listener) and from a
    truncated body (clean close after partial data).
    """

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        del format, args

    def do_GET(self):  # noqa: N802 - stdlib naming
        import socket
        import struct

        self.connection.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        self.connection.close()


def test_client_connection_reset_mid_request_fails_over(served_openei):
    quiet = type(
        "QuietServer", (ThreadingHTTPServer,),
        {"handle_error": lambda self, request, address: None},
    )
    resetting = quiet(("127.0.0.1", 0), _ResettingHandler)
    thread = threading.Thread(target=resetting.serve_forever, daemon=True)
    thread.start()
    try:
        with LibEIServer(served_openei) as good:
            client = LibEIClient([resetting.server_address, good.address], timeout_s=2.0)
            assert client.status()["status"] == "ok"
            # the client sticks with the replica that answered...
            host, port = good.address
            assert client.base_url == f"http://{host}:{port}"
            # ...so the reset replica is not retried on the next call
            assert client.call_algorithm("safety", "detection")["status"] == "ok"
    finally:
        resetting.shutdown()
        thread.join(timeout=5.0)
        resetting.server_close()


# -- persistent connections: the client's idle stack --------------------------------

def accepted_connections(server: LibEIServer) -> list:
    """Count accepts: every connection the server takes passes ``get_request``."""
    accepted = []
    get_request = server._server.get_request

    def counting_get_request():
        request = get_request()
        accepted.append(request[1])
        return request

    server._server.get_request = counting_get_request
    return accepted


def waiting_connections(server: LibEIServer, count: int) -> list:
    """The server's idle accepted sockets, once there are exactly ``count`` of them.

    A handler parks its connection *after* writing the response and lets
    go of it after noticing the close, so either can trail the client.
    The server's park/claim/forget are wrapped (once per server) to notify
    a condition after each change, so this waits for it instead of polling.
    """
    inner = server._server
    changed = getattr(inner, "_test_changed", None)
    if changed is None:
        changed = inner._test_changed = threading.Condition()

        def notifying(method):
            def call(connection):
                result = method(connection)
                with changed:
                    changed.notify_all()
                return result
            return call

        for name in ("park", "claim", "forget"):
            setattr(inner, name, notifying(getattr(inner, name)))
    with changed:
        assert changed.wait_for(lambda: len(inner._waiting) == count, timeout=10.0)
        return list(inner._waiting)


def test_sequential_gets_share_one_accepted_connection(served_openei):
    server = LibEIServer(served_openei)
    accepted = accepted_connections(server)
    with server, LibEIClient(server.address) as client:
        for _ in range(25):
            assert client.status()["status"] == "ok"
        assert client.call_algorithm("safety", "detection")["status"] == "ok"
        assert len(accepted) == 1
        assert [len(stack) for stack in client._idle] == [1]


def test_stale_pooled_connection_is_retried_on_the_same_replica(served_openei, monkeypatch):
    spare = LibEIServer(served_openei)
    server = LibEIServer(served_openei)
    accepted = accepted_connections(server)
    with spare, server:
        client = LibEIClient([server.address, spare.address], retries=2, backoff_s=5.0)
        assert client.status()["status"] == "ok"
        # the server ends the pooled connection behind the client's back
        (pooled,) = client._idle[0]
        (accepted_socket,) = waiting_connections(server, 1)
        accepted_socket.shutdown(socket.SHUT_RDWR)
        waiting_connections(server, 0)

        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        assert client.status()["status"] == "ok"
        assert len(accepted) == 2                    # redialled the same replica...
        assert client._primary == 0                  # ...which stays primary
        assert client._idle[1] == []                 # the spare was never asked
        assert slept == []                           # and no retries pass was spent
        assert client._idle[0] != [pooled]           # the dead connection is gone


def test_at_most_one_same_replica_retry_per_stale_connection(served_openei, monkeypatch):
    """A stale connection to a replica that is really down costs one fresh
    dial (refused), then failover — not a loop."""
    with LibEIServer(served_openei) as live:
        doomed = LibEIServer(served_openei)
        doomed.start()
        client = LibEIClient([doomed.address, live.address], timeout_s=2.0)
        assert client.status()["status"] == "ok" and client._primary == 0
        (pooled,) = client._idle[0]
        doomed.stop()
        events = []
        dial, get = socket.create_connection, Connection.get

        def recording_dial(address, *args, **kwargs):
            events.append(("dial", client.addresses.index(address)))
            return dial(address, *args, **kwargs)

        def recording_get(connection, path):
            events.append(("get", "pooled" if connection is pooled else "fresh"))
            return get(connection, path)

        monkeypatch.setattr(socket, "create_connection", recording_dial)
        monkeypatch.setattr(Connection, "get", recording_get)
        assert client.status()["status"] == "ok"
        assert events == [("get", "pooled"), ("dial", 0), ("dial", 1), ("get", "fresh")]
        assert client._primary == 1


def test_http10_peer_is_never_pooled():
    """``canned_server`` speaks HTTP/1.0, so every response will close.  (The
    HTTP/1.1 ``Connection: close`` case is the in-flight-kill test in
    ``test_supervisor.py``.)"""
    with canned_server(200, b'{"status": "ok"}') as address:
        client = LibEIClient(address)
        for _ in range(3):
            assert client.status() == {"status": "ok"}
        assert client._idle == [[]]


def test_error_status_drains_the_body_before_the_connection_is_reused(served_openei):
    class Draining(LibEIDispatcher):
        def safe_handle_path(self, path):
            if path == "/draining":
                return 503, {"status": "error", "error": "fleet draining " + "x" * 4096}
            return super().safe_handle_path(path)

    server = LibEIServer(Draining(served_openei))
    accepted = accepted_connections(server)
    with server, LibEIClient(server.address) as client:
        for _ in range(3):
            with pytest.raises(APIError, match="503.*fleet draining"):
                client.get("/draining")
            with pytest.raises(APIError, match="404"):
                client.call_algorithm("safety", "missing")
            assert client.status()["status"] == "ok"
        assert len(accepted) == 1  # error responses kept the connection usable


def test_threads_sharing_one_client_never_interleave_on_a_connection(served_openei):
    def echo(ei, args):
        return {"seq": args["seq"]}

    served_openei.register_algorithm("safety", "echo", echo)
    threads_n, calls_n = 8, 200
    wrong = []
    crashed = []
    server = LibEIServer(served_openei)
    accepted = accepted_connections(server)

    def worker(index: int, client: LibEIClient) -> None:
        try:
            for k in range(calls_n):
                seq = index * calls_n + k
                body = client.call_algorithm("safety", "echo", {"seq": seq})
                if body["result"]["seq"] != seq:
                    wrong.append((seq, body))
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            crashed.append(exc)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # widen every take/give-back race window
    try:
        with server, LibEIClient(server.address) as client:
            workers = [threading.Thread(target=worker, args=(i, client))
                       for i in range(threads_n)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60.0)
            idle = len(client._idle[0])
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in workers)
    assert crashed == [] and wrong == []
    # a connection is held by one call at a time, so there are never more
    # of them than callers, and every one came back to the stack
    assert 1 <= len(accepted) <= threads_n
    assert idle == len(accepted)


def test_close_closes_idle_connections_and_stays_idempotent(served_openei):
    with LibEIServer(served_openei) as server:
        client = LibEIClient(server.address)
        assert client.status()["status"] == "ok"
        pooled = list(client._idle[0])
        assert pooled and all(c.sock.fileno() != -1 for c in pooled)
        client.close()
        assert client._idle == [[]]
        assert all(c.sock.fileno() == -1 for c in pooled)  # the sockets really closed
        client.close()
        # a closed client is not poisoned: the next call dials afresh
        assert client.status()["status"] == "ok"
        client.close()


# -- persistent connections: the server side ---------------------------------------

def read_to_eof(sock: socket.socket) -> bytes:
    received = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return received
        received += chunk


def test_http10_request_is_answered_then_closed_by_the_server(served_openei):
    """``bench/servebench/passes.py::_response_header_bytes`` reads to EOF:
    it must see the close at once, not after the idle timeout (the
    socket's own 5 s timeout, far below ``IDLE_TIMEOUT_S``, fails the
    read otherwise)."""
    with LibEIServer(served_openei) as server:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(b"GET /ei_status HTTP/1.0\r\nHost: test\r\n\r\n")
            received = read_to_eof(sock)
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["status"] == "ok"
        assert int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0]) == len(body)


def test_http11_connection_serves_many_requests_and_honours_connection_close(served_openei):
    with LibEIServer(served_openei) as server:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            reader = sock.makefile("rb")
            for _ in range(3):
                sock.sendall(b"GET /ei_status HTTP/1.1\r\nHost: test\r\n\r\n")
                headers = {}
                assert reader.readline() == b"HTTP/1.1 200 OK\r\n"
                for line in iter(reader.readline, b"\r\n"):
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.lower()] = value.strip()
                assert "connection" not in headers
                assert json.loads(reader.read(int(headers["content-length"])))["status"] == "ok"
            sock.sendall(b"GET /ei_status HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
            assert b"\r\nConnection: close\r\n" in reader.read()  # read() returns at EOF


def test_idle_timeout_closes_a_silent_connection(served_openei):
    from repro.serving.server import IDLE_TIMEOUT_S

    server = LibEIServer(served_openei)
    handler_class = server._server.RequestHandlerClass
    assert handler_class.timeout == IDLE_TIMEOUT_S
    handler_class.timeout = 0.2  # this server's bound subclass only
    with server:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            started = time.monotonic()
            assert read_to_eof(sock) == b""  # closed without a byte sent either way
            assert 0.1 < time.monotonic() - started < 4.0
        # a connection that does talk is served, then idles out the same way
        client = LibEIClient(server.address)
        assert client.status()["status"] == "ok"
        waiting_connections(server, 0)
        # ...which the client sees as a stale pooled connection and redials
        assert client.status()["status"] == "ok"
