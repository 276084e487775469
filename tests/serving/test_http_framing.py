"""Conformance of libei's HTTP/1.1 framing, over raw sockets.

One table per end of the connection.  Every row is run twice — its bytes
sent whole, and sent one byte per ``send`` — and must give the same
outcome both ways: framing may never depend on how TCP segments a
message.  Rows that make a server close never send bytes past the point
of closing, so the close is a clean FIN rather than a reset.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

import pytest

from repro.exceptions import APIError
from repro.serving import LibEIClient, LibEIDispatcher, LibEIServer
from repro.serving import http

SPLITS = ("whole", "bytewise")
CAP = 64  # both head caps, shrunk so the over-cap rows stay small


def send(sock: socket.socket, data: bytes, split: str) -> None:
    if split == "whole":
        sock.sendall(data)
        return
    for k in range(len(data)):
        sock.sendall(data[k:k + 1])


class Echo(LibEIDispatcher):
    """Answers every path with itself, so responses can be told apart."""

    def __init__(self) -> None:
        super().__init__(target=None)

    def safe_handle_path(self, path):
        return 200, {"status": "ok", "path": path}


def read_responses(sock: socket.socket) -> List[Tuple[int, Optional[str], bool]]:
    """Every response until the server closes: ``(status, echoed path, Connection: close)``.

    Parsed line by line with a plain file reader, independently of the
    module under test (whose caps the server rows shrink).
    """
    reader = sock.makefile("rb")
    responses = []
    while True:
        status_line = reader.readline()
        if not status_line:
            return responses
        headers = {}
        for line in iter(reader.readline, b"\r\n"):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.lower()] = value.strip()
        body = json.loads(reader.read(int(headers["content-length"])))
        responses.append((int(status_line.split()[1]), body.get("path"),
                          headers.get("connection") == "close"))


def get(path: str, *headers: str, version: str = "HTTP/1.1") -> bytes:
    lines = [f"GET {path} {version}", "Host: test", *headers, "", ""]
    return "\r\n".join(lines).encode("latin-1")


PROBE = get("/probe", "Connection: close")
OVER_LINE = (b"GET /" + b"a" * CAP)[: CAP + 2]  # no CRLF within the cap
HEAD_START = b"GET /a HTTP/1.1\r\n"
OVER_HEADERS = HEAD_START + b"X-Pad: " + b"b" * CAP  # no blank line within the cap
OVER_HEADERS = OVER_HEADERS[: len(HEAD_START) - 2 + len(b"\r\n\r\n") + CAP + 1]

#: name -> (bytes sent, expected responses).  ``PROBE`` after a request
#: shows the connection stayed open for another one.
SERVER_ROWS = {
    "two pipelined requests in one segment": (
        get("/a") + get("/b") + PROBE,
        [(200, "/a", False), (200, "/b", False), (200, "/probe", True)],
    ),
    "connection: Close in any case": (
        get("/a", "connection: Close"),
        [(200, "/a", True)],
    ),
    "HTTP/1.0 with Connection: keep-alive stays open": (
        get("/a", "Connection: keep-alive", version="HTTP/1.0") + PROBE,
        [(200, "/a", False), (200, "/probe", True)],
    ),
    "HTTP/1.0 without keep-alive closes": (
        get("/a", version="HTTP/1.0"),
        [(200, "/a", True)],
    ),
    "a non-GET method is 501": (
        b"POST /a HTTP/1.1\r\nHost: test\r\n\r\n",
        [(501, None, True)],
    ),
    "a malformed request line is 400": (
        b"GARBAGE\r\n\r\n",
        [(400, None, True)],
    ),
    "a GET with a body is 400": (
        b"GET /a HTTP/1.1\r\nContent-Length: 2\r\n\r\n",
        [(400, None, True)],
    ),
    "a request line over the cap is 414": (OVER_LINE, [(414, None, True)]),
    "a header block over the cap is 431": (OVER_HEADERS, [(431, None, True)]),
    "idle timeout applies mid-header": (b"GET /a HTTP/1.1\r\nHost:", []),
}


@pytest.fixture
def echo_server(monkeypatch) -> Iterator[LibEIServer]:
    monkeypatch.setattr(http, "MAX_REQUEST_LINE", CAP)
    monkeypatch.setattr(http, "MAX_HEADER_BYTES", CAP)
    server = LibEIServer(Echo())
    server._server.RequestHandlerClass.timeout = 0.3  # this server's bound subclass only
    with server:
        yield server


@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("row", sorted(SERVER_ROWS))
def test_server_framing(echo_server, row, split):
    sent, expected = SERVER_ROWS[row]
    with socket.create_connection(echo_server.address, timeout=5.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send(sock, sent, split)
        started = time.monotonic()
        assert read_responses(sock) == expected  # returns only once the server closed
        if not expected:  # closed by the idle timeout, not at once and not never
            assert 0.2 < time.monotonic() - started < 4.0


# -- the client end -------------------------------------------------------------

def response(status: str, body: bytes, *headers: str) -> bytes:
    head = "\r\n".join([f"HTTP/1.1 {status}", *headers, "", ""]).encode("latin-1")
    return head + body


OK = b'{"status": "ok"}'
DRAIN = b'{"status": "error", "error": "fleet draining ' + b"x" * 4096 + b'"}'


@contextmanager
def scripted_peer(script: List[bytes], split: str) -> Iterator[Tuple[str, int]]:
    """A peer that accepts ONE connection, answers each request on it with
    the next scripted bytes, then closes it — a client that redials is
    never answered.  Yields the peer's address."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)

    def serve() -> None:
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5.0)
            buffer = bytearray()
            for answer in script:
                if http.read_request(conn, buffer) is None:
                    break
                send(conn, answer, split)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(timeout=5.0)
        listener.close()


def no_length_is_read_to_eof(split):
    peer = scripted_peer([response("200 OK", OK, "Content-Type: application/json")], split)
    with peer as address:
        client = LibEIClient(address, timeout_s=2.0)
        assert client.status() == {"status": "ok"}
        assert client._idle == [[]]  # a body read to EOF spends the connection


def truncated_body_fails_over(split):
    truncated = response("200 OK", b'{"status"', "Content-Length: 1000")
    good = response("200 OK", OK, "Content-Length: %d" % len(OK))
    with scripted_peer([truncated], split) as broken, scripted_peer([good], split) as live:
        client = LibEIClient([broken, live], timeout_s=2.0)
        assert client.status() == {"status": "ok"}
        assert client._primary == 1
        assert [len(stack) for stack in client._idle] == [0, 1]


def error_body_is_drained_before_pooling(split):
    script = [
        response("503 Service Unavailable", DRAIN, "Content-Length: %d" % len(DRAIN)),
        response("200 OK", OK, "Content-Length: %d" % len(OK)),
    ]
    with scripted_peer(script, split) as address:
        client = LibEIClient(address, timeout_s=2.0)
        with pytest.raises(APIError, match="503.*fleet draining"):
            client.status()
        assert len(client._idle[0]) == 1
        # answered on the same connection (the peer never answers a redial),
        # framed right after the error body
        assert client.status() == {"status": "ok"}


CLIENT_ROWS = {
    "a response without Content-Length is read to EOF": no_length_is_read_to_eof,
    "a truncated body fails over": truncated_body_fails_over,
    "an error body is drained before the connection is pooled again":
        error_body_is_drained_before_pooling,
}


@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("row", sorted(CLIENT_ROWS))
def test_client_framing(row, split):
    CLIENT_ROWS[row](split)


def test_a_path_that_cannot_go_on_a_request_line_is_refused_before_dialling():
    client = LibEIClient(("127.0.0.1", 9), timeout_s=0.5)  # nothing listens there
    for path in ("/ei_status HTTP/1.1\r\nX-Smuggled: 1", "/a b", "/caf\u00e9"):
        with pytest.raises(APIError, match="printable ASCII"):
            client.get(path)
    assert client._idle == [[]]


# -- the import graph -----------------------------------------------------------

def test_importing_serving_loads_no_stdlib_http_machinery():
    """libei frames its own HTTP; stdlib's client, server and the ``email``
    header parser they pull in must not come back through any import."""
    probe = (
        "import repro.serving, sys\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    loaded = set(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                capture_output=True, text=True).stdout.split())
    assert "repro.serving.http" in loaded
    assert not loaded & {"http.client", "http.server", "email", "email.parser"}
