"""The HTTP/1.1 subset libei speaks, for both ends of a keep-alive connection.

libei needs little of HTTP: a ``GET`` of a path, a JSON answer framed by
``Content-Length``, and connections kept open between the two.  This
module is all of it:

* :func:`_read_head` reads one message head off a socket, keeping whatever
  arrived beyond it in a caller-owned ``bytearray`` (a pipelined request,
  or the start of a body), and returns the start line plus the only
  headers libei acts on: ``Connection``, ``Content-Length`` and whether
  ``Transfer-Encoding`` is present;
* :func:`read_request` is the server's half: the next request's target,
  and whether the connection stays open after it is answered;
* :func:`response_head` is the server's writer: fixed header fragments
  encoded once, and a ``Date`` formatted at most once a second;
* :class:`Connection` is the client's half: one ``TCP_NODELAY`` socket
  plus its read-ahead buffer, sending a ``GET`` and reading its
  :class:`Response`.

Anything outside the subset — another method, a malformed line, a head
over :data:`MAX_REQUEST_LINE` / :data:`MAX_HEADER_BYTES` — raises
:class:`FramingError` carrying the status a server answers it with.
Lines end in CRLF; ``Transfer-Encoding`` is not spoken, so a request
carrying it is a 501 and a response without ``Content-Length`` is read
to end of stream.  ``Content-Length`` values that disagree are a 400.
"""

from __future__ import annotations

import socket
import time
from http import HTTPStatus
from typing import Dict, NamedTuple, Optional, Tuple

#: Longest request (or status) line accepted, in bytes; longer is a 414.
MAX_REQUEST_LINE = 65536
#: Longest header block after the start line, in bytes; longer is a 431.
MAX_HEADER_BYTES = 65536
#: Bytes asked of the kernel per ``recv`` while a head is incomplete.
RECV_BYTES = 65536

_END_OF_HEAD = b"\r\n\r\n"
_VERSIONS = ("HTTP/1.0", "HTTP/1.1")
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class FramingError(Exception):
    """Bytes outside the subset, or a message the peer cut short.

    ``status`` is what a server answers before closing; a client treats
    any ``FramingError`` like an unreachable replica.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class Head(NamedTuple):
    """A message head: its start line and the headers libei acts on."""

    start: str
    #: the ``Connection`` value, lower-cased; "" when absent
    connection: str
    #: the ``Content-Length`` value; None when absent
    length: Optional[int]
    #: whether a ``Transfer-Encoding`` header is present
    transfer_encoded: bool


class Response(NamedTuple):
    """A response as :meth:`Connection.get` read it, body complete."""

    status: int
    reason: str
    body: bytes
    #: the peer closes after this response, so the connection is spent
    will_close: bool


def _check_caps(buffer: bytearray, end: int) -> None:
    """414 / 431 when the head in ``buffer`` (complete at ``end``, or -1) is over a cap."""
    line_end = buffer.find(b"\r\n", 0, MAX_REQUEST_LINE + 2)
    if line_end < 0:
        if len(buffer) >= MAX_REQUEST_LINE + 2:
            raise FramingError(414, f"request line over {MAX_REQUEST_LINE} bytes")
        return
    headers = end - line_end if end >= 0 else len(buffer) - line_end - len(_END_OF_HEAD)
    if headers > MAX_HEADER_BYTES:
        raise FramingError(431, f"header block over {MAX_HEADER_BYTES} bytes")


def _read_head(sock: socket.socket, buffer: bytearray) -> Optional[Head]:
    """Read up to the next blank line; None when the peer closed before sending a byte.

    ``buffer`` holds bytes already received and not yet consumed; on
    return it holds whatever followed the head.  The socket's timeout
    applies to every ``recv``, so a peer that goes silent mid-header
    times out like an idle one.
    """
    end = buffer.find(_END_OF_HEAD)
    while end < 0:
        _check_caps(buffer, end)
        chunk = sock.recv(RECV_BYTES)
        if not chunk:
            if buffer:
                raise FramingError(400, "connection closed inside a message head")
            return None
        scanned = max(len(buffer) - 3, 0)
        buffer += chunk
        end = buffer.find(_END_OF_HEAD, scanned)
    _check_caps(buffer, end)
    lines = buffer[:end].split(b"\r\n")
    del buffer[: end + len(_END_OF_HEAD)]
    connection, length, transfer_encoded = "", None, False
    for line in lines[1:]:
        name, colon, value = line.partition(b":")
        if not colon:
            raise FramingError(400, f"malformed header line {bytes(line[:80])!r}")
        name = name.strip().lower()
        if name == b"connection":
            connection = value.strip().lower().decode("latin-1")
        elif name == b"content-length":
            value = value.strip()
            if not value.isdigit():
                raise FramingError(400, f"malformed Content-Length {bytes(value[:80])!r}")
            if length is not None and int(value) != length:
                raise FramingError(400, "conflicting Content-Length values")
            length = int(value)
        elif name == b"transfer-encoding":
            transfer_encoded = True
    return Head(lines[0].decode("latin-1"), connection, length, transfer_encoded)


def _keeps_alive(version: str, connection: str) -> bool:
    """HTTP/1.1 stays open unless told ``close``; HTTP/1.0 only when told ``keep-alive``."""
    if not connection:
        return version == "HTTP/1.1"
    tokens = {token.strip() for token in connection.split(",")}
    return "close" not in tokens and (version == "HTTP/1.1" or "keep-alive" in tokens)


def read_request(sock: socket.socket, buffer: bytearray) -> Optional[Tuple[str, bool]]:
    """The next request's ``(target, keep_alive)``; None when the peer closed between requests.

    Only ``GET`` over HTTP/1.0 or HTTP/1.1 is spoken: another method or
    any ``Transfer-Encoding`` is a 501 (its body could not be framed, so
    reading on would desync), anything else malformed a 400 (a ``GET``
    carrying a body included), and every :class:`FramingError` means
    answer, then close.
    """
    head = _read_head(sock, buffer)
    if head is None:
        return None
    words = head.start.split()
    if len(words) != 3 or words[2] not in _VERSIONS:
        raise FramingError(400, f"bad request line {head.start[:80]!r}")
    method, target, version = words
    if method != "GET":
        raise FramingError(501, f"unsupported method {method[:80]!r}")
    if head.transfer_encoded:
        raise FramingError(501, "Transfer-Encoding is not supported")
    if head.length:
        raise FramingError(400, "a GET request carries no body")
    if target.startswith("//"):  # never read as a scheme-less absolute URL
        target = "/" + target.lstrip("/")
    return target, _keeps_alive(version, head.connection)


_date: Tuple[int, bytes] = (-1, b"")


def _http_date() -> bytes:
    """``Date`` value for now (RFC 9110 IMF-fixdate), formatted at most once a second."""
    global _date
    # lint: ignore[bare-clock] a Date header is the host's wall time by definition
    now = int(time.time())
    second, value = _date  # one tuple: readers on other threads see a matching pair
    if second != now:
        t = time.gmtime(now)
        value = (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon]} {t.tm_year:04d} "
                 f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT").encode("ascii")
        _date = (now, value)
    return value


_STATUS_LINES: Dict[int, bytes] = {}
_TAIL = {False: b"\r\n", True: b"Connection: close\r\n\r\n"}


def response_head(status: int, length: int, close: bool) -> bytes:
    """Status line and headers for a JSON body of ``length`` bytes.

    ``Date``, ``Content-Type: application/json``, ``Content-Length`` and,
    when ``close``, ``Connection: close`` — nothing else.
    """
    line = _STATUS_LINES.get(status)
    if line is None:
        try:
            reason = HTTPStatus(status).phrase
        except ValueError:
            reason = ""
        line = _STATUS_LINES.setdefault(status, f"HTTP/1.1 {status} {reason}\r\n".encode("ascii"))
    return b"%sDate: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s" % (
        line, _http_date(), length, _TAIL[close])


class Connection:
    """A client's keep-alive connection: one socket plus the bytes read ahead on it.

    Dial the socket (with a timeout) and hand it over; the connection
    sets ``TCP_NODELAY`` so a request never waits on the peer's delayed
    ACK.  One caller at a time: :meth:`get` is a whole exchange.
    """

    __slots__ = ("sock", "buffer", "_host")

    def __init__(self, sock: socket.socket, address: Tuple[str, int]) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.buffer = bytearray()
        self._host = b" HTTP/1.1\r\nHost: %s:%d\r\n\r\n" % (address[0].encode("ascii"), address[1])

    def get(self, path: str) -> Response:
        """Send ``GET path`` and read the whole response.

        ``ConnectionError`` — reset, broken pipe, or end of stream before
        a status line — is how a connection the peer closed since its last
        exchange shows itself.  A response cut short, or one outside the
        subset, is a :class:`FramingError`.  ``path`` is sent as given: the
        caller has checked it is printable ASCII without spaces.
        """
        self.sock.sendall(b"GET " + path.encode("ascii") + self._host)
        head = _read_head(self.sock, self.buffer)
        if head is None:
            raise ConnectionResetError("the peer closed the connection without responding")
        version, _, rest = head.start.partition(" ")
        code, _, reason = rest.partition(" ")
        if version not in _VERSIONS or len(code) != 3 or not code.isdigit():
            raise FramingError(502, f"bad status line {head.start[:80]!r}")
        if head.length is None:
            return Response(int(code), reason, self._read_to_eof(), True)
        body = self._read_exactly(head.length)
        return Response(int(code), reason, body, not _keeps_alive(version, head.connection))

    def _read_exactly(self, length: int) -> bytes:
        buffer = self.buffer
        have = len(buffer)
        if have >= length:
            body = buffer[:length]
            del buffer[:length]
            return body
        body = bytearray(length)
        body[:have] = buffer
        buffer.clear()
        view = memoryview(body)
        while have < length:
            received = self.sock.recv_into(view[have:])
            if not received:
                raise FramingError(502, f"response truncated: {have} of {length} body bytes")
            have += received
        return body

    def _read_to_eof(self) -> bytes:
        body, self.buffer = self.buffer, bytearray()
        while True:
            chunk = self.sock.recv(RECV_BYTES)
            if not chunk:
                return body
            body += chunk

    def close(self) -> None:
        """Close the socket (idempotent)."""
        self.sock.close()
