"""A minimal raw-socket HTTP/1.1 keep-alive client for the load generator.

One ``sendall`` per request, ``TCP_NODELAY`` set, no pipelining, and a hard
per-request time limit — so a stall measured across the socket is the
server's, not the client's. Only what ``repro serve`` emits is parsed:
a status line, headers and a ``Content-Length`` body.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import Dict, Optional

REQUEST_TIMEOUT_SECONDS = 2.0


class HttpFailure(Exception):
    """The request got no well-formed answer: timeout, refused, reset or garbage."""


@dataclass
class Response:
    status: int
    headers: Dict[str, str]
    body: bytes
    seconds: float  # first byte sent to last byte received


def build_request(
    method: str, path: str, body: bytes = b"", headers: Optional[Dict[str, str]] = None
) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: perf", f"Content-Length: {len(body)}"]
    if body:
        lines.append("Content-Type: application/json")
    lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def parse_head(head: bytes) -> tuple:
    """``(status, headers)`` from the bytes before the blank line."""
    lines = head.decode("iso-8859-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1.") or not parts[1].isdigit():
        raise HttpFailure(f"malformed status line {lines[0]!r}")
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpFailure(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return int(parts[1]), headers


class HttpConnection:
    """One keep-alive connection; reconnects lazily after any failure."""

    def __init__(self, host: str, port: int, timeout: float = REQUEST_TIMEOUT_SECONDS):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._buffer = b""

    def __enter__(self) -> "HttpConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        return sock

    def _recv(self, sock: socket.socket, deadline: float) -> bytes:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise socket.timeout()
        sock.settimeout(remaining)
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise HttpFailure("connection closed mid-response")
        return chunk

    def exchange(self, request: bytes) -> Response:
        """Send one prebuilt request and read its whole response.

        Raises :class:`HttpFailure` (connection dropped) on any failure,
        including exceeding the per-request time limit.
        """
        started = time.perf_counter()
        deadline = started + self.timeout
        try:
            sock = self._sock or self._connect()
            sock.sendall(request)
            while b"\r\n\r\n" not in self._buffer:
                self._buffer += self._recv(sock, deadline)
            head, _, rest = self._buffer.partition(b"\r\n\r\n")
            status, headers = parse_head(head)
            length = int(headers.get("content-length", "0"))
            chunks = [rest]
            received = len(rest)
            while received < length:
                chunk = self._recv(sock, deadline)
                chunks.append(chunk)
                received += len(chunk)
            finished = time.perf_counter()
            data = b"".join(chunks)
            self._buffer = data[length:]
        except socket.timeout:
            self.close()
            raise HttpFailure(f"no complete response within {self.timeout}s") from None
        except (OSError, ValueError) as exc:
            self.close()
            raise HttpFailure(f"{type(exc).__name__}: {exc}") from None
        except HttpFailure:
            self.close()
            raise
        if headers.get("connection", "").lower() == "close":
            self.close()
        return Response(status, headers, data[:length], finished - started)
