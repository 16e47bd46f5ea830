"""Small synchronous HTTP client for the sharded checking service.

A minimal HTTP/1.1 codec over one kept-alive TCP socket, the client
half of the edge's own stdlib codec (``repro.service.net.http``):
enough for the CLI, the conformance suite, the chaos tests and the
benchmark, without pulling in any dependency.  Every method returns
``(status, payload)`` where ``payload`` is the decoded JSON body;
transport failures and malformed responses raise
:class:`ServiceClientError`.

**One write per request.**  The request line, headers and body are
built into one bytes object and sent with one ``sendall`` on a
``TCP_NODELAY`` socket.  A client that writes the header block and the
body separately (as ``http.client`` does) costs the edge an extra
wake-up per request: on one CPU each send hands the processor to the
edge, which reads a header block with nothing behind it and has to
wait for the body.  The response is read through one buffered reader:
status line, headers up to the blank line, then exactly
``Content-Length`` body bytes.

**Reconnect once.**  A kept-alive connection the server has closed
while idle fails before the first byte of the response arrives; such a
request is sent once more on a fresh connection.  A failure after the
response has begun is never retried — the server may have acted on the
request.
"""

from __future__ import annotations

import json
import socket
from typing import BinaryIO

from repro.errors import ReproError

__all__ = ["ServiceClient", "ServiceClientError"]

#: longest status or header line accepted from the server
_MAX_LINE = 65536


class ServiceClientError(ReproError):
    """The service edge could not be reached or spoke garbage."""


class ServiceClient:
    """Talk JSON-over-HTTP to a running :class:`ShardedService`."""

    def __init__(self, host: str, port: int,
                 timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._socket: "socket.socket | None" = None
        self._reader: "BinaryIO | None" = None

    # -- plumbing -----------------------------------------------------------

    def close(self) -> None:
        sock, self._socket = self._socket, None
        reader, self._reader = self._reader, None
        if reader is not None:
            reader.close()
        if sock is not None:
            sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _connect(self) -> tuple[socket.socket, BinaryIO]:
        if self._socket is None or self._reader is None:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._socket, self._reader = sock, sock.makefile("rb")
        return self._socket, self._reader

    def request(self, path: str, payload: "dict | None" = None,
                method: str = "POST") -> tuple[int, dict]:
        """One round trip; reconnects once on a stale connection."""
        where = f"{method} {path}"
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n")
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            head += "Content-Type: application/json\r\n"
        head += f"Content-Length: {len(body)}\r\n\r\n"
        message = head.encode("latin-1") + body
        for attempt in (0, 1):
            try:
                sock, reader = self._connect()
                sock.sendall(message)
                status_line = reader.readline(_MAX_LINE)
                if not status_line:
                    raise ConnectionError(
                        "connection closed before the response")
                break
            except OSError as error:
                self.close()
                if attempt:
                    raise ServiceClientError(
                        f"request to {where} failed: {error}") from error
        try:
            status, data = self._read_response(status_line, reader,
                                               where)
        except OSError as error:
            self.close()
            raise ServiceClientError(
                f"response from {where} failed: {error}") from error
        try:
            decoded = json.loads(data) if data else {}
        except ValueError as error:
            raise ServiceClientError(
                f"non-JSON response from {where}: "
                f"{data[:200]!r}") from error
        if not isinstance(decoded, dict):
            raise ServiceClientError(
                f"response from {where} is not a JSON object")
        return status, decoded

    def _read_response(self, status_line: bytes, reader: BinaryIO,
                       where: str) -> tuple[int, bytes]:
        """Status, headers and exactly ``Content-Length`` body bytes;
        closes the connection on ``Connection: close`` or garbage."""
        length: "int | None" = None
        close = False
        try:
            version, _, rest = status_line.partition(b" ")
            code = rest[:3]
            if not (version.startswith(b"HTTP/") and len(code) == 3
                    and code.isdigit()):
                raise ValueError(f"bad status line {status_line!r}")
            while True:
                line = reader.readline(_MAX_LINE)
                if not line.endswith(b"\n"):
                    raise ValueError("truncated or oversized header")
                if line in (b"\r\n", b"\n"):
                    break
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection":
                    close = value.strip().lower() == b"close"
            if length is None or length < 0:
                raise ValueError("no valid Content-Length")
            data = reader.read(length)
            if len(data) != length:
                raise ValueError(f"truncated body: {len(data)} of "
                                 f"{length} bytes")
        except ValueError as error:
            self.close()
            raise ServiceClientError(
                f"malformed response from {where}: {error}") from error
        if close:
            self.close()
        return int(code), data

    # -- endpoints ----------------------------------------------------------

    def update(self, uid: str, update: str) -> tuple[int, dict]:
        return self.request("/update", {"uid": uid, "update": update})

    def check(self, uid: str) -> tuple[int, dict]:
        return self.request("/check", {"uid": uid})

    def check_batch(self, uid: str,
                    updates: list[str]) -> tuple[int, dict]:
        return self.request("/check_batch",
                            {"uid": uid, "updates": list(updates)})

    def read(self, uid: str,
             with_log: bool = False) -> tuple[int, dict]:
        payload: dict = {"uid": uid}
        if with_log:
            payload["with_log"] = True
        return self.request("/read", payload)

    def recover(self, uid: str) -> tuple[int, dict]:
        return self.request("/recover", {"uid": uid})

    def status(self) -> tuple[int, dict]:
        return self.request("/status", None, method="GET")

    def arm(self, worker: int, spec: str,
            kill: bool = True) -> tuple[int, dict]:
        return self.request("/arm", {"worker": worker, "spec": spec,
                                     "kill": kill})
