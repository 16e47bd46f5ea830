"""Tier-1 tests for :class:`ServiceClient`'s HTTP/1.1 codec.

The client runs against an in-thread stub TCP server whose responses
each test scripts byte for byte — no worker processes, no ``e2e``
marker.  The conformance and chaos suites in ``test_service_net.py``
drive the same client against the real edge.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass

import pytest

from repro.service.net.client import ServiceClient, ServiceClientError


@dataclass
class Received:
    connection: int
    method: str
    path: str
    headers: dict
    body: bytes


def ok_response(payload: "dict | list | str | None" = None,
                status: int = 200, extra: str = "",
                body: "bytes | None" = None) -> bytes:
    if body is None:
        body = json.dumps({"ok": True} if payload is None
                          else payload).encode("utf-8")
    return (f"HTTP/1.1 {status} OK\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{extra}\r\n"
            ).encode("ascii") + body


class StubServer:
    """A scripted HTTP/1.1 server, one thread per accepted connection.

    ``respond(request)`` returns the raw response bytes; ``segment``
    sends them in pieces of that many bytes; ``close_after`` closes
    the connection once the response is out.
    """

    def __init__(self) -> None:
        self.respond = lambda request: ok_response()
        self.segment: "int | None" = None
        self.close_after = False
        self.received: list[Received] = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._threads: list[threading.Thread] = []
        self._accepter = threading.Thread(target=self._accept,
                                          daemon=True)
        self._accepter.start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            thread = threading.Thread(
                target=self._serve, args=(conn, self.connections),
                daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket, index: int) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with conn, conn.makefile("rb") as reader:
            while True:
                line = reader.readline()
                if not line:
                    return
                method, path, _ = line.decode("latin-1").split()
                headers = {}
                while (header := reader.readline()) not in (b"\r\n",
                                                            b""):
                    name, _, value = header.decode("latin-1") \
                        .partition(":")
                    headers[name.strip().lower()] = value.strip()
                body = reader.read(int(headers.get("content-length",
                                                   0)))
                request = Received(index, method, path, headers, body)
                self.received.append(request)
                data = self.respond(request)
                step = self.segment or len(data)
                for start in range(0, len(data), step):
                    conn.sendall(data[start:start + step])
                    if self.segment:
                        time.sleep(0.0005)
                if self.close_after:
                    return

    def close(self) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        self._listener.close()
        self._accepter.join(timeout=5)
        for thread in self._threads:
            thread.join(timeout=5)
        assert not self._accepter.is_alive()
        assert not any(thread.is_alive() for thread in self._threads)


@pytest.fixture
def stub():
    server = StubServer()
    yield server
    server.close()


@pytest.fixture
def client(stub):
    with ServiceClient("127.0.0.1", stub.port, timeout=10.0) as client:
        yield client


def test_one_sendall_per_request(stub, client, monkeypatch):
    """The whole request — line, headers, body — leaves in one write:
    a split write costs the edge an extra wake-up per request."""
    calls = []
    caller = threading.current_thread()
    for name in ("send", "sendall", "sendmsg"):
        original = getattr(socket.socket, name)

        def counting(sock, *args, _name=name, _original=original):
            if threading.current_thread() is caller:
                calls.append(_name)
            return _original(sock, *args)

        monkeypatch.setattr(socket.socket, name, counting)
    client.update("u", "<x/>" * 1000)
    client.check("u")
    client.status()
    assert calls == ["sendall"] * 3
    assert len(stub.received) == 3


def test_requests_share_one_kept_alive_connection(stub, client):
    for index in range(20):
        assert client.check(f"u{index}") == (200, {"ok": True})
    assert stub.connections == 1
    assert [r.connection for r in stub.received] == [1] * 20


def test_idle_connection_closed_by_server_reconnects(stub, client):
    stub.close_after = True
    assert client.check("a") == (200, {"ok": True})
    time.sleep(0.05)  # the server's close reaches the client first
    assert client.check("b") == (200, {"ok": True})
    assert stub.connections == 2
    assert [r.connection for r in stub.received] == [1, 2]


def test_connection_close_is_honoured(stub, client):
    """``Connection: close`` retires the socket even though this stub
    would keep reading it: every request arrives on its own
    connection."""
    stub.respond = lambda request: ok_response(
        extra="Connection: close\r\n")
    for uid in ("a", "b", "c"):
        assert client.check(uid) == (200, {"ok": True})
    assert [r.connection for r in stub.received] == [1, 2, 3]


def test_response_split_into_small_segments(stub, client):
    payload = {"ok": True, "documents": ["<doc>" + "é" * 300 + "</doc>"]}
    stub.segment = 7
    stub.respond = lambda request: ok_response(
        payload, status=422, extra="X-Filler: " + "y" * 50 + "\r\n")
    assert client.read("u") == (422, payload)
    assert client.read("u") == (422, payload)
    assert stub.connections == 1


def test_empty_body_decodes_to_empty_object(stub, client):
    stub.respond = lambda request: ok_response(body=b"")
    assert client.status() == (200, {})
    assert client.status() == (200, {})
    assert stub.connections == 1


@pytest.mark.parametrize("body, message", [
    (b"<html>oops</html>", "non-JSON"),
    (b"[1, 2, 3]", "not a JSON object"),
    (b'"ok"', "not a JSON object"),
])
def test_bad_bodies_raise(stub, client, body, message):
    stub.respond = lambda request: ok_response(body=body)
    with pytest.raises(ServiceClientError, match=message):
        client.check("u")


def test_truncated_body_raises_and_is_not_retried(stub, client):
    """The response had begun, so the server may have acted: the
    client reports the failure instead of sending the request again."""
    stub.close_after = True
    stub.respond = lambda request: ok_response()[:-3]
    with pytest.raises(ServiceClientError, match="truncated body"):
        client.update("u", "<x/>")
    assert len(stub.received) == 1
    # the next request opens a fresh connection
    stub.close_after = False
    stub.respond = lambda request: ok_response()
    assert client.check("u") == (200, {"ok": True})
    assert [r.connection for r in stub.received] == [1, 2]


@pytest.mark.parametrize("response, message", [
    (b"garbage\r\n\r\n", "bad status line"),
    (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
     "no valid Content-Length"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: nine\r\n\r\n{}",
     "malformed response"),
    (b"HTTP/1.1 200 OK\r\nContent-Len", "truncated or oversized"),
])
def test_malformed_responses_raise(stub, client, response, message):
    stub.close_after = True
    stub.respond = lambda request: response
    with pytest.raises(ServiceClientError, match=message):
        client.check("u")
    assert len(stub.received) == 1


def test_unreachable_server_raises():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    client = ServiceClient("127.0.0.1", port, timeout=5.0)
    with pytest.raises(ServiceClientError, match="failed"):
        client.check("u")


def test_endpoints_send_the_documented_bodies(stub, client):
    client.update("u1", "<xupdate/>")
    client.check("u2")
    client.check_batch("u3", ("<a/>", "<b/>"))
    client.read("u4")
    client.read("u5", with_log=True)
    client.recover("u6")
    client.arm(1, "site=count:1", kill=False)
    client.status()
    sent = [(r.method, r.path, r.body) for r in stub.received]
    expected_posts = [
        ("/update", {"uid": "u1", "update": "<xupdate/>"}),
        ("/check", {"uid": "u2"}),
        ("/check_batch", {"uid": "u3", "updates": ["<a/>", "<b/>"]}),
        ("/read", {"uid": "u4"}),
        ("/read", {"uid": "u5", "with_log": True}),
        ("/recover", {"uid": "u6"}),
        ("/arm", {"worker": 1, "spec": "site=count:1", "kill": False}),
    ]
    assert sent == [("POST", path, json.dumps(payload).encode("utf-8"))
                    for path, payload in expected_posts] \
        + [("GET", "/status", b"")]
    for request in stub.received[:-1]:
        assert request.headers["content-type"] == "application/json"
        assert request.headers["content-length"] == str(len(request.body))
        assert request.headers["host"] == f"127.0.0.1:{stub.port}"
    assert "content-type" not in stub.received[-1].headers
    assert stub.received[-1].headers["content-length"] == "0"
