"""Asyncio HTTP/1.1 edge: routes requests to shard workers.

Stdlib only: ``asyncio.start_server`` plus a minimal HTTP/1.1 codec
(request line, headers, ``Content-Length`` body; keep-alive).  Every
endpoint takes and returns JSON; the body's ``uid`` picks the owning
worker through the consistent-hash ring, and the frame sent to the
worker carries the op verbatim (see ``docs/testing.md`` for the full
endpoint schema).

Failure policy, the part that makes chaos survivable:

* a worker that dies mid-request is detected by the broken frame
  stream; the supervisor restarts it (recovery happens shard-by-shard
  on next touch);
* *read-path* requests (``check``, ``read``, ``recover``) are retried
  once against the restarted worker — they are idempotent;
* *write-path* requests (``update``, ``check_batch``) are **never**
  retried: the dying worker may have durably logged the update before
  its crash, and a blind retry would double-apply.  The caller gets
  ``503 {"code": "worker-restarted"}`` and decides — the conformance
  suite's "no lost acknowledged update" invariant leans on exactly
  this asymmetry.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path

from repro.errors import ReproError, SchemaError
from repro.service.net.config import ServiceConfig
from repro.service.net.frames import (
    MAX_FRAME,
    FrameError,
    read_frame,
    write_frame,
)
from repro.service.net.ring import HashRing
from repro.service.net.supervisor import Supervisor
from repro.service.store import DocumentStore

__all__ = ["RequestRefusedError", "ServerThread", "ShardedService",
           "WorkerRestartedError"]

_REASONS = {200: "OK", 400: "Bad Request", 403: "Forbidden",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Content Too Large", 422: "Unprocessable Entity",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: the longest header block the edge reads (asyncio's default stream
#: limit); a longer one is refused with 431
_HEADER_LIMIT = 1 << 16

#: endpoint name → (worker op, retry-once-after-restart?)
_ENDPOINTS: dict[str, tuple[str, bool]] = {
    "update": ("update", False),
    "check": ("check", True),
    "check_batch": ("check_batch", False),
    "read": ("read", True),
    "recover": ("recover", True),
}

#: request-body keys forwarded to the worker, per op
_FORWARDED_KEYS = {
    "update": ("update",),
    "check": (),
    "check_batch": ("updates",),
    "read": ("with_log",),
    "recover": (),
}

_BAD_REQUEST_CODES = frozenset(
    {"bad-uid", "bad-request", "bad-op", "bad-json"})


class WorkerRestartedError(ReproError):
    """A worker died under a request; ``restarted`` says whether the
    supervisor brought a replacement up."""

    def __init__(self, worker_id: int, restarted: bool) -> None:
        self.worker_id = worker_id
        self.restarted = restarted
        state = "was restarted" if restarted else "is unavailable"
        super().__init__(f"worker {worker_id} died mid-request and "
                         f"{state}")


class RequestRefusedError(ReproError):
    """The edge cannot parse a request: it answers ``status`` with
    ``payload`` and closes the connection, since the stream position
    of the next request is unknown."""

    def __init__(self, status: int, code: str, error: str) -> None:
        self.status = status
        self.payload = {"ok": False, "code": code, "error": error}
        super().__init__(error)


class _WorkerLink:
    """The front end's persistent frame connection to one worker."""

    def __init__(self, worker_id: int, socket_path: str) -> None:
        self.worker_id = worker_id
        self.socket_path = socket_path
        self.lock = asyncio.Lock()
        self.reader: "asyncio.StreamReader | None" = None
        self.writer: "asyncio.StreamWriter | None" = None

    async def connect(self) -> None:
        if self.writer is None:
            self.reader, self.writer = \
                await asyncio.open_unix_connection(self.socket_path)

    async def close(self) -> None:
        writer, self.reader, self.writer = self.writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


def _response(status: int, payload: dict, close: bool = False) -> bytes:
    data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n")
    return head.encode("ascii") + data


def _status_for(response: dict) -> int:
    if response.get("ok"):
        return 200
    code = response.get("code", "")
    if code in _BAD_REQUEST_CODES:
        return 400
    if code == "forbidden":
        return 403
    if code in ("internal", "not-owner"):
        return 500
    # domain errors (rejected selects, recovery problems, injected
    # faults): the request was understood but cannot be honoured
    return 422


class ShardedService:
    """The asyncio front end over a supervised worker pool."""

    def __init__(self, config: ServiceConfig, state_dir: "str | Path",
                 workers: int = 2, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.config = config
        self.host = host
        self.port = port
        self.ring = HashRing(range(workers))
        self.supervisor = Supervisor(workers, state_dir, config)
        self._links = [
            _WorkerLink(wid, self.supervisor.socket_path(wid))
            for wid in range(workers)]
        self._server: "asyncio.base_events.Server | None" = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        await asyncio.to_thread(self.supervisor.start_all)
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port,
            limit=_HEADER_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain workers, reap."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for link in self._links:
            # the lock queues the drain behind any in-flight request,
            # so a worker finishes what it started before exiting
            async with link.lock:
                try:
                    await link.connect()
                    await write_frame(link.writer, {"op": "drain"})
                    await read_frame(link.reader)
                except OSError:
                    pass
                await link.close()
        await asyncio.to_thread(self.supervisor.join_all)

    # -- worker calls -------------------------------------------------------

    async def _call_worker(self, worker_id: int, request: dict,
                           retry: bool) -> dict:
        link = self._links[worker_id]
        async with link.lock:
            attempts = 2 if retry else 1
            for attempt in range(attempts):
                try:
                    await link.connect()
                    assert link.writer is not None
                    await write_frame(link.writer, request)
                    response = await read_frame(link.reader)
                    if response is None:
                        raise FrameError(
                            "worker closed the connection")
                    return response
                except (OSError, FrameError):
                    await link.close()
                    restarted = await asyncio.to_thread(
                        self.supervisor.ensure, worker_id)
                    if attempt + 1 < attempts:
                        continue
                    raise WorkerRestartedError(
                        worker_id, restarted) from None
            raise AssertionError("unreachable")  # pragma: no cover

    # -- HTTP ---------------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except RequestRefusedError as refused:
                    writer.write(_response(refused.status,
                                           refused.payload, close=True))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, body = request
                try:
                    status, payload = await self._dispatch(
                        method, path, body)
                except Exception as error:  # noqa: BLE001 — edge guard
                    status, payload = 500, {
                        "ok": False, "code": "internal",
                        "error": repr(error)}
                writer.write(_response(status, payload))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    @staticmethod
    async def _read_request(
            reader: asyncio.StreamReader
    ) -> "tuple[str, str, bytes] | None":
        """One request, ``None`` on a clean EOF between requests.

        The header block is read in one pass up to the blank line; one
        longer than the stream limit is refused, and so is a
        ``Content-Length`` that is not a non-negative integer up to
        ``MAX_FRAME``, before any body byte is read."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial.strip():
                return None
            raise
        except asyncio.LimitOverrunError:
            raise RequestRefusedError(
                431, "headers-too-large",
                f"header block exceeds the {_HEADER_LIMIT}-byte "
                "limit") from None
        request_line, *headers = head.decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise RequestRefusedError(
                400, "bad-request",
                f"malformed request line {request_line[:200]!r}")
        method, target, _version = parts
        length = 0
        for header in headers:
            name, _, value = header.partition(":")
            if name.strip().lower() != "content-length":
                continue
            value = value.strip()
            if not (value.isascii() and value.isdigit()):
                raise RequestRefusedError(
                    400, "bad-request",
                    f"bad Content-Length {value[:40]!r}")
            # int() refuses strings of over 4,300 digits, so compare
            # the digit count first
            digits = value.lstrip("0") or "0"
            if len(digits) > len(str(MAX_FRAME)) \
                    or int(digits) > MAX_FRAME:
                raise RequestRefusedError(
                    413, "too-large",
                    f"body of {digits[:40]} bytes exceeds the "
                    f"{MAX_FRAME}-byte limit")
            length = int(digits)
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, body

    async def _dispatch(self, method: str, path: str,
                        body: bytes) -> tuple[int, dict]:
        path = path.split("?", 1)[0]
        name = path.strip("/")
        if name == "status":
            if method != "GET":
                return 405, {"ok": False, "code": "bad-op",
                             "error": "status is GET-only"}
            return 200, self._status_payload()
        if method != "POST":
            return 405, {"ok": False, "code": "bad-op",
                         "error": f"{method} not allowed"}
        try:
            payload = json.loads(body) if body else {}
        except ValueError:
            return 400, {"ok": False, "code": "bad-json",
                         "error": "request body is not valid JSON"}
        if not isinstance(payload, dict):
            return 400, {"ok": False, "code": "bad-json",
                         "error": "request body must be a JSON object"}
        if name == "arm":
            return await self._dispatch_arm(payload)
        if name not in _ENDPOINTS:
            return 404, {"ok": False, "code": "not-found",
                         "error": f"no endpoint /{name}"}
        op, retry = _ENDPOINTS[name]
        uid = payload.get("uid")
        if not isinstance(uid, str):
            return 400, {"ok": False, "code": "bad-uid",
                         "error": "request needs a string 'uid'"}
        try:
            DocumentStore.validate_uid(uid)
        except SchemaError as error:
            return 400, {"ok": False, "code": "bad-uid",
                         "error": str(error)}
        worker_id = self.ring.owner(uid)
        request: dict = {"op": op, "uid": uid}
        for key in _FORWARDED_KEYS[op]:
            if key in payload:
                request[key] = payload[key]
        try:
            response = await self._call_worker(worker_id, request,
                                               retry=retry)
        except WorkerRestartedError as error:
            return 503, {"ok": False, "code": "worker-restarted",
                         "worker": worker_id,
                         "restarted": error.restarted,
                         "error": str(error)}
        response.setdefault("worker", worker_id)
        return _status_for(response), response

    async def _dispatch_arm(self, payload: dict) -> tuple[int, dict]:
        """Chaos-test op: arm failpoints inside one worker process."""
        worker_id = payload.get("worker")
        if not isinstance(worker_id, int) \
                or not 0 <= worker_id < len(self._links):
            return 400, {"ok": False, "code": "bad-request",
                         "error": "arm needs a valid integer 'worker'"}
        request = {"op": "arm", "spec": payload.get("spec"),
                   "kill": payload.get("kill", True)}
        try:
            response = await self._call_worker(worker_id, request,
                                               retry=False)
        except WorkerRestartedError as error:
            return 503, {"ok": False, "code": "worker-restarted",
                         "worker": worker_id,
                         "restarted": error.restarted,
                         "error": str(error)}
        return _status_for(response), response

    def _status_payload(self) -> dict:
        return {"ok": True,
                "workers": self.ring.node_count,
                "alive": self.supervisor.alive(),
                "restarts": {str(wid): count for wid, count in
                             self.supervisor.restart_counts().items()},
                "replicas": self.ring.replicas}


class ServerThread:
    """Run a :class:`ShardedService` on a private event loop thread.

    The synchronous face of the service for tests and the CLI:
    ``start()`` blocks until every worker answered a ping and the HTTP
    port is bound; ``stop()`` drains and reaps.  Usable as a context
    manager.
    """

    def __init__(self, config: ServiceConfig, state_dir: "str | Path",
                 workers: int = 2, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = ShardedService(config, state_dir,
                                      workers=workers, host=host,
                                      port=port)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-net-edge",
            daemon=True)

    @property
    def host(self) -> str:
        return self.service.host

    @property
    def port(self) -> int:
        return self.service.port

    def start(self) -> "ServerThread":
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self.service.start(), self._loop)
        try:
            future.result(timeout=120)
        except Exception:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.stop(), self._loop)
        try:
            future.result(timeout=60)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
