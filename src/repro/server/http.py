"""The asyncio HTTP/1.1 face of the timing service.

A deliberately small, dependency-free server: the event loop only
parses requests and writes responses; every :meth:`TimingService.handle`
call runs on a worker-thread pool so the admission gate can park queued
requests without stalling the loop.  Supported surface:

* HTTP/1.1 with ``Content-Length`` bodies (no chunked encoding) and
  keep-alive,
* JSON in / JSON out (``Content-Type: application/json``),
* an ``X-Deadline`` request header (seconds) as an alternative to the
  ``"deadline"`` body field — the tightest budget wins,
* ``Retry-After`` response headers mirrored from structured 429/503
  bodies.

:func:`run_server` is the CLI entry point: it serves until SIGTERM /
SIGINT, then **drains** — stops admitting, finishes in-flight requests
within the grace period, and flushes the observability plane (Chrome
trace / span log) — before the process exits.  :class:`BackgroundServer` runs the same stack on an ephemeral
port inside a daemon thread for tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.server.service import ServerOptions, TimingService

__all__ = ["BackgroundServer", "run_server", "serve"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


def _encode_response(status: int, payload: dict,
                     keep_alive: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             "Content-Type: application/json",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    retry_after = (payload.get("error") or {}).get("retry_after") \
        if isinstance(payload, dict) else None
    if retry_after is not None:
        lines.append(f"Retry-After: {retry_after}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request; returns ``(method, path, headers, body)`` or
    ``None`` on a cleanly closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ValueError("truncated request head") from None
    except asyncio.LimitOverrunError:
        raise ValueError("request head too large") from None
    if len(head) > _MAX_HEADER_BYTES:
        raise ValueError("request head too large")
    text = head.decode("latin-1")
    request_line, *header_lines = text.split("\r\n")
    parts = request_line.split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line {request_line!r}")
    method, path, _version = parts
    headers = {}
    for line in header_lines:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > _MAX_BODY_BYTES:
        raise ValueError(f"request body too large ({length} bytes)")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


class _HttpServer:
    """One service + one asyncio server + one worker pool."""

    def __init__(self, service: TimingService) -> None:
        self.service = service
        options = service.options
        self._pool = ThreadPoolExecutor(
            max_workers=options.max_inflight + options.queue_depth + 4,
            thread_name_prefix="repro-serve")
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    async def start(self) -> None:
        options = self.service.options
        self._server = await asyncio.start_server(
            self._handle_connection, options.host, options.port,
            limit=_MAX_HEADER_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except (ValueError, asyncio.IncompleteReadError) as exc:
                    writer.write(_encode_response(
                        400, {"ok": False, "error": {
                            "code": "bad_request",
                            "message": f"unparseable request: {exc}"}},
                        keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                method, path, headers, raw_body = request
                body, parse_error = None, None
                if raw_body:
                    try:
                        body = json.loads(raw_body.decode("utf-8"))
                    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                        parse_error = f"request body is not JSON: {exc}"
                deadline = None
                raw_deadline = headers.get("x-deadline")
                if raw_deadline is not None:
                    try:
                        deadline = float(raw_deadline)
                    except ValueError:
                        parse_error = (f"X-Deadline header must be "
                                       f"seconds, got {raw_deadline!r}")
                if parse_error is not None:
                    status, payload = 400, {
                        "ok": False, "error": {"code": "bad_request",
                                               "message": parse_error}}
                else:
                    status, payload = await loop.run_in_executor(
                        self._pool, self.service.handle,
                        method, path, body, deadline)
                keep_alive = headers.get(
                    "connection", "keep-alive").lower() != "close"
                writer.write(_encode_response(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def shutdown_pool(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=False)


async def serve(service: TimingService, *,
                ready: threading.Event | None = None,
                stop: asyncio.Event | None = None) -> dict:
    """Serve until ``stop`` is set (or SIGTERM/SIGINT), then drain.

    Returns the drain summary.  ``ready`` (if given) is set once the
    listening socket is bound — the bound port is published on
    ``service.bound_port``.
    """
    if service.options.trace_out or service.options.span_log:
        service.start_collecting()
    server = _HttpServer(service)
    await server.start()
    service.bound_port = server.port
    stop = stop or asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                break
    try:
        if ready is not None:
            ready.set()
        await stop.wait()
        # Drain: refuse new work, stop accepting, finish in-flight.
        service.begin_drain()
        await server.close()
        summary = await loop.run_in_executor(None, service.drain)
        server.shutdown_pool()
        return summary
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)


def run_server(service: TimingService) -> dict:
    """Blocking entry point used by ``repro serve``."""
    return asyncio.run(serve(service))


class BackgroundServer:
    """The full HTTP stack on an ephemeral port, in a daemon thread.

    For tests and benchmarks::

        with BackgroundServer(service) as server:
            status, payload = server.request("GET", "/healthz")
    """

    def __init__(self, service: TimingService) -> None:
        self.service = service
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._summary: dict | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._summary = await serve(
                self.service, ready=self._ready, stop=self._stop)

        asyncio.run(main())

    def start(self) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("server failed to start within 30s")
        return self

    @property
    def port(self) -> int:
        return self.service.bound_port

    @property
    def address(self) -> tuple[str, int]:
        return (self.service.options.host, self.port)

    def stop(self, timeout: float = 30.0) -> dict | None:
        """Trigger drain and wait for the server thread to exit."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)
        return self._summary

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def request(self, method: str, path: str, body: dict | None = None,
                *, deadline: float | None = None,
                timeout: float = 60.0) -> tuple[int, dict]:
        """One plain-socket HTTP request (no external client library)."""
        import socket

        payload = b"" if body is None else json.dumps(body).encode()
        headers = [f"{method} {path} HTTP/1.1",
                   f"Host: {self.service.options.host}",
                   f"Content-Length: {len(payload)}",
                   "Content-Type: application/json",
                   "Connection: close"]
        if deadline is not None:
            headers.append(f"X-Deadline: {deadline}")
        raw = ("\r\n".join(headers) + "\r\n\r\n").encode() + payload
        with socket.create_connection(self.address,
                                      timeout=timeout) as sock:
            sock.sendall(raw)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        response = b"".join(chunks)
        head, _, tail = response.partition(b"\r\n\r\n")
        status = int(head.split(None, 2)[1])
        return status, json.loads(tail) if tail else {}
