"""One asyncio listener, two protocols.

:class:`ValidationServer` accepts plain TCP connections and sniffs the
first line of each:

* an HTTP verb (``GET /healthz``, ``GET /metrics``, ``POST
  /api/v1/<op>``) selects the HTTP protocol — observability endpoints
  answer a JSON or Prometheus-text body, request endpoints stream
  NDJSON frames in a chunked response;
* anything else must be a JSON request frame, selecting the raw NDJSON
  socket protocol: frames in, ``chunk``/``done``/``error`` frames out,
  many requests per connection.

Both transports answer through the same
:meth:`~repro.serve.service.ValidationService.run_request`, so queue
admission, timeouts, warm caches, and metrics are identical whichever
way a client connects.

Graceful drain (SIGTERM/SIGINT): the admission gate flips to
``draining`` — every new request is rejected with a structured error
(HTTP 503 / ``draining`` frame) while in-flight requests run to their
terminal frame — then the listener closes.  Refines still queued or
running when the drain times out are answered ``draining`` instead.  A
worker-process crash mid-request surfaces as an ``errored`` record or
``error`` frame; the connection stays healthy either way.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Dict, Optional, Tuple

from ..diag import Statistic
from .protocol import (
    ProtocolError,
    chunk_frame,
    decode_frame,
    done_frame,
    encode_frame,
    error_frame,
    validate_request,
)
from .service import ServiceConfig, ServiceError, ValidationService

NUM_CONNECTIONS = Statistic(
    "serve", "num-connections",
    "TCP connections accepted by the validation server")

#: HTTP status for each wire error code.
_HTTP_STATUS = {
    "bad-frame": 400, "bad-request": 400, "bad-payload": 400,
    "unknown-op": 404,
    "parse-error": 422, "queue-full": 429, "draining": 503,
    "timeout": 504, "crashed": 500, "internal": 500,
}

_HTTP_VERBS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ",
               b"OPTIONS ", b"PATCH ")

#: seconds a timed-out drain gives closed requests to send their
#: terminal frames.
_CLOSE_GRACE = 5.0

#: readline() limit; oversized lines raise and fail the frame cleanly.
_LINE_LIMIT = 16 * 1024 * 1024 + 1024


class ValidationServer:
    """The listener; one per process, wrapping one service."""

    def __init__(self, service: Optional[ValidationService] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 config: Optional[ServiceConfig] = None):
        self.service = service or ValidationService(config)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_LINE_LIMIT)
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        return self.host, self.port

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._draining.set)
            except NotImplementedError:  # non-unix event loops
                pass

    async def serve_until_drained(self,
                                  drain_timeout: float = 30.0) -> None:
        """Serve until a drain is requested, then drain and close."""
        await self._draining.wait()
        await self.shutdown(drain_timeout)

    async def shutdown(self, drain_timeout: float = 30.0) -> bool:
        """Reject new work, let in-flight finish, close the listener.

        Returns True when every in-flight request reached its terminal
        frame inside ``drain_timeout``."""
        self._draining.set()
        clean = await self.service.drain(timeout=drain_timeout)
        if self._server is not None:
            self._server.close()
        await self.service.aclose()
        if not clean:
            # closing failed every refine the drain left queued or
            # running with ``draining``; let those requests write it
            await self.service.gate.wait_idle(_CLOSE_GRACE)
        if self._server is not None:
            await self._server.wait_closed()
        return clean

    # -- connection handling -----------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        NUM_CONNECTIONS.inc()
        try:
            first = await reader.readline()
            if not first:
                return
            if first.startswith(_HTTP_VERBS):
                await self._serve_http(first, reader, writer)
            else:
                await self._serve_ndjson(first, reader, writer)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- NDJSON socket protocol ---------------------------------------------
    async def _serve_ndjson(self, first: bytes,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        line = first
        while line:
            await self._answer_frame(line, writer)
            line = await reader.readline()

    async def _answer_frame(self, line: bytes,
                            writer: asyncio.StreamWriter) -> None:
        request_id: Any = None
        try:
            frame = decode_frame(line)
            request_id = frame.get("id")
            request_id, op, payload = validate_request(frame)
        except ProtocolError as e:
            await self._send(writer, error_frame(request_id, e.code, str(e)))
            return

        seq = 0

        async def emit(chunk: Dict[str, Any]) -> None:
            nonlocal seq
            await self._send(writer, chunk_frame(request_id, seq, chunk))
            seq += 1

        try:
            result = await self.service.run_request(op, payload, emit)
        except ServiceError as e:
            await self._send(writer, error_frame(request_id, e.code, str(e)))
            return
        await self._send(writer, done_frame(request_id, result))

    @staticmethod
    async def _send(writer: asyncio.StreamWriter,
                    frame: Dict[str, Any]) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()

    # -- HTTP ---------------------------------------------------------------
    async def _serve_http(self, request_line: bytes,
                          reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            method, target = request_line.decode(
                "latin-1").split()[:2]
        except (UnicodeDecodeError, ValueError):
            await _http_simple(writer, 400, {"error": "bad request line"})
            return
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            await _http_simple(writer, 400, {
                "error": f"bad Content-Length {raw_length!r}"})
            return
        length = int(raw_length)
        if length:
            if length > _LINE_LIMIT:
                await _http_simple(writer, 413, {"error": "body too large"})
                return
            body = await reader.readexactly(length)

        path = target.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path in ("/healthz", "/health"):
            status = await self.service.run_request("health", {}, _no_emit)
            code = 503 if status.get("status") == "draining" else 200
            await _http_simple(writer, code, status)
            return
        if method == "GET" and path == "/metrics":
            result = await self.service.run_request("metrics", {}, _no_emit)
            await _http_text(writer, 200, result["prometheus"],
                             content_type="text/plain; version=0.0.4")
            return
        if method == "GET" and path == "/stats":
            result = await self.service.run_request("stats", {}, _no_emit)
            await _http_simple(writer, 200, result)
            return
        if method == "POST" and path.startswith("/api/v1/"):
            await self._http_api(writer, path[len("/api/v1/"):], body)
            return
        await _http_simple(writer, 404, {"error": f"no route {path}"})

    async def _http_api(self, writer: asyncio.StreamWriter,
                        op: str, body: bytes) -> None:
        """POST /api/v1/<op>: NDJSON frames in one chunked response."""
        try:
            payload = json.loads(body.decode("utf-8", errors="surrogatepass")
                                 ) if body.strip() else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            await _http_simple(writer, 400, {"error": f"bad JSON body: {e}"})
            return
        if not isinstance(payload, dict):
            await _http_simple(writer, 400,
                               {"error": "body must be a JSON object"})
            return

        started = False
        seq = 0

        async def emit(chunk: Dict[str, Any]) -> None:
            nonlocal started, seq
            if not started:
                _http_start_chunked(writer, 200)
                started = True
            _http_chunk(writer, encode_frame(chunk_frame(None, seq, chunk)))
            seq += 1
            await writer.drain()

        try:
            result = await self.service.run_request(op, payload, emit)
        except ServiceError as e:
            frame = error_frame(None, e.code, str(e))
            if started:
                _http_chunk(writer, encode_frame(frame))
                _http_finish_chunked(writer)
            else:
                await _http_simple(writer,
                                   _HTTP_STATUS.get(e.code, 500), frame)
            await writer.drain()
            return
        if not started:
            _http_start_chunked(writer, 200)
        _http_chunk(writer, encode_frame(done_frame(None, result)))
        _http_finish_chunked(writer)
        await writer.drain()


async def _no_emit(chunk: Dict[str, Any]) -> None:
    """Discard chunks (GET endpoints return only the final payload)."""


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            413: "Payload Too Large", 422: "Unprocessable Entity",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout"}


def _status_line(code: int) -> bytes:
    return (f"HTTP/1.1 {code} "
            f"{_REASONS.get(code, 'Unknown')}\r\n").encode("ascii")


async def _http_text(writer: asyncio.StreamWriter, code: int, text: str,
                     content_type: str = "application/json") -> None:
    body = text.encode("utf-8", errors="backslashreplace")
    writer.write(_status_line(code)
                 + f"Content-Type: {content_type}\r\n"
                   f"Content-Length: {len(body)}\r\n"
                   "Connection: close\r\n\r\n".encode("ascii")
                 + body)
    await writer.drain()


async def _http_simple(writer: asyncio.StreamWriter, code: int,
                       payload: Dict[str, Any]) -> None:
    await _http_text(writer, code,
                     json.dumps(payload, ensure_ascii=True) + "\n")


def _http_start_chunked(writer: asyncio.StreamWriter, code: int) -> None:
    writer.write(_status_line(code)
                 + b"Content-Type: application/x-ndjson\r\n"
                   b"Transfer-Encoding: chunked\r\n"
                   b"Connection: close\r\n\r\n")


def _http_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")


def _http_finish_chunked(writer: asyncio.StreamWriter) -> None:
    writer.write(b"0\r\n\r\n")
