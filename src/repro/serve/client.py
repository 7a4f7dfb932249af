"""Blocking client for the validation service's NDJSON socket protocol.

One :class:`ServeClient` wraps one TCP connection; requests are issued
serially on it (open more clients for concurrency — that is also how
the E13 load harness drives the server).  Streamed ``chunk`` frames are
surfaced either through :meth:`stream` (a generator) or an
``on_chunk`` callback; terminal ``error`` frames raise
:class:`ServeError` carrying the wire error code, so callers can tell
backpressure (``queue-full``) from a deadline (``timeout``) from a
worker crash (``crashed``).

The op wrappers (``ping`` … ``campaign``) and ``collect`` live once, on
:class:`ClientOps`, which :class:`ServeClient` and
:class:`~repro.serve.retry.RetryingClient` both extend.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .protocol import (
    ProtocolError,
    decode_frame,
    encode_frame,
    request_frame,
)


class ServeError(Exception):
    """A terminal ``error`` frame, or a broken connection."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ClientOps:
    """The op wrappers and lifecycle every client shares.

    Subclasses supply :meth:`request` (one request, the ``done``
    payload back, chunks to ``on_chunk``) and :meth:`close`; everything
    below is built on those two, so a retrying client retries every op
    and ``collect`` alike.
    """

    def request(self, op: str, payload: Optional[Dict[str, Any]] = None,
                on_chunk: Optional[Callable[[Dict[str, Any]], None]] = None
                ) -> Dict[str, Any]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def collect(self, op: str, payload: Optional[Dict[str, Any]] = None
                ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        """``(chunks, done)`` for one request — the test-friendly shape."""
        chunks: List[Dict[str, Any]] = []
        done = self.request(op, payload, on_chunk=chunks.append)
        return chunks, done

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def health(self) -> Dict[str, Any]:
        return self.request("health")

    def metrics(self) -> Dict[str, Any]:
        return self.request("metrics")

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def parse(self, source: str, **payload) -> Dict[str, Any]:
        return self.request("parse", {"source": source, **payload})

    def optimize(self, source: str, **payload) -> Dict[str, Any]:
        return self.request("optimize", {"source": source, **payload})

    def lint(self, source: str,
             on_finding: Optional[Callable[[Dict], None]] = None,
             **payload) -> Dict[str, Any]:
        return self.request("lint", {"source": source, **payload},
                            on_chunk=on_finding)

    def refine(self, sources, on_result=None, **payload) -> Dict[str, Any]:
        if isinstance(sources, str):
            sources = [sources]
        return self.request("refine",
                            {"functions": list(sources), **payload},
                            on_chunk=on_result)

    def refine_pair(self, source: str, target: str,
                    **payload) -> Dict[str, Any]:
        return self.request("refine", {"source": source, "target": target,
                                       **payload})

    def campaign(self, spec: Dict[str, Any], on_shard=None,
                 **payload) -> Dict[str, Any]:
        return self.request("campaign", {"spec": spec, **payload},
                            on_chunk=on_shard)


class ServeClient(ClientOps):
    """One connection speaking the NDJSON request/response protocol."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8371,
                 timeout: Optional[float] = 300.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0

    # -- connection management ----------------------------------------------
    def connect(self) -> "ServeClient":
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
            except OSError as e:
                # Surface a down server as the transport-level wire
                # code, so retry loops and circuit breakers treat a
                # refused connection like any other transport failure.
                raise ServeError("internal", f"connect failed: {e}")
            self._file = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    # -- the protocol --------------------------------------------------------
    def stream(self, op: str, payload: Optional[Dict[str, Any]] = None
               ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Send one request; yields ``("chunk", payload)`` frames then
        exactly one ``("done", payload)``.  Raises :class:`ServeError`
        on a terminal error frame or a dropped connection."""
        self.connect()
        self._next_id += 1
        request_id = self._next_id
        try:
            self._sock.sendall(
                encode_frame(request_frame(request_id, op, payload)))
        except OSError as e:
            self.close()
            raise ServeError("internal", f"send failed: {e}")
        while True:
            line = self._readline()
            try:
                frame = decode_frame(line)
            except ProtocolError as e:
                self.close()
                raise ServeError("bad-frame", f"bad frame from server: {e}")
            if frame.get("id") not in (request_id, None):
                continue  # stale frame from an aborted predecessor
            kind = frame.get("kind")
            if kind == "chunk":
                yield "chunk", frame.get("payload") or {}
            elif kind == "done":
                yield "done", frame.get("payload") or {}
                return
            elif kind == "error":
                raise ServeError(frame.get("code", "internal"),
                                 frame.get("error", "unknown error"))
            else:
                self.close()
                raise ServeError("bad-frame",
                                 f"unexpected frame kind {kind!r}")

    def request(self, op: str, payload: Optional[Dict[str, Any]] = None,
                on_chunk: Optional[Callable[[Dict[str, Any]], None]] = None
                ) -> Dict[str, Any]:
        """Send one request; returns the ``done`` payload."""
        result: Dict[str, Any] = {}
        for kind, data in self.stream(op, payload):
            if kind == "chunk" and on_chunk is not None:
                on_chunk(data)
            elif kind == "done":
                result = data
        return result

    def _readline(self) -> bytes:
        try:
            line = self._file.readline()
        except OSError as e:
            self.close()
            raise ServeError("internal", f"receive failed: {e}")
        if not line:
            self.close()
            raise ServeError(
                "internal", "server closed the connection mid-request")
        return line
