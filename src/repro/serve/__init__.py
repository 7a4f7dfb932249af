"""Validation-as-a-service: a long-running front-end over the campaign
executor.

Every other entry point in this repository is a batch CLI — one
invocation, cold caches, one workload.  This package turns the same
machinery into a persistent service:

* :mod:`repro.serve.protocol` — newline-delimited-JSON framing shared
  by the socket protocol and the HTTP streaming responses;
* :mod:`repro.serve.queueing` — bounded request admission with
  backpressure (429 / ``queue-full`` past the high-water mark) and the
  micro-batcher that groups small refine requests into campaign-style
  shards;
* :mod:`repro.serve.pool` — the asyncio adapter over the campaign
  engine's persistent worker pool, :class:`~repro.campaign.ShardExecutor`;
* :mod:`repro.serve.service` — the transport-independent core: request
  handlers, the warm shared caches (:class:`~repro.perf.RefinementMemo`
  disk layer as the persistent verdict store, per-config plan caches),
  per-request timeouts, and the serve-side observability surface;
* :mod:`repro.serve.server` — one asyncio listener speaking both
  protocols (per-connection sniffing: an HTTP verb or a JSON frame),
  with ``/metrics`` (Prometheus text), ``/healthz``, streamed NDJSON
  results, and graceful SIGTERM drain;
* :mod:`repro.serve.client` — the blocking client library behind
  ``python -m repro client`` and the E13 load-test harness.
"""

from .client import ServeClient, ServeError
from .deadline import validate_timeout
from .pool import AsyncShardPool
from .protocol import (
    OPS,
    ProtocolError,
    chunk_frame,
    decode_frame,
    done_frame,
    encode_frame,
    error_frame,
    request_frame,
    validate_request,
)
from .queueing import Batcher, Draining, QueueFull, RequestGate
from .retry import (
    CircuitBreaker,
    RetryingClient,
    breaker_for,
    reset_breakers,
)
from .server import ValidationServer
from .service import ServiceConfig, ValidationService
from .cli import client_main, serve_main

__all__ = [
    "AsyncShardPool", "Batcher", "CircuitBreaker",
    "Draining", "OPS", "ProtocolError",
    "QueueFull", "RequestGate", "RetryingClient",
    "ServeClient", "ServeError",
    "ServiceConfig", "ValidationServer", "ValidationService",
    "breaker_for", "chunk_frame", "client_main", "decode_frame",
    "done_frame", "encode_frame", "error_frame", "request_frame",
    "reset_breakers", "serve_main", "validate_timeout",
    "validate_request",
]
