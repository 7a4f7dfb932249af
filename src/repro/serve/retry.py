"""Client-side resilience: retries, idempotency keys, circuit breaking.

:class:`RetryingClient` wraps a :class:`~repro.serve.client.ServeClient`
with the three standard client-side containment tools:

* **retries with jittered exponential backoff** — transport failures
  and explicitly retryable wire codes (a dropped connection surfaces as
  ``internal``; backpressure as ``queue-full``) are re-sent after
  ``base * 2**(k-1)`` seconds, jittered by an RNG each client seeds on
  its own, so clients that fail together do not retry in lockstep (the
  worker supervisor's RNG keeps seed 0: the E14 chaos bench replays its
  schedule).  Semantic failures
  (``bad-request``, ``parse-error``, ``bad-payload``, ``unknown-op``,
  ``crashed``) never retry — the same request would fail the same way.
  ``timeout`` does not retry either: the budget belonged to the
  request, not to the transport.  The retryable set is the fixed
  :data:`RETRYABLE_CODES`.
* **idempotency keys** — every request carries a unique
  ``idempotency_key``; a retry re-sends the *same* key, so the server
  can answer a duplicate (first attempt's response lost in transit)
  from its replay cache instead of re-running the work.  This is safe
  precisely because verdicts are deterministic: replaying a response is
  indistinguishable from recomputing it.
* **a per-server circuit breaker** — after :data:`FAILURE_THRESHOLD`
  (5) consecutive transport-level failures the breaker *opens* and
  requests shed immediately as ``queue-full`` (the backpressure code
  clients already handle) without touching the socket.  After
  :data:`RESET_TIMEOUT` (10) seconds one trial request is allowed through
  (*half-open*); success closes the breaker, failure re-opens it.
  Breakers are shared per ``(host, port)`` across every
  :class:`RetryingClient` in the process, so one hammering loop cannot
  hide a down server from its siblings.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from ..campaign.supervisor import jittered_backoff
from ..diag import Statistic
from .client import ClientOps, ServeClient, ServeError

NUM_RETRIES = Statistic(
    "serve-client", "num-retries",
    "Request attempts re-sent by retrying clients")
NUM_BREAKER_OPENS = Statistic(
    "serve-client", "num-breaker-opens",
    "Circuit breakers tripped open by consecutive failures")
NUM_BREAKER_SHED = Statistic(
    "serve-client", "num-breaker-shed",
    "Requests shed fast-fail because a circuit breaker was open")

#: wire codes worth a retry: transport trouble and backpressure.
RETRYABLE_CODES: FrozenSet[str] = frozenset({"internal", "queue-full"})

_key_counter = itertools.count(1)


def make_idempotency_key() -> str:
    """A process-unique key; retries of one request re-use one key."""
    return f"{os.getpid():x}-{time.monotonic_ns():x}-{next(_key_counter)}"


#: backoff before retry k is ``BACKOFF_BASE * 2**(k-1)`` seconds,
#: capped at ``BACKOFF_CAP``, then jittered (see :func:`jittered_backoff`).
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
#: consecutive transport failures that open a circuit breaker.
FAILURE_THRESHOLD = 5
#: seconds an open breaker waits before admitting a half-open trial.
RESET_TIMEOUT = 10.0


class CircuitBreaker:
    """Shed requests to a server that keeps failing.

    closed → (:data:`FAILURE_THRESHOLD` consecutive failures) → open →
    (:data:`RESET_TIMEOUT` elapses on ``clock``) → half-open → success
    closes / failure re-opens.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self.opens = 0
        self.shed = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if (self._state == "open"
                and self.clock() - self._opened_at >= RESET_TIMEOUT):
            self._state = "half-open"
        return self._state

    def allow(self) -> bool:
        """May a request go out right now?  (half-open admits trials.)"""
        with self._lock:
            if self._state_locked() == "open":
                self.shed += 1
                NUM_BREAKER_SHED.inc()
                return False
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            was = self._state_locked()
            if was == "half-open" or (
                    was == "closed"
                    and self._failures >= FAILURE_THRESHOLD):
                self._state = "open"
                self._opened_at = self.clock()
                self.opens += 1
                NUM_BREAKER_OPENS.inc()

    def report(self) -> dict:
        with self._lock:
            return {"state": self._state_locked(),
                    "consecutive_failures": self._failures,
                    "opens": self.opens, "shed": self.shed}


_breakers: Dict[Tuple[str, int], CircuitBreaker] = {}
_breakers_lock = threading.Lock()


def breaker_for(host: str, port: int) -> CircuitBreaker:
    """The process-wide breaker for one server endpoint."""
    with _breakers_lock:
        breaker = _breakers.get((host, port))
        if breaker is None:
            breaker = CircuitBreaker()
            _breakers[(host, port)] = breaker
        return breaker


def reset_breakers() -> None:
    """Drop every endpoint breaker (test isolation)."""
    with _breakers_lock:
        _breakers.clear()


class RetryingClient(ClientOps):
    """A :class:`ServeClient` with retries, idempotency, and breaking.

    Shares :class:`ClientOps` with :class:`ServeClient`, so every op
    wrapper and ``collect`` go through the retry loop; ``stream`` is
    deliberately absent — a half-consumed stream is not safely
    re-sendable, so streaming callers own their retry loop.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8371,
                 timeout: Optional[float] = 300.0, attempts: int = 4,
                 breaker: Optional[CircuitBreaker] = None):
        self.host = host
        self.port = port
        #: total attempts per request (1 = no retries).
        self.attempts = attempts
        self.breaker = (breaker if breaker is not None
                        else breaker_for(host, port))
        self._client = ServeClient(host, port, timeout=timeout)
        self._rng = random.Random()
        self.retries = 0

    def close(self) -> None:
        self._client.close()

    # -- the retry loop ------------------------------------------------------
    def request(self, op: str, payload: Optional[Dict[str, Any]] = None,
                on_chunk: Optional[Callable[[Dict[str, Any]], None]] = None
                ) -> Dict[str, Any]:
        payload = dict(payload or {})
        payload.setdefault("idempotency_key", make_idempotency_key())
        last: Optional[ServeError] = None
        for attempt in range(1, self.attempts + 1):
            if not self.breaker.allow():
                raise ServeError(
                    "queue-full",
                    f"circuit breaker open for "
                    f"{self.host}:{self.port} "
                    f"({self.breaker.report()['consecutive_failures']} "
                    f"consecutive failures)")
            try:
                result = self._client.request(op, payload,
                                              on_chunk=on_chunk)
            except ServeError as e:
                last = e
                if e.code in ("internal", "bad-frame"):
                    # transport-level: the server may be down
                    self.breaker.record_failure()
                if (e.code not in RETRYABLE_CODES
                        or attempt >= self.attempts):
                    raise
                self.retries += 1
                NUM_RETRIES.inc()
                # A dropped connection leaves the socket unusable;
                # start the next attempt on a fresh one.
                self._client.close()
                time.sleep(jittered_backoff(attempt, BACKOFF_BASE,
                                            BACKOFF_CAP, self._rng))
                continue
            self.breaker.record_success()
            return result
        raise last  # pragma: no cover — loop always returns or raises
