"""Asyncio adapter over the campaign engine's persistent worker pool.

:class:`AsyncShardPool` lets the event loop submit shards to a
:class:`~repro.campaign.ShardExecutor` (long-lived child processes,
crash/timeout accounting included) and await their records as futures,
while a single daemon poller thread reaps completions.  A worker that
segfaults or overruns its timeout is handled by the executor's
:class:`~repro.campaign.supervisor.WorkerSupervisor` — restarted with
backoff, or (past the restart budget) resolved as an ``errored``
record — never an exception, never a hang — which is what lets the
server turn a mid-request worker crash into either a transparently
retried shard or a structured error response.

Jobs may carry an absolute monotonic **deadline** (the serve layer's
request deadline): the executor kills and fails any worker that
outlives it, so a hung shard can never outlive the request that
spawned it.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from typing import Dict, Optional

from ..campaign.executor import ShardExecutor
from ..campaign.sharding import Shard
from ..campaign.spec import CampaignSpec
from ..campaign.supervisor import WorkerSupervisor
from ..diag import Statistic

NUM_POLLER_LEAKS = Statistic(
    "serve", "num-poller-leaks",
    "Shard-pool poller threads that outlived their escalated join "
    "timeout at close()")

logger = logging.getLogger("repro.serve.pool")

#: seconds the poller thread waits on busy workers per executor poll.
POLL_INTERVAL = 0.02

#: close() join budget: first a polite join, then an escalated one.
_JOIN_TIMEOUT = 2.0
_JOIN_ESCALATED = 10.0


class AsyncShardPool:
    """Futures over a shared :class:`ShardExecutor`."""

    def __init__(self, workers: int = 2,
                 shard_timeout: Optional[float] = None):
        self.executor = ShardExecutor(workers=workers,
                                      shard_timeout=shard_timeout)
        self._pending: Dict[int, tuple] = {}  # job_id -> (loop, future)
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = False
        self._thread: Optional[threading.Thread] = None

    @property
    def supervisor(self) -> WorkerSupervisor:
        return self.executor.supervisor

    # -- lifecycle ---------------------------------------------------------
    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._poll_loop, name="shard-pool-poller",
                daemon=True)
            self._thread.start()

    def close(self) -> None:
        """Stop the poller, reap every worker process, and cancel the
        futures of jobs that never finished."""
        self._stop = True
        self._wake.set()
        try:
            self._join_poller()
        finally:
            with self._lock:
                self.executor.shutdown(kill=True)
                pending, self._pending = dict(self._pending), {}
            for loop, future in pending.values():
                loop.call_soon_threadsafe(
                    _resolve_cancelled, future)

    def _join_poller(self) -> None:
        if self._thread is None:
            return
        self._thread.join(timeout=_JOIN_TIMEOUT)
        if self._thread.is_alive():
            # The poller is stuck (most likely inside a pipe wait on a
            # wedged worker).  Don't abandon it silently: say so, count
            # it, and escalate the join once before falling back to the
            # daemon-thread backstop.
            logger.warning(
                "shard-pool poller did not stop within %.1fs; "
                "escalating join to %.1fs", _JOIN_TIMEOUT,
                _JOIN_ESCALATED)
            self._thread.join(timeout=_JOIN_ESCALATED)
            if self._thread.is_alive():
                NUM_POLLER_LEAKS.inc()
                logger.error(
                    "shard-pool poller leaked: still alive after "
                    "%.1fs; leaving the daemon thread behind",
                    _JOIN_TIMEOUT + _JOIN_ESCALATED)

    # -- submission --------------------------------------------------------
    def submit(self, spec: CampaignSpec, shard: Shard,
               deadline: Optional[float] = None) -> "asyncio.Future":
        """Submit one shard; returns a future resolving to its record.

        ``deadline`` (absolute ``time.monotonic``) propagates to the
        executor: the job is killed and errored when it expires."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        with self._lock:
            job_id = self.executor.submit(spec, shard, deadline=deadline)
            self._pending[job_id] = (loop, future)
        self._ensure_thread()
        self._wake.set()
        return future

    @property
    def busy(self) -> int:
        with self._lock:
            return self.executor.inflight + self.executor.queued

    # -- the poller thread -------------------------------------------------
    def _poll_loop(self) -> None:
        while not self._stop:
            with self._lock:
                idle = self.executor.idle
            if idle:
                self._wake.wait(timeout=0.2)
                self._wake.clear()
                continue
            with self._lock:
                done = self.executor.poll(POLL_INTERVAL)
            for job_id, _shard, record in done:
                with self._lock:
                    entry = self._pending.pop(job_id, None)
                if entry is None:
                    continue
                loop, future = entry
                loop.call_soon_threadsafe(_resolve_record, future, record)


def _resolve_record(future: "asyncio.Future", record: dict) -> None:
    if not future.done():
        future.set_result(record)


def _resolve_cancelled(future: "asyncio.Future") -> None:
    if not future.done():
        future.cancel()
