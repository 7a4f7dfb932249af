"""Request admission, backpressure, and the refine micro-batcher.

Two pieces of queueing discipline keep the server healthy under load:

* :class:`RequestGate` — a bounded admission counter.  Every request
  holds one slot from admission to its terminal frame; past the
  high-water mark new requests are rejected immediately (HTTP 429 /
  ``queue-full`` error frame) instead of piling up latency.  A drain
  (SIGTERM) flips the gate: in-flight slots finish normally, new
  arrivals get ``draining``.
* :class:`Batcher` — groups small homogeneous work items (refine
  requests sharing one memo context) into campaign-style batches
  opportunistically: a lane takes its first item plus every item
  already queued behind it, up to ``max_batch``, and runs them at once
  as one unit — one thread hop, one memo refresh, one memo flush —
  resolving every item's waiter individually.  Nothing waits for
  company: items that arrive while a batch runs form the next batch,
  so batches grow with load and a lone item never pays a timer.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from ..diag import Statistic, default_metrics

NUM_REJECTED = Statistic(
    "serve", "num-requests-rejected",
    "Requests rejected for backpressure (queue-full or draining)")
NUM_BATCHES = Statistic(
    "serve", "num-batches",
    "Micro-batches the refine batcher dispatched")
NUM_BATCHED = Statistic(
    "serve", "num-batched-functions",
    "Work items that travelled through the refine micro-batcher")


class QueueFull(Exception):
    """The admission queue is past its high-water mark."""


class Draining(Exception):
    """The server is draining; no new work is admitted."""


class RequestGate:
    """Bounded request admission with drain support.

    Not a queue of callables — requests run as asyncio tasks — but the
    *count* of admitted-and-unfinished requests, capped at
    ``high_water``.  ``try_admit``/``release`` bracket each request.
    """

    def __init__(self, high_water: int = 64):
        if high_water < 1:
            raise ValueError("high_water must be >= 1")
        self.high_water = high_water
        self.inflight = 0
        self.admitted_total = 0
        self.draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._depth_gauge = default_metrics().gauge(
            "repro_serve_queue_depth",
            "Admitted-and-unfinished requests (the serve admission "
            "queue depth)")

    def try_admit(self) -> None:
        """Claim one slot or raise :class:`Draining`/:class:`QueueFull`."""
        if self.draining:
            NUM_REJECTED.inc()
            raise Draining("server is draining; request rejected")
        if self.inflight >= self.high_water:
            NUM_REJECTED.inc()
            raise QueueFull(
                f"request queue is at its high-water mark "
                f"({self.high_water} in flight)")
        self.inflight += 1
        self.admitted_total += 1
        self._idle.clear()
        self._depth_gauge.set(self.inflight)

    def release(self) -> None:
        self.inflight -= 1
        self._depth_gauge.set(self.inflight)
        if self.inflight <= 0:
            self._idle.set()

    def start_drain(self) -> None:
        """Reject all future admissions; in-flight requests finish."""
        self.draining = True
        if self.inflight <= 0:
            self._idle.set()

    async def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Wait until every admitted request released; True on success."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False


class Batcher:
    """Micro-batches work items keyed by a homogeneity key.

    ``run_batch(key, items)`` is an async callable executing one batch;
    it must resolve each item's future (``item[1]``) — anything left
    unresolved when it returns is failed with its exception, so a buggy
    batch can never hang its waiters.  :meth:`aclose` fails every
    queued and in-flight waiter with :class:`Draining`.
    """

    def __init__(self,
                 run_batch: Callable[[str, List[Tuple[Any, asyncio.Future]]],
                                     Awaitable[None]],
                 max_batch: int = 16):
        self.run_batch = run_batch
        self.max_batch = max(1, max_batch)
        self._lanes: Dict[str, asyncio.Queue] = {}
        self._tasks: Dict[str, asyncio.Task] = {}
        self._closed = False

    async def submit(self, key: str, item: Any) -> Any:
        """Queue ``item`` on lane ``key``; returns its batch result."""
        if self._closed:
            raise Draining("batcher is closed")
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = asyncio.Queue()
            self._tasks[key] = asyncio.ensure_future(self._lane_loop(key))
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        lane.put_nowait((item, future))
        NUM_BATCHED.inc()
        return await future

    async def _lane_loop(self, key: str) -> None:
        lane = self._lanes[key]
        batch: List[Tuple[Any, asyncio.Future]] = []
        try:
            while not self._closed:
                batch = [await lane.get()]
                while len(batch) < self.max_batch and not lane.empty():
                    batch.append(lane.get_nowait())
                NUM_BATCHES.inc()
                try:
                    await self.run_batch(key, batch)
                except Exception as e:  # noqa: BLE001 — resolve, never hang
                    _fail(batch, e)
                else:
                    _fail(batch, RuntimeError("batch runner dropped an item"))
        finally:
            # cancelled by aclose() mid-batch: the batch's waiters get
            # the answer a closed submit() gives
            _fail(batch, Draining("batcher closed before the item ran"))

    async def aclose(self) -> None:
        """Stop every lane and fail each queued or in-flight waiter."""
        self._closed = True
        tasks = list(self._tasks.values())
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        # a lane task cancelled before its first step never ran its
        # cleanup, so the queues are emptied here
        for lane in self._lanes.values():
            while not lane.empty():
                _fail([lane.get_nowait()],
                      Draining("batcher closed before the item ran"))
        self._tasks.clear()
        self._lanes.clear()


def _fail(batch: List[Tuple[Any, asyncio.Future]],
          error: BaseException) -> None:
    """Fail every still-pending waiter in ``batch`` with ``error``."""
    for _, future in batch:
        if not future.done():
            future.set_exception(error)
