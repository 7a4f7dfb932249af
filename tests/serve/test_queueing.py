"""Unit tests for request admission and the refine micro-batcher."""

import asyncio

import pytest

from repro.serve.queueing import Batcher, Draining, QueueFull, RequestGate


def run(coro):
    return asyncio.run(coro)


class TestRequestGate:
    def test_admit_release_cycle(self):
        gate = RequestGate(high_water=2)
        gate.try_admit()
        gate.try_admit()
        assert gate.inflight == 2
        gate.release()
        gate.release()
        assert gate.inflight == 0
        assert gate.admitted_total == 2

    def test_queue_full_past_high_water(self):
        gate = RequestGate(high_water=1)
        gate.try_admit()
        with pytest.raises(QueueFull):
            gate.try_admit()
        # a release frees the slot again
        gate.release()
        gate.try_admit()

    def test_draining_rejects_new_work(self):
        gate = RequestGate(high_water=4)
        gate.try_admit()
        gate.start_drain()
        with pytest.raises(Draining):
            gate.try_admit()
        assert gate.inflight == 1  # in-flight slot untouched

    def test_bad_high_water(self):
        with pytest.raises(ValueError):
            RequestGate(high_water=0)

    def test_wait_idle(self):
        async def scenario():
            gate = RequestGate(high_water=4)
            gate.try_admit()
            gate.start_drain()
            assert not await gate.wait_idle(timeout=0.01)
            gate.release()
            assert await gate.wait_idle(timeout=1.0)

        run(scenario())

    def test_wait_idle_immediate_when_never_used(self):
        async def scenario():
            gate = RequestGate()
            assert await gate.wait_idle(timeout=0.1)

        run(scenario())


class TestDrainRace:
    """start_drain racing newly-accepted connections: a slot claimed a
    tick before the drain must finish normally and hold wait_idle open;
    a connection arriving a tick after must be rejected — never half
    admitted, never leaked."""

    def test_admitted_just_before_drain_completes(self):
        async def scenario():
            gate = RequestGate(high_water=8)
            finished = []

            async def request(i, delay):
                gate.try_admit()
                try:
                    await asyncio.sleep(delay)
                    finished.append(i)
                finally:
                    gate.release()

            # admitted before the drain: must run to completion
            early = [asyncio.ensure_future(request(i, 0.03))
                     for i in range(3)]
            await asyncio.sleep(0)  # let them claim their slots
            assert gate.inflight == 3
            gate.start_drain()
            # arrives after the drain: rejected, no slot consumed
            with pytest.raises(Draining):
                gate.try_admit()
            assert gate.inflight == 3
            # the drain waits for exactly the admitted set
            assert not await gate.wait_idle(timeout=0.005)
            await asyncio.gather(*early)
            assert await gate.wait_idle(timeout=1.0)
            assert sorted(finished) == [0, 1, 2]
            assert gate.inflight == 0

        run(scenario())

    def test_storm_of_admissions_racing_one_drain(self):
        """Interleave 50 admission attempts with a mid-stream drain:
        every attempt either fully admits (and releases) or raises
        Draining — the bookkeeping never drifts."""

        async def scenario():
            gate = RequestGate(high_water=64)
            outcomes = {"done": 0, "rejected": 0}

            async def request(i):
                try:
                    gate.try_admit()
                except Draining:
                    outcomes["rejected"] += 1
                    return
                try:
                    await asyncio.sleep(0.001 * (i % 4))
                finally:
                    gate.release()
                outcomes["done"] += 1

            async def drainer():
                await asyncio.sleep(0.004)
                gate.start_drain()

            tasks = [asyncio.ensure_future(drainer())]
            for i in range(50):
                tasks.append(asyncio.ensure_future(request(i)))
                await asyncio.sleep(0.0003)
            await asyncio.gather(*tasks)
            assert await gate.wait_idle(timeout=1.0)
            return gate, outcomes

        gate, outcomes = run(scenario())
        assert outcomes["done"] + outcomes["rejected"] == 50
        assert outcomes["done"] >= 1      # someone got in before
        assert outcomes["rejected"] >= 1  # someone hit the drain
        assert gate.admitted_total == outcomes["done"]
        assert gate.inflight == 0

    def test_drain_on_idle_gate_is_immediately_idle(self):
        async def scenario():
            gate = RequestGate(high_water=2)
            gate.try_admit()
            gate.release()
            gate.start_drain()
            assert await gate.wait_idle(timeout=0.05)
            with pytest.raises(Draining):
                gate.try_admit()

        run(scenario())

    def test_release_after_drain_still_wakes_waiters(self):
        """The waiter ordering race: wait_idle entered *after* the
        drain begins but *before* the last release must still wake."""

        async def scenario():
            gate = RequestGate(high_water=2)
            gate.try_admit()
            gate.start_drain()
            waiter = asyncio.ensure_future(gate.wait_idle(timeout=1.0))
            await asyncio.sleep(0.01)  # waiter is parked on the event
            gate.release()
            assert await waiter

        run(scenario())


class TestBatcher:
    def test_groups_items_on_one_lane(self):
        batches = []

        async def run_batch(key, batch):
            batches.append((key, len(batch)))
            for item, future in batch:
                future.set_result(item * 10)

        async def scenario():
            batcher = Batcher(run_batch, max_batch=8)
            results = await asyncio.gather(
                *(batcher.submit("lane", i) for i in range(5)))
            await batcher.aclose()
            return results

        assert run(scenario()) == [0, 10, 20, 30, 40]
        # items queued before the lane runs ride one batch
        assert sum(n for _, n in batches) == 5
        assert len(batches) <= 2

    def test_max_batch_cap(self):
        sizes = []

        async def run_batch(key, batch):
            sizes.append(len(batch))
            for item, future in batch:
                future.set_result(item)

        async def scenario():
            batcher = Batcher(run_batch, max_batch=2)
            await asyncio.gather(
                *(batcher.submit("lane", i) for i in range(6)))
            await batcher.aclose()

        run(scenario())
        assert max(sizes) <= 2

    def test_lanes_are_independent(self):
        seen = {}

        async def run_batch(key, batch):
            seen.setdefault(key, 0)
            seen[key] += len(batch)
            for item, future in batch:
                future.set_result(item)

        async def scenario():
            batcher = Batcher(run_batch, max_batch=8)
            await asyncio.gather(
                batcher.submit("a", 1), batcher.submit("b", 2),
                batcher.submit("a", 3))
            await batcher.aclose()

        run(scenario())
        assert seen == {"a": 2, "b": 1}

    def test_batch_exception_fails_every_waiter(self):
        async def run_batch(key, batch):
            raise RuntimeError("boom")

        async def scenario():
            batcher = Batcher(run_batch)
            with pytest.raises(RuntimeError, match="boom"):
                await batcher.submit("lane", 1)
            await batcher.aclose()

        run(scenario())

    def test_dropped_item_fails_its_waiter(self):
        # a batch runner that forgets an item must not hang its caller
        async def run_batch(key, batch):
            batch[0][1].set_result("ok")  # resolves only the first

        async def scenario():
            batcher = Batcher(run_batch, max_batch=2)
            first = asyncio.ensure_future(batcher.submit("lane", 1))
            second = asyncio.ensure_future(batcher.submit("lane", 2))
            results = await asyncio.gather(first, second,
                                           return_exceptions=True)
            await batcher.aclose()
            return results

        first, second = run(scenario())
        dropped = [r for r in (first, second)
                   if isinstance(r, RuntimeError)]
        assert len(dropped) == 1
        assert "dropped" in str(dropped[0])

    def test_closed_batcher_rejects(self):
        async def run_batch(key, batch):
            for _, future in batch:
                future.set_result(None)

        async def scenario():
            batcher = Batcher(run_batch)
            await batcher.aclose()
            with pytest.raises(Draining):
                await batcher.submit("lane", 1)

        run(scenario())

    def test_items_queued_during_a_batch_form_the_next_batch(self):
        sizes = []

        async def scenario():
            entered = asyncio.Event()
            release = asyncio.Event()

            async def run_batch(key, batch):
                sizes.append(len(batch))
                entered.set()
                await release.wait()
                for item, future in batch:
                    future.set_result(item)

            batcher = Batcher(run_batch, max_batch=8)
            first = asyncio.ensure_future(batcher.submit("lane", 0))
            await entered.wait()  # the first batch is running, held
            rest = [asyncio.ensure_future(batcher.submit("lane", i))
                    for i in (1, 2, 3)]
            await asyncio.sleep(0)  # the three enqueue behind it
            release.set()
            results = await asyncio.gather(first, *rest)
            await batcher.aclose()
            return results

        assert run(scenario()) == [0, 1, 2, 3]
        assert sizes == [1, 3]

    def test_lone_item_runs_without_waiting_for_company(self):
        async def scenario():
            sizes = []

            async def run_batch(key, batch):
                sizes.append(len(batch))
                for item, future in batch:
                    future.set_result(item)

            batcher = Batcher(run_batch)
            task = asyncio.ensure_future(batcher.submit("lane", 7))
            for _ in range(3):  # submit, then the lane loop, then slack
                await asyncio.sleep(0)
            assert sizes == [1]
            assert await task == 7
            await batcher.aclose()

        run(scenario())

    def test_aclose_fails_inflight_and_queued_waiters(self):
        async def scenario():
            entered = asyncio.Event()

            async def run_batch(key, batch):
                entered.set()
                await asyncio.Event().wait()  # never finishes

            batcher = Batcher(run_batch, max_batch=1)
            inflight = asyncio.ensure_future(batcher.submit("lane", 1))
            await entered.wait()
            queued = asyncio.ensure_future(batcher.submit("lane", 2))
            await asyncio.sleep(0)  # queued behind the held batch
            # hang guards: a stranded waiter fails here, not by hanging
            await asyncio.wait_for(batcher.aclose(), 10)
            return await asyncio.wait_for(
                asyncio.gather(inflight, queued, return_exceptions=True),
                10)

        inflight, queued = run(scenario())
        assert isinstance(inflight, Draining)
        assert isinstance(queued, Draining)

    def test_aclose_fails_items_of_a_lane_that_never_ran(self):
        async def run_batch(key, batch):
            for item, future in batch:
                future.set_result(item)

        async def scenario():
            batcher = Batcher(run_batch)
            waiter = asyncio.ensure_future(batcher.submit("lane", 1))
            await asyncio.sleep(0)  # queued; its lane loop not yet run
            await batcher.aclose()  # called directly: no step in between
            return await asyncio.wait_for(
                asyncio.gather(waiter, return_exceptions=True), 10)

        (result,) = run(scenario())
        assert isinstance(result, Draining)
