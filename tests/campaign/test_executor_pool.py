"""Tests for the reusable :class:`ShardExecutor` submission API.

The batch :class:`CampaignRunner` and the serve layer both sit on this
pool, so its contract — submit any number of jobs, poll records as
they land, convert dead/overdue workers to ``errored`` records — is
what keeps a long-running server honest about crashes.
"""

import asyncio
import multiprocessing
import os
import socket
import time

import pytest

from repro.campaign import (
    AttackRunner,
    AttackSpec,
    CampaignRunner,
    CampaignSpec,
    ShardExecutor,
    run_campaign,
)
from repro.campaign import executor as executor_module
from repro.campaign import worker as worker_module
from repro.campaign.sharding import Shard, plan_shards
from repro.campaign import supervisor
from repro.campaign.worker import CRASH_ENV, HANG_ENV
from repro.diag import stats_snapshot
from repro.opt.resilience import ServiceChaos
from repro.serve import AsyncShardPool

SPEC = CampaignSpec(mode="random", count=12, num_instructions=1,
                    pipeline="quick", shard_size=4, fuel=200,
                    max_inputs=2000)


def drain_records(executor):
    return {shard.shard_id: record
            for _job, shard, record in executor.drain()}


class TestSubmitPoll:
    def test_records_match_the_batch_runner(self):
        batch = run_campaign(SPEC, workers=1)
        executor = ShardExecutor(workers=2)
        try:
            shards = plan_shards(SPEC)
            for shard in shards:
                executor.submit(SPEC, shard)
            records = drain_records(executor)
        finally:
            executor.shutdown(kill=True)
        assert len(records) == len(shards) == 3
        merged = {}
        for sid in sorted(records):
            for h, v in sorted(records[sid]["hashes"].items()):
                merged.setdefault(h, v)
        assert ([f"{h} {v}" for h, v in sorted(merged.items())]
                == batch.verdict_lines())

    def test_pool_caps_concurrency(self):
        executor = ShardExecutor(workers=1)
        try:
            for shard in plan_shards(SPEC):
                executor.submit(SPEC, shard)
            assert executor.inflight == 1
            assert executor.queued == 2
            records = drain_records(executor)
            assert len(records) == 3
            assert executor.idle
        finally:
            executor.shutdown(kill=True)

    def test_pool_is_reusable_between_submissions(self):
        executor = ShardExecutor(workers=2)
        try:
            first = plan_shards(SPEC)[0]
            executor.submit(SPEC, first)
            one = drain_records(executor)
            assert one[first.shard_id]["status"] == "done"
            executor.submit(SPEC, first)
            two = drain_records(executor)
            assert two[first.shard_id]["hashes"] == \
                one[first.shard_id]["hashes"]
        finally:
            executor.shutdown(kill=True)

    def test_job_ids_are_unique_and_returned(self):
        executor = ShardExecutor(workers=1)
        try:
            shards = plan_shards(SPEC)
            ids = [executor.submit(SPEC, s) for s in shards]
            assert len(set(ids)) == len(shards)
            seen = {job for job, _, _ in executor.drain()}
            assert seen == set(ids)
        finally:
            executor.shutdown(kill=True)

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            ShardExecutor(workers=0)


class TestCrashAccounting:
    def test_hard_crash_becomes_errored_record(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_CRASH_SHARDS", "1")
        executor = ShardExecutor(workers=2)
        try:
            for shard in plan_shards(SPEC):
                executor.submit(SPEC, shard)
            records = drain_records(executor)
        finally:
            executor.shutdown(kill=True)
        assert records[1]["status"] == "errored"
        assert "exit code 17" in records[1]["error"]
        assert records[0]["status"] == records[2]["status"] == "done"

    def test_shard_timeout_becomes_errored_record(self, monkeypatch):
        # the shard hangs, so it overruns any timeout however warm the
        # parent's imports and caches are
        monkeypatch.setenv(HANG_ENV, "0")
        executor = ShardExecutor(workers=1, shard_timeout=0.05)
        try:
            executor.submit(SPEC, plan_shards(SPEC)[0])
            records = drain_records(executor)
        finally:
            executor.shutdown(kill=True)
        (record,) = records.values()
        assert record["status"] == "errored"
        assert "timeout" in record["error"]

    def test_shutdown_kill_clears_everything(self):
        executor = ShardExecutor(workers=1)
        for shard in plan_shards(SPEC):
            executor.submit(SPEC, shard)
        executor.shutdown(kill=True)
        assert executor.idle
        assert executor.poll(wait=0.0) == []


def _workers_started():
    return stats_snapshot().get("campaign", {}).get(
        "num-worker-processes-started", 0)


@pytest.fixture
def pid_stamped(monkeypatch):
    """Make every worker record carry the pid that ran it.  The
    executor looks ``run_shard`` up at call time, and workers fork after
    the patch, so they run the stamped version."""
    def stamped(spec, shard, known_hashes=None):
        record = worker_module.run_shard(spec, shard, known_hashes)
        record["pid"] = os.getpid()
        return record

    monkeypatch.setattr(executor_module, "run_shard", stamped)


def wait_for(predicate, executor, timeout=60.0):
    """Poll ``executor`` until ``predicate()`` holds; returns records."""
    records = {}
    end = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < end, "condition never held"
        for _job, shard, record in executor.poll(wait=0.05):
            records[shard.shard_id] = record
    return records


class TestPersistentWorkers:
    def test_fault_free_campaign_forks_each_worker_once(self):
        spec = SPEC.with_(count=16)
        assert len(plan_shards(spec)) >= 4
        before = _workers_started()
        summary = CampaignRunner(spec, workers=2).run()
        assert not summary.shards_errored
        assert _workers_started() - before == 2

    def test_one_worker_runs_every_shard(self, pid_stamped):
        executor = ShardExecutor(workers=1)
        try:
            for shard in plan_shards(SPEC):
                executor.submit(SPEC, shard)
            records = drain_records(executor)
        finally:
            executor.shutdown(kill=True)
        assert len({r["pid"] for r in records.values()}) == 1
        assert all(r["status"] == "done" for r in records.values())

    def test_survivor_keeps_serving_after_neighbour_crashes(
            self, monkeypatch, pid_stamped):
        monkeypatch.setenv(CRASH_ENV, "0")
        # A restart that finds the pool full retires an idle worker to
        # fork a fresh one, and the survivor this test watches may be
        # that worker: quarantine the crash at once instead.
        monkeypatch.setattr(supervisor, "MAX_RESTARTS", 0)
        executor = ShardExecutor(workers=2)
        shards = plan_shards(SPEC)
        try:
            executor.submit(SPEC, shards[0])
            executor.submit(SPEC, shards[1])
            records = wait_for(lambda: executor.idle, executor)
            before = _workers_started()
            # the idle survivor takes the next job; the crashed
            # worker's slot is refilled by a new fork
            executor.submit(SPEC, shards[2])
            executor.submit(SPEC, Shard(3, shards[0].start,
                                        shards[0].stop))
            records.update(wait_for(lambda: executor.idle, executor))
        finally:
            executor.shutdown(kill=True)
        assert records[0]["status"] == "errored"
        assert records[0]["quarantined"]
        assert records[2]["pid"] == records[1]["pid"]
        assert records[3]["pid"] != records[1]["pid"]
        assert _workers_started() - before == 1

    def test_restart_forks_into_a_free_slot_without_retiring(
            self, monkeypatch, pid_stamped):
        # shard 0 crashes on every attempt.  Its restarts need fresh
        # workers, and the pool has a free slot for each, so shard 1's
        # worker is not retired: it takes shard 2, and the run forks
        # 2 + MAX_RESTARTS workers, not one more.
        monkeypatch.setenv(CRASH_ENV, "0")
        executor = ShardExecutor(workers=2)
        shards = plan_shards(SPEC)
        before = _workers_started()
        try:
            executor.submit(SPEC, shards[0])
            executor.submit(SPEC, shards[1])
            records = wait_for(lambda: executor.idle, executor)
            executor.submit(SPEC, shards[2])
            records.update(wait_for(lambda: executor.idle, executor))
            alive = [proc.pid for proc, _ in executor._idle
                     if proc.is_alive()]
        finally:
            executor.shutdown(kill=True)
        assert records[0]["status"] == "errored"
        assert records[0]["quarantined"]
        assert records[0]["restarts"] == supervisor.MAX_RESTARTS == 2
        assert records[2]["pid"] == records[1]["pid"]
        assert records[1]["pid"] in alive
        assert _workers_started() - before == 4

    def test_workers_hold_no_coordinator_sockets(self):
        # a long-lived worker must not keep the coordinator's sockets
        # (a server's client connections) open behind its back
        ours, peer = socket.socketpair()
        executor = ShardExecutor(workers=1)
        try:
            executor.submit(SPEC, plan_shards(SPEC)[0])
            drain_records(executor)
            ((worker, _),) = executor._idle
            ours.close()
            peer.settimeout(30)
            assert peer.recv(1) == b""  # EOF while the worker lives
            assert worker.is_alive()
        finally:
            peer.close()
            executor.shutdown(kill=True)

    @pytest.mark.parametrize("kind", ["timeout", "deadline"])
    def test_overrun_worker_is_replaced(self, monkeypatch, pid_stamped,
                                        kind):
        monkeypatch.setenv(HANG_ENV, "0")
        shards = plan_shards(SPEC)
        executor = ShardExecutor(
            workers=1, shard_timeout=0.2 if kind == "timeout" else None)
        deadline = time.monotonic() + 0.2 if kind == "deadline" else None
        try:
            executor.submit(SPEC, shards[0], deadline=deadline)
            (entry,) = executor._running.values()
            hung = entry[0]
            # neither overrun is retried: a timeout quarantines at once,
            # an expired deadline fails at once
            records = wait_for(lambda: executor.idle, executor)
            assert kind in records[0]["error"]
            assert not hung.is_alive()
            assert executor.supervisor.restarts == 0
            executor.shard_timeout = None  # no race for the next shard
            executor.submit(SPEC, shards[1])
            records.update(wait_for(lambda: executor.idle, executor))
        finally:
            executor.shutdown(kill=True)
        assert records[1]["status"] == "done"
        assert records[1]["pid"] != hung.pid

    def test_restart_runs_in_a_new_process(self, monkeypatch):
        # a retry in a surviving worker would inherit its crash env and
        # crash again; a fresh fork sees the env as it is now
        monkeypatch.setenv(CRASH_ENV, "0")
        # the backoff keeps the retry's fork after the delenv below
        monkeypatch.setattr(supervisor, "BACKOFF_BASE", 0.5)
        executor = ShardExecutor(workers=2)
        try:
            shards = plan_shards(SPEC)
            for shard in shards:
                executor.submit(SPEC, shard)
            records = wait_for(lambda: executor.supervisor.restarts > 0,
                               executor)
            monkeypatch.delenv(CRASH_ENV)
            for _job, shard, record in executor.drain():
                records[shard.shard_id] = record
        finally:
            executor.shutdown(kill=True)
        assert records[0]["status"] == "done"
        assert records[0]["restarts"] == 1

    def test_chaos_kills_only_busy_workers(self, monkeypatch):
        monkeypatch.setenv(HANG_ENV, "0")
        # A restart would re-run the hanging shard: quarantine the
        # killed job at once.
        monkeypatch.setattr(supervisor, "MAX_RESTARTS", 0)
        shards = plan_shards(SPEC)
        executor = ShardExecutor(workers=2)
        chaos = ServiceChaos(seed=0)
        try:
            executor.submit(SPEC, shards[0])  # hangs
            executor.submit(SPEC, shards[1])
            records = wait_for(lambda: len(executor._idle) == 1, executor)
            (busy_entry,) = executor._running.values()
            busy = busy_entry[0]
            ((idle, _),) = executor._idle
            assert chaos.kill_worker(executor) == busy.pid
            monkeypatch.delenv(HANG_ENV)  # nothing may hang the drain
            records.update(wait_for(lambda: executor.idle, executor))
            assert idle.is_alive()
            assert chaos.kill_worker(executor) is None  # nothing busy
            assert idle.is_alive()
        finally:
            executor.shutdown(kill=True)
        assert records[0]["status"] == "errored"
        assert records[0]["quarantined"]
        assert records[1]["status"] == "done"
        assert [e["pid"] for e in chaos.events] == [busy.pid]


class TestNoOrphans:
    """Every entry point that owns a pool reaps all of its workers, idle
    or busy, however it ends."""

    @pytest.fixture(autouse=True)
    def no_new_children(self):
        before = set(multiprocessing.active_children())
        yield
        assert set(multiprocessing.active_children()) <= before

    def test_normal_run(self):
        summary = CampaignRunner(SPEC, workers=2).run()
        assert summary.shards_run == 3

    def test_stop_after_run(self, tmp_path):
        runner = CampaignRunner(SPEC, out_dir=str(tmp_path), workers=2)
        summary = runner.run(stop_after=1)
        assert summary.shards_run == 1

    def test_progress_callback_raises(self):
        def progress(record):
            raise RuntimeError("caller gave up")

        with pytest.raises(RuntimeError, match="caller gave up"):
            CampaignRunner(SPEC, workers=2).run(progress=progress)

    def test_attack_run(self):
        spec = AttackSpec(limit=4, stride=156816, shard_size=2,
                          max_inputs=512, max_paths=256)
        summary = AttackRunner(spec, workers=2).run()
        assert not summary.shards_errored

    def test_async_pool_close(self):
        async def main():
            pool = AsyncShardPool(workers=2)
            try:
                records = await asyncio.gather(
                    *(pool.submit(SPEC, shard)
                      for shard in plan_shards(SPEC)))
            finally:
                pool.close()
            return records

        records = asyncio.run(main())
        assert [r["status"] for r in records] == ["done"] * 3


class TestWorkerMemo:
    def test_disk_entries_load_once_per_worker(self, tmp_path):
        spec = SPEC.with_(count=24)
        summary = CampaignRunner(spec, out_dir=str(tmp_path),
                                 workers=2).run()
        assert len(summary.records) >= 6
        memo_dir = tmp_path / "memo"
        flushed = sum(
            len(path.read_text().splitlines())
            for path in memo_dir.glob("memo-*.jsonl"))
        assert flushed > 0
        loaded = summary.stats["perf"].get(
            "num-memo-disk-entries-loaded", 0)
        # each record is adopted by the other worker at most once, not
        # re-read by every later shard
        assert loaded <= flushed

    def test_verdicts_identical_with_cache_on_and_off(self, tmp_path):
        spec = SPEC.with_(count=24)
        cached = run_campaign(spec, out_dir=str(tmp_path / "on"),
                              workers=2)
        uncached = run_campaign(spec.with_(use_cache=False),
                                out_dir=str(tmp_path / "off"), workers=2)
        assert cached.verdict_lines() == uncached.verdict_lines()
        assert cached.counterexamples == uncached.counterexamples
        assert cached.checked == uncached.checked
