"""Tests for the reusable :class:`ShardExecutor` submission API.

The batch :class:`CampaignRunner` and the serve layer both sit on this
pool, so its contract — submit any number of jobs, poll records as
they land, convert dead/overdue workers to ``errored`` records — is
what keeps a long-running server honest about crashes.
"""

import pytest

from repro.campaign import CampaignSpec, ShardExecutor, run_campaign
from repro.campaign.sharding import plan_shards
from repro.campaign.worker import HANG_ENV

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
