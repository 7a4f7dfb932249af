"""Unit tests for the shared jittered backoff and the worker
supervisor's restart/quarantine policy, plus integration tests for
supervised healing in the executor pool."""

import random
import time

import pytest

from repro.campaign import CampaignSpec, ShardExecutor, run_campaign
from repro.campaign import supervisor
from repro.campaign.sharding import plan_shards
from repro.campaign.supervisor import WorkerSupervisor, jittered_backoff
from repro.serve import retry

SPEC = CampaignSpec(mode="random", count=12, num_instructions=1,
                    pipeline="quick", shard_size=4, fuel=200,
                    max_inputs=2000)


@pytest.mark.parametrize("base, cap", [
    (supervisor.BACKOFF_BASE, supervisor.BACKOFF_CAP),
    (retry.BACKOFF_BASE, retry.BACKOFF_CAP),
], ids=["supervisor", "client"])
class TestJitteredBackoff:
    def test_grows_exponentially_and_caps(self, monkeypatch, base, cap):
        monkeypatch.setattr(supervisor, "JITTER", 0.0)
        rng = random.Random(0)
        delays = [jittered_backoff(k, base, cap, rng) for k in range(1, 12)]
        assert delays[0] == pytest.approx(base)
        assert delays[1] == pytest.approx(2 * base)
        assert delays[2] == pytest.approx(4 * base)
        assert delays[-1] == pytest.approx(cap)  # capped
        assert delays == sorted(delays)

    def test_jitter_stays_in_band(self, base, cap):
        rng = random.Random(0)
        for k in range(1, 12):
            mid = min(cap, base * 2 ** (k - 1))
            delay = jittered_backoff(k, base, cap, rng)
            assert (mid * (1 - supervisor.JITTER) <= delay
                    <= mid * (1 + supervisor.JITTER))

    def test_deterministic_per_seed(self, base, cap):
        def schedule(seed):
            rng = random.Random(seed)
            return [jittered_backoff(k, base, cap, rng) for k in (1, 2, 3)]

        assert schedule(42) == schedule(42)
        assert schedule(42) != schedule(43)


class TestDecisionLadder:
    def test_first_crash_restarts_with_backoff(self, monkeypatch):
        monkeypatch.setattr(supervisor, "JITTER", 0.0)
        sup = WorkerSupervisor()
        before = time.monotonic()
        decision = sup.on_failure(1, None, "worker died (exit code -9)")
        assert decision.action == "restart"
        assert decision.not_before >= before + supervisor.BACKOFF_BASE
        assert sup.restarts == 1

    def test_quarantine_after_max_restarts(self):
        sup = WorkerSupervisor()
        for _ in range(supervisor.MAX_RESTARTS):
            assert sup.on_failure(7, None, "crash").action == "restart"
        final = sup.on_failure(7, None, "crash")
        assert final.action == "quarantine"
        assert "quarantined after 3 failed attempts" in final.reason
        assert "crash" in final.reason  # raw reason embedded
        assert sup.quarantined == 1
        assert sup.poison_pills[0]["job_id"] == 7
        assert sup.poison_pills[0]["attempts"] == 3

    def test_non_retryable_failure_quarantines_immediately(self):
        sup = WorkerSupervisor()
        decision = sup.on_failure(1, None, "shard exceeded its timeout",
                                  retryable=False)
        assert decision.action == "quarantine"
        assert sup.restarts == 0

    def test_expired_deadline_fails_without_spending_budget(self):
        sup = WorkerSupervisor()
        decision = sup.on_failure(1, None, "crash",
                                  deadline=time.monotonic() - 1.0)
        assert decision.action == "fail"
        assert sup.restarts == 0

    def test_insufficient_runway_fails_instead_of_restarting(
            self, monkeypatch):
        # backoff would be 1.0s but only ~0.1s of deadline remains
        monkeypatch.setattr(supervisor, "BACKOFF_BASE", 1.0)
        monkeypatch.setattr(supervisor, "JITTER", 0.0)
        sup = WorkerSupervisor()
        decision = sup.on_failure(1, None, "crash",
                                  deadline=time.monotonic() + 0.1)
        assert decision.action == "fail"
        assert sup.restarts == 0

    def test_global_restart_budget(self, monkeypatch):
        monkeypatch.setattr(supervisor, "RESTART_BUDGET", 2)
        sup = WorkerSupervisor()
        assert sup.on_failure(1, None, "crash").action == "restart"
        assert sup.on_failure(2, None, "crash").action == "restart"
        spent = sup.on_failure(3, None, "crash")
        assert spent.action == "fail"
        assert "restart budget 2 exhausted" in spent.reason

    def test_forget_drops_history(self):
        sup = WorkerSupervisor()
        sup.on_failure(5, None, "crash")
        assert sup.history_for(5).attempts == 1
        sup.forget(5)
        assert sup.history_for(5) is None

    def test_report_shape(self, monkeypatch):
        monkeypatch.setattr(supervisor, "MAX_RESTARTS", 0)
        sup = WorkerSupervisor()
        sup.on_failure(9, None, "boom")
        report = sup.report()
        assert report["restarts"] == 0
        assert report["quarantined"] == 1
        assert report["poison_pills"][0]["reasons"] == ["boom"]


class TestSupervisedExecutor:
    def test_crash_heals_with_identical_verdicts(self, monkeypatch):
        """A crashing shard is respawned and its verdicts match the
        batch path — the healed record is the record."""
        batch = run_campaign(SPEC, workers=1)

        monkeypatch.setenv("REPRO_CAMPAIGN_CRASH_SHARDS", "1")
        executor = ShardExecutor(workers=2)
        crashed_once = {"done": False}

        # crash exactly the first attempt of shard 1: flip the env off
        # once the supervisor has scheduled the restart (the backoff
        # delay guarantees the retry forks after the delenv)
        try:
            shards = plan_shards(SPEC)
            for shard in shards:
                executor.submit(SPEC, shard)
            records = {}
            while not executor.idle:
                for _job, shard, record in executor.poll(wait=0.01):
                    records[shard.shard_id] = record
                if (not crashed_once["done"]
                        and executor.supervisor.restarts > 0):
                    monkeypatch.delenv("REPRO_CAMPAIGN_CRASH_SHARDS")
                    crashed_once["done"] = True
        finally:
            executor.shutdown(kill=True)

        assert crashed_once["done"], "the injected crash never fired"
        assert records[1]["status"] == "done"
        assert records[1]["restarts"] >= 1
        merged = {}
        for sid in sorted(records):
            for h, v in sorted(records[sid]["hashes"].items()):
                merged.setdefault(h, v)
        assert ([f"{h} {v}" for h, v in sorted(merged.items())]
                == batch.verdict_lines())

    def test_permanent_crasher_is_quarantined(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_CRASH_SHARDS", "0")
        monkeypatch.setattr(supervisor, "MAX_RESTARTS", 1)
        monkeypatch.setattr(supervisor, "BACKOFF_BASE", 0.0)
        executor = ShardExecutor(workers=1)
        try:
            shard = plan_shards(SPEC)[0]
            executor.submit(SPEC, shard)
            records = [r for _j, _s, r in executor.drain()]
        finally:
            executor.shutdown(kill=True)

        assert len(records) == 1
        assert records[0]["status"] == "errored"
        assert records[0].get("quarantined") is True
        assert "quarantined after 2 failed attempts" in records[0]["error"]
        report = executor.supervisor.report()
        assert report["quarantined"] == 1
        assert report["poison_pills"][0]["shard_id"] == shard.shard_id
