"""End-to-end campaign engine tests: determinism across worker counts,
resume-skips-done-shards, worker-crash accounting, dedup, diag flow."""

import os

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CheckpointStore,
    run_campaign,
    run_shard,
    plan_shards,
)
from repro.campaign.executor import NUM_CHECKED, NUM_SHARDS_ERRORED
from repro.campaign.worker import CRASH_ENV, check_source
from repro.diag import default_emitter
from repro.ir import parse_function, print_module
from repro.opt import PassManager
from repro.opt.pass_manager import FunctionPass
from repro.refine import check_refinement

#: A corpus small enough for the test suite but rich enough to contain
#: the Section 3 instcombine bugs: 1-instruction mul/shl over i2.
LEGACY_SPEC = CampaignSpec(
    mode="enumerate", num_instructions=1, opcodes=("mul", "shl"),
    pipeline="instcombine", opt_config="legacy", shard_size=32,
)
FIXED_SPEC = LEGACY_SPEC.with_(opt_config="fixed")


@pytest.fixture(scope="module")
def legacy_summary():
    return run_campaign(LEGACY_SPEC, workers=1)


class TestVerdicts:
    def test_legacy_campaign_finds_the_bugs(self, legacy_summary):
        assert legacy_summary.checked == 128
        assert legacy_summary.failed > 0
        assert len(legacy_summary.counterexamples) == legacy_summary.failed

    def test_fixed_campaign_is_clean(self):
        summary = run_campaign(FIXED_SPEC, workers=1)
        assert summary.failed == 0
        assert summary.checked == 128

    def test_counterexamples_carry_reproducers(self, legacy_summary):
        cex = legacy_summary.counterexamples[0]
        assert "define" in cex["source"]
        assert "define" in cex["optimized"]
        assert cex["counterexample"]
        assert len(cex["hash"]) == 64


class TestSourceCopy:
    #: a = 0 recurses into the a != 0 case, where legacy InstCombine's
    #: mul b, 2 -> add b, b miscompiles an undef b.  The source side of
    #: the check must recurse into the source: recursing into the
    #: optimized function would move the counterexample to (1, undef).
    RECURSIVE = """
define i2 @f(i2 %a, i2 %b) {
entry:
  %c = icmp ne i2 %a, 0
  br i1 %c, label %base, label %rec
base:
  %u = mul i2 %b, 2
  ret i2 %u
rec:
  %r = call i2 @f(i2 1, i2 %b)
  ret i2 %r
}
"""

    @pytest.mark.parametrize("opt_config", ["fixed", "legacy"])
    def test_self_calls_check_like_a_parsed_source(self, opt_config):
        spec = CampaignSpec(mode="random", num_instructions=1,
                            pipeline="o2", opt_config=opt_config)
        outcome = check_source(spec, self.RECURSIVE)

        fn = parse_function(self.RECURSIVE)
        before = parse_function(print_module(fn.module))
        spec.make_pipeline().run_on_function(fn)
        expected = check_refinement(before, fn, spec.semantics(),
                                    options=spec.check_options())
        assert outcome["verdict"] == expected.verdict
        if opt_config == "legacy":
            assert expected.failed
            assert outcome["counterexample"]["counterexample"] == \
                str(expected.counterexample)


    def test_records_carry_the_source_before_the_pipeline(self,
                                                          monkeypatch):
        # Records print the untouched copy in the function's place, not
        # the function the pipeline left behind.
        expected = print_module(parse_function(self.RECURSIVE).module)
        spec = CampaignSpec(mode="random", num_instructions=1,
                            pipeline="o2", opt_config="legacy")
        failed = check_source(spec, self.RECURSIVE)
        assert failed["counterexample"]["source"] == expected

        class Wrecker(FunctionPass):
            """Empties the function, then raises."""

            name = "wrecker"

            def run_on_function(self, fn):
                for block in fn.blocks:
                    for inst in block.instructions:
                        inst.drop_all_operands()
                fn.blocks = []
                raise RuntimeError("wrecked")

        monkeypatch.setattr(CampaignSpec, "make_pipeline",
                            lambda self: PassManager([Wrecker()]))
        crashed = check_source(spec, self.RECURSIVE)
        assert crashed["status"] == "crashed"
        assert crashed["crash"]["source"] == expected


class TestWorkerCountIndependence:
    def test_verdict_sets_identical_across_worker_counts(
            self, legacy_summary, tmp_path):
        parallel = run_campaign(LEGACY_SPEC, out_dir=str(tmp_path),
                                workers=2)
        assert parallel.verdict_lines() == legacy_summary.verdict_lines()
        assert parallel.failed == legacy_summary.failed

    def test_shard_results_are_deterministic(self):
        shard = plan_shards(LEGACY_SPEC)[1]
        a = run_shard(LEGACY_SPEC, shard)
        b = run_shard(LEGACY_SPEC, shard)
        assert a["hashes"] == b["hashes"]
        assert a["verdicts"] == b["verdicts"]


class TestResume:
    def test_resume_skips_done_shards(self, tmp_path, legacy_summary):
        out = str(tmp_path)
        partial = run_campaign(LEGACY_SPEC, out_dir=out, stop_after=2)
        assert partial.shards_run == 2
        assert partial.shards_total == 4

        resumed = run_campaign(LEGACY_SPEC, out_dir=out, resume=True)
        assert resumed.shards_skipped == 2
        assert resumed.shards_run == 2
        # the resumed summary covers the whole campaign
        assert resumed.checked == 128
        assert resumed.verdict_lines() == legacy_summary.verdict_lines()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_random_campaign_reports_uninterrupted_totals(
            self, tmp_path, workers):
        # Random streams repeat functions across shards; a resumed run
        # must count those as checks, as the uninterrupted run does,
        # not as dedup hits against the done shards' log.
        spec = CampaignSpec(mode="random", num_instructions=1, count=256,
                            shard_size=32, seed=3, include_flags=True)
        whole = run_campaign(spec, out_dir=str(tmp_path / "whole"))
        out = str(tmp_path / "resumed")
        run_campaign(spec, out_dir=out, workers=workers, stop_after=4)
        resumed = run_campaign(spec, out_dir=out, workers=workers,
                               resume=True)
        assert resumed.shards_skipped == 4
        for total in ("checked", "dedup_hits", "verified", "failed",
                      "inconclusive", "timeout"):
            assert getattr(resumed, total) == getattr(whole, total), total
        assert resumed.counterexamples == whole.counterexamples
        assert resumed.verdict_lines() == whole.verdict_lines()

    def test_resume_after_everything_done_runs_nothing(self, tmp_path):
        out = str(tmp_path)
        run_campaign(LEGACY_SPEC, out_dir=out)
        again = run_campaign(LEGACY_SPEC, out_dir=out, resume=True)
        assert again.shards_run == 0
        assert again.shards_skipped == 4
        assert again.checked == 128

    def test_resume_preloads_dedup_from_prior_runs(self, tmp_path):
        out = str(tmp_path)
        run_campaign(LEGACY_SPEC, out_dir=out)
        store = CheckpointStore(out)
        known = store.load_dedup()
        assert len(known) == 128
        # a later shard run against the preloaded cache skips everything
        shard = plan_shards(LEGACY_SPEC)[0]
        record = run_shard(LEGACY_SPEC, shard, known)
        assert record["checked"] == 0
        assert record["dedup_hits"] == shard.size


class TestWorkerCrash:
    def test_crashed_shard_is_accounted_not_lost(self, tmp_path,
                                                 legacy_summary):
        out = str(tmp_path)
        os.environ[CRASH_ENV] = "1"
        try:
            summary = run_campaign(LEGACY_SPEC, out_dir=out, workers=2)
        finally:
            del os.environ[CRASH_ENV]
        assert summary.shards_errored == [1]
        assert summary.checked == 96  # the other three shards completed
        record = CheckpointStore(out).load()[1]
        assert record["status"] == "errored"
        assert "exit code" in record["error"]

        # resume retries exactly the crashed shard and completes
        resumed = run_campaign(LEGACY_SPEC, out_dir=out, resume=True,
                               workers=2)
        assert resumed.shards_run == 1
        assert resumed.shards_skipped == 3
        assert resumed.shards_errored == []
        assert resumed.verdict_lines() == legacy_summary.verdict_lines()

    def test_inprocess_exception_is_accounted(self, tmp_path):
        bad = LEGACY_SPEC.with_(pipeline="no-such-pass")
        summary = run_campaign(bad, out_dir=str(tmp_path))
        assert len(summary.shards_errored) == summary.shards_total
        assert summary.checked == 0


class TestDedup:
    def test_random_streams_dedup_within_shards(self):
        # 120 draws from a ~64-function space: plenty of structural
        # duplicates for the canonical-hash cache to absorb.
        spec = CampaignSpec(mode="random", num_instructions=1,
                            opcodes=("add",), count=120, seed=5,
                            shard_size=40, pipeline="instcombine")
        summary = run_campaign(spec)
        assert summary.dedup_hits > 0
        assert summary.checked + summary.dedup_hits == 120
        assert 0.0 < summary.dedup_hit_rate < 1.0
        # Shards dedup internally; a duplicate spanning two shards of
        # the same run is checked twice but *reported* once (the merge
        # keeps the first occurrence), so the verdict set is still the
        # set of distinct functions.
        assert len(summary.verdicts) <= summary.checked
        assert set(summary.verdicts.values()) == {"verified"}


class TestDiagIntegration:
    def test_stats_flow_into_default_registry(self):
        before = NUM_CHECKED.value
        run_campaign(FIXED_SPEC.with_(opcodes=("add",)))
        assert NUM_CHECKED.value == before + 64

    def test_errored_shards_counted(self, tmp_path):
        before = NUM_SHARDS_ERRORED.value
        run_campaign(LEGACY_SPEC.with_(pipeline="no-such-pass"),
                     out_dir=str(tmp_path))
        assert NUM_SHARDS_ERRORED.value == before + 4

    def test_failures_emitted_as_remarks(self):
        with default_emitter().collect() as remarks:
            run_campaign(LEGACY_SPEC)
        campaign_remarks = [r for r in remarks
                            if r.pass_name == "campaign"]
        assert campaign_remarks
        assert all("refinement failure" in r.message
                   for r in campaign_remarks)

    def test_per_shard_timing_in_summary(self, legacy_summary):
        stats = legacy_summary.timing.passes["campaign-shard"]
        assert stats.runs == 4
        assert set(stats.per_function) == {
            "shard0", "shard1", "shard2", "shard3"}
        assert stats.seconds > 0

    def test_shard_records_carry_stats_deltas(self):
        shard = plan_shards(LEGACY_SPEC)[0]
        record = run_shard(LEGACY_SPEC, shard)
        assert record["stats"]["optfuzz"]["num-functions-enumerated"] == 32
