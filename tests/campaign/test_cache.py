"""The behavior-set memo cache must be output-invisible.

The whole contract of ``repro.perf`` is that the cache only removes
work: every campaign summary — verdict lines, counterexample records,
dedup counts — is byte-identical with the cache on, off, cold, or warm.
These tests hold that contract, including the one deliberate hole: the
memo is disabled under chaos injection, where skipping a function would
shift the shared fault stream.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign import CampaignSpec, run_campaign, run_shard
from repro.campaign import worker as worker_module
from repro.campaign.canon import canonical_hash
from repro.campaign.sharding import plan_shards
from repro.campaign.worker import memo_scope
from repro.diag import stats_snapshot
from repro.fuzz import random_functions
from repro.ir import parse_function, print_module
from repro.perf import RefinementMemo
from repro.refine import CheckOptions, check_refinement

_FAST = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

#: mul/shl over i2 through legacy instcombine: small, but contains the
#: Section 3 miscompiles, so all four verdict classes are exercised.
SPEC = CampaignSpec(
    mode="enumerate", num_instructions=1, opcodes=("mul", "shl"),
    pipeline="instcombine", opt_config="legacy", shard_size=32,
)

OPTS = CheckOptions(max_choices=20, fuel=600)


def _perf(name):
    return stats_snapshot().get("perf", {}).get(name, 0)


class TestMemoScope:
    """A scope builds one memo per (context, cache_dir) and refreshes it
    for later shards; outside a scope each shard builds its own."""

    @staticmethod
    def _count_memos(monkeypatch):
        built = []

        class Counting(RefinementMemo):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(worker_module, "RefinementMemo", Counting)
        return built

    def test_scope_builds_one_memo_per_context(self, monkeypatch,
                                               tmp_path):
        built = self._count_memos(monkeypatch)
        spec = SPEC.with_(cache_dir=str(tmp_path))
        shards = plan_shards(spec)
        with memo_scope():
            for shard in shards:
                run_shard(spec, shard)
            run_shard(spec.with_(opt_config="fixed"), shards[0])
        assert len(shards) > 1
        assert len(built) == 2

    def test_direct_calls_build_fresh_memos(self, monkeypatch):
        built = self._count_memos(monkeypatch)
        shards = plan_shards(SPEC)
        for shard in shards:
            run_shard(SPEC, shard)
        assert len(built) == len(shards)

    def test_scoped_memo_replays_earlier_shards(self):
        # a function repeated across shards is checked once per scope
        spec = SPEC.with_(shard_size=16)
        shards = plan_shards(spec)
        with memo_scope() as scope:
            first = run_shard(spec, shards[0])
            again = run_shard(spec, shards[0])
        assert again["hashes"] == first["hashes"]
        assert again["stats"]["perf"]["num-memo-hits"] == (
            first["checked"] - first["verdicts"]["failed"])
        (memo,) = scope._memos.values()
        assert len(memo) == first["checked"] - first["verdicts"]["failed"]


class TestCampaignInvariance:
    def test_no_cache_flag_is_byte_identical(self):
        cached = run_campaign(SPEC, workers=1)
        uncached = run_campaign(SPEC.with_(use_cache=False), workers=1)
        assert cached.verdict_lines() == uncached.verdict_lines()
        assert cached.counterexamples == uncached.counterexamples
        assert cached.checked == uncached.checked
        assert cached.dedup_hits == uncached.dedup_hits

    def test_warm_disk_replay_is_byte_identical(self, tmp_path):
        memo_dir = str(tmp_path / "memo")
        spec = SPEC.with_(cache_dir=memo_dir)
        cold = run_campaign(spec, workers=1)
        hits_before = _perf("num-memo-hits")
        warm = run_campaign(spec, workers=1)
        assert warm.verdict_lines() == cold.verdict_lines()
        assert warm.counterexamples == cold.counterexamples
        # The warm run replayed every cacheable verdict ("failed" never
        # caches, so those re-ran and regenerated their records).
        replayed = _perf("num-memo-hits") - hits_before
        assert replayed == cold.checked - cold.failed

    def test_runner_defaults_cache_dir_under_out_dir(self, tmp_path):
        out = str(tmp_path / "camp")
        first = run_campaign(SPEC, out_dir=out, workers=1)
        hits_before = _perf("num-memo-hits")
        second = run_campaign(SPEC, out_dir=str(tmp_path / "camp2"),
                              workers=1)
        assert second.verdict_lines() == first.verdict_lines()
        # Separate out_dirs: no shared disk layer, so no replay between
        # the runs (each stays correct, just cold).
        assert (tmp_path / "camp" / "memo").is_dir()
        assert _perf("num-memo-hits") == hits_before

    def test_memo_disabled_under_chaos(self):
        # ChaosEngine draws are shared across a shard; memo-skipping a
        # function would shift every later function's faults.
        assert SPEC.memo_enabled()
        assert not SPEC.with_(chaos_seed=7).memo_enabled()
        assert not SPEC.with_(use_cache=False).memo_enabled()

    def test_context_separates_incompatible_specs(self):
        base = SPEC.memo_context()
        assert SPEC.with_(pipeline="gvn").memo_context() != base
        assert SPEC.with_(fuel=601).memo_context() != base
        assert SPEC.with_(opt_config="fixed").memo_context() != base
        # Execution-irrelevant knobs share the context.
        assert SPEC.with_(shard_size=64).memo_context() == base
        assert SPEC.with_(limit=10).memo_context() == base

    def test_context_separates_verdict_shaping_knobs(self):
        """Audit fix: ``sample_inputs`` changes what "verified" means
        and ``engine`` changes who computed it; replaying across either
        flip would launder a sampled or vector verdict into a different
        spec's cache."""
        base = SPEC.memo_context()
        assert SPEC.with_(sample_inputs=50).memo_context() != base
        assert SPEC.with_(engine="scalar").memo_context() != base
        assert SPEC.with_(engine="vector").memo_context() != base
        assert (SPEC.with_(engine="scalar").memo_context()
                != SPEC.with_(engine="vector").memo_context())
        # cross_check is not a context key — it never changes verdicts,
        # it only audits them — but it disables the memo outright so
        # both engines really run.
        assert SPEC.with_(cross_check=True).memo_context() == base
        assert not SPEC.with_(cross_check=True).memo_enabled()

    def test_sampled_verdicts_replay_as_sampled(self):
        """Bugfix: a sampled pass must round-trip the memo as
        "verified-sampled", never as a plain exhaustive "verified"."""
        memo = RefinementMemo("ctx")
        memo.record("h1", "verified-sampled")
        assert memo.lookup("h1") == "verified-sampled"


class TestMemoMatchesFreshCheck:
    @_FAST
    @given(st.integers(0, 100_000))
    def test_replayed_verdict_equals_fresh_verdict(self, seed):
        """verdict(check) == verdict(memo record + replay), function by
        function: the property that makes replaying sound."""
        fn = next(iter(random_functions(1, seed=seed)))
        src = parse_function(print_module(fn.module))
        tgt = parse_function(print_module(fn.module))
        SPEC.with_(opt_config="fixed").make_pipeline().run_on_function(tgt)

        fresh = check_refinement(src, tgt, options=OPTS).verdict
        again = check_refinement(src, tgt, options=OPTS).verdict
        assert fresh == again  # the checker itself is deterministic

        memo = RefinementMemo("ctx")
        memo.record(canonical_hash(src), fresh)
        replayed = memo.lookup(canonical_hash(src))
        if fresh == "failed":
            assert replayed is None  # failures always re-run
        else:
            assert replayed == fresh
