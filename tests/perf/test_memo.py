"""Unit tests for the behavior-set verdict memo (``repro.perf``)."""

import json
import os

from repro.diag import stats_snapshot
from repro.perf import RefinementMemo


def _perf_stats():
    return stats_snapshot().get("perf", {})


class TestInMemory:
    def test_record_then_lookup(self):
        memo = RefinementMemo("ctx")
        assert memo.lookup("h1") is None
        memo.record("h1", "verified")
        assert memo.lookup("h1") == "verified"
        assert len(memo) == 1

    def test_all_terminal_verdicts_cacheable(self):
        memo = RefinementMemo("ctx")
        memo.record("a", "verified")
        memo.record("b", "inconclusive")
        memo.record("c", "timeout")
        assert len(memo) == 3

    def test_failed_is_never_memoized(self):
        # A failure must re-run so its counterexample record is
        # regenerated; caching it would change campaign output.
        memo = RefinementMemo("ctx")
        memo.record("h1", "failed")
        assert memo.lookup("h1") is None
        assert len(memo) == 0

    def test_first_record_wins(self):
        memo = RefinementMemo("ctx")
        memo.record("h1", "verified")
        memo.record("h1", "timeout")
        assert memo.lookup("h1") == "verified"

    def test_hit_miss_counters(self):
        memo = RefinementMemo("ctx")
        before = _perf_stats()
        memo.lookup("missing")
        memo.record("h1", "verified")
        memo.lookup("h1")
        after = _perf_stats()
        assert (after["num-memo-misses"]
                - before.get("num-memo-misses", 0)) == 1
        assert (after["num-memo-hits"]
                - before.get("num-memo-hits", 0)) == 1


class TestDiskLayer:
    def test_round_trip(self, tmp_path):
        d = str(tmp_path)
        first = RefinementMemo("ctx", disk_dir=d)
        first.record("h1", "verified")
        first.record("h2", "timeout")
        assert first.flush() == 2
        second = RefinementMemo("ctx", disk_dir=d)
        assert second.lookup("h1") == "verified"
        assert second.lookup("h2") == "timeout"

    def test_refresh_skips_own_appends(self, tmp_path, monkeypatch):
        from repro.perf import memo as memo_module

        d = str(tmp_path)
        other = RefinementMemo("ctx", disk_dir=d)
        memo = RefinementMemo("ctx", disk_dir=d)
        memo.record("h1", "verified")
        memo.flush()
        other.record("h2", "verified")
        other.flush()  # another writer of the same file (same pid)
        memo.record("h3", "verified")
        memo.flush()
        parsed = []
        classify = memo_module._classify
        monkeypatch.setattr(memo_module, "_classify",
                            lambda line: parsed.append(line)
                            or classify(line))
        # h2 sits between this memo's two appends, so the second append
        # did not start at the read offset and is parsed again
        assert memo.refresh() == 1
        assert len(parsed) == 2
        assert memo.lookup("h2") == "verified"
        memo.record("h4", "verified")
        memo.flush()
        parsed.clear()
        assert memo.refresh() == 0
        assert parsed == []  # its own append, not parsed back

    def test_flush_is_incremental(self, tmp_path):
        memo = RefinementMemo("ctx", disk_dir=str(tmp_path))
        memo.record("h1", "verified")
        assert memo.flush() == 1
        assert memo.flush() == 0  # nothing fresh
        memo.record("h2", "verified")
        assert memo.flush() == 1

    def test_contexts_are_isolated(self, tmp_path):
        d = str(tmp_path)
        a = RefinementMemo("ctx-a", disk_dir=d)
        a.record("h1", "verified")
        a.flush()
        b = RefinementMemo("ctx-b", disk_dir=d)
        assert b.lookup("h1") is None
        again = RefinementMemo("ctx-a", disk_dir=d)
        assert again.lookup("h1") == "verified"

    def test_torn_and_hostile_lines_are_skipped(self, tmp_path):
        d = str(tmp_path)
        good = json.dumps({"c": "ctx", "k": "h1", "v": "verified"})
        bad_verdict = json.dumps({"c": "ctx", "k": "h2", "v": "failed"})
        with open(os.path.join(d, "memo-1.jsonl"), "w") as fh:
            fh.write('{"c": "ctx", "k": "h9", "v"\n')  # torn write
            fh.write("not json at all\n")
            fh.write(bad_verdict + "\n")  # uncacheable verdict on disk
            fh.write(good + "\n")
        memo = RefinementMemo("ctx", disk_dir=d)
        assert memo.lookup("h1") == "verified"
        assert memo.lookup("h2") is None
        assert memo.lookup("h9") is None
        assert len(memo) == 1

    def test_missing_dir_is_empty_memo(self, tmp_path):
        memo = RefinementMemo("ctx", disk_dir=str(tmp_path / "nope"))
        assert len(memo) == 0

    def test_multiple_writer_files_merge(self, tmp_path):
        d = str(tmp_path)
        for i, (key, verdict) in enumerate(
            [("h1", "verified"), ("h2", "inconclusive")]
        ):
            with open(os.path.join(d, f"memo-{i}.jsonl"), "w") as fh:
                fh.write(json.dumps({"c": "ctx", "k": key, "v": verdict})
                         + "\n")
        memo = RefinementMemo("ctx", disk_dir=d)
        assert memo.lookup("h1") == "verified"
        assert memo.lookup("h2") == "inconclusive"
