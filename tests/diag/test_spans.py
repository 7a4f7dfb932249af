"""Hierarchical spans: the collector, the null fast path, the JSONL
sink, and the phase cheap tier."""

import json

from repro.diag.spans import (
    NULL_SPAN,
    SPAN_SCHEMA,
    SpanCollector,
    current_collector,
    phase,
    set_collector,
    span,
)


class TestDisabledFastPath:
    def test_disabled_span_is_the_shared_singleton(self):
        sc = SpanCollector()
        assert not sc.enabled
        assert sc.span("anything") is NULL_SPAN
        assert sc.phase("anything") is NULL_SPAN

    def test_null_span_supports_the_full_surface(self):
        with NULL_SPAN as sp:
            assert sp.set(verdict="verified") is sp
            assert sp.stats == {}
            assert sp.attrs == {}

    def test_module_helpers_default_to_disabled(self):
        assert not current_collector().enabled or True  # never raises
        with span("x", cat="test"):
            with phase("y"):
                pass

    def test_phase_outside_any_span_is_null(self):
        sc = SpanCollector(keep=True)
        assert sc.phase("orphan") is NULL_SPAN


class TestInMemoryCollection:
    def test_spans_nest_and_record_parents(self):
        sc = SpanCollector(keep=True)
        with sc.span("outer", cat="test") as outer:
            with sc.span("inner", cat="test") as inner:
                pass
        assert [s.name for s in sc.spans] == ["inner", "outer"]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.wall >= inner.wall >= 0.0
        assert outer.cpu >= 0.0

    def test_attrs_and_function_ride_in_the_dict(self):
        sc = SpanCollector(keep=True)
        with sc.span("check", cat="refine", function="f") as sp:
            sp.set(verdict="verified", inputs=3)
        d = sc.spans[0].as_dict()
        assert d["name"] == "check"
        assert d["cat"] == "refine"
        assert d["fn"] == "f"
        assert d["attrs"] == {"verdict": "verified", "inputs": 3}
        json.dumps(d)  # JSON-safe

    def test_phases_accumulate_into_the_enclosing_span(self):
        sc = SpanCollector(keep=True)
        with sc.span("check", cat="refine"):
            for _ in range(5):
                with sc.phase("enumerate"):
                    pass
            with sc.phase("compare"):
                pass
        d = sc.spans[0].as_dict()
        assert d["phases"]["enumerate"]["count"] == 5
        assert d["phases"]["compare"]["count"] == 1
        assert d["phases"]["enumerate"]["seconds"] >= 0.0
        # phases emit no records of their own (the cheap tier)
        assert len(sc.spans) == 1

    def test_current_returns_the_innermost_open_span(self):
        sc = SpanCollector(keep=True)
        assert sc.current() is None
        with sc.span("outer") as outer:
            assert sc.current() is outer
            with sc.span("inner") as inner:
                assert sc.current() is inner
            assert sc.current() is outer
        assert sc.current() is None

    def test_on_complete_callbacks_see_finished_spans(self):
        sc = SpanCollector(keep=True)
        seen = []
        sc.on_complete.append(lambda s: seen.append(s.name))
        with sc.span("a"):
            with sc.span("b"):
                pass
        assert seen == ["b", "a"]


class TestJsonlSink:
    def test_open_writes_meta_then_streams_spans(self, tmp_path):
        path = str(tmp_path / "spans-shard0000.jsonl")
        sc = SpanCollector()
        sc.open(path, pid=3, label="shard 3")
        assert sc.enabled
        with sc.span("work", cat="test"):
            pass
        sc.close()
        assert not sc.enabled
        lines = [json.loads(l) for l in open(path)]
        assert lines[0]["kind"] == "meta"
        assert lines[0]["schema"] == SPAN_SCHEMA
        assert lines[0]["pid"] == 3
        assert lines[0]["label"] == "shard 3"
        # spans are batched: one JSON array line per SINK_BATCH spans
        assert isinstance(lines[1], list)
        assert lines[1][0]["name"] == "work"

    def test_reopen_appends_a_new_session(self, tmp_path):
        path = str(tmp_path / "spans-shard0000.jsonl")
        for attempt in range(2):
            sc = SpanCollector()
            sc.open(path, pid=0, label="shard 0")
            with sc.span("attempt"):
                pass
            sc.close()
        lines = [json.loads(l) for l in open(path)]
        metas = [l for l in lines
                 if isinstance(l, dict) and l.get("kind") == "meta"]
        assert len(metas) == 2  # retried shard = fresh id namespace

    def test_open_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "spans-shard0000.jsonl")
        sc = SpanCollector()
        sc.open(path, pid=0)
        sc.close()
        assert (tmp_path / "deep").is_dir()


class TestInstallation:
    def test_set_collector_swaps_and_restores(self):
        mine = SpanCollector(keep=True)
        old = set_collector(mine)
        try:
            with span("routed", cat="test"):
                pass
            assert [s.name for s in mine.spans] == ["routed"]
        finally:
            set_collector(old)
        assert current_collector() is old

