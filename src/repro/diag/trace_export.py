"""Merging per-shard span files into one Chrome-trace-event JSON, and
aggregating it into a profile report (``python -m repro diag top``).

Each campaign worker streams its spans to a per-shard JSONL file
(:meth:`repro.diag.spans.SpanCollector.open`).  :func:`merge_trace`
folds those files into a single ``trace.json`` in the Chrome trace
event format, which Perfetto (https://ui.perfetto.dev) and
``chrome://tracing`` load directly:

* one complete event (``"ph": "X"``) per span, with microsecond
  timestamps relative to each session's first span;
* ``pid`` = the logical shard id from the file's ``meta`` line, so the
  UI groups lanes by worker;
* ``tid`` = a small integer per function name (falling back to the
  span category), so concurrent work on different functions gets
  separate lanes, with ``"M"`` metadata events naming both axes;
* span id / parent id, CPU time, phase tables, and stat deltas ride in
  ``args`` — nothing is lost in the conversion.

Torn final lines (a worker killed mid-write) are skipped exactly like
campaign checkpoints, and a retried shard that re-opened the same file
starts a new *session* at its ``meta`` line, giving its span ids a
fresh namespace so parents never resolve across retries.

:func:`build_profile` inverts the trace into per-name aggregates:
call count, total time, self time (total minus direct children),
CPU time, per-phase rollups (phases appear as ``name/phase``
pseudo-entries), and memo hit rates recovered from attached stat
deltas.  :func:`render_top` prints it like a profiler's ``top``.

This module deliberately imports nothing from the rest of ``repro``
but the dependency-free JSONL reader.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .jsonl import load_jsonl

#: glob pattern the campaign worker's span files follow.
SPAN_FILE_PATTERN = "spans-*.jsonl"


#: Raw records (meta + spans) from one span file; a batched line (one
#: JSON array of span dicts per SpanCollector.SINK_BATCH sink write)
#: contributes each of its spans.
load_span_file = load_jsonl


def _sessions(records: Iterable[Dict[str, Any]]
              ) -> List[Tuple[Dict[str, Any], List[Dict[str, Any]]]]:
    """Split a file's records at ``meta`` lines.  Each (meta, spans)
    session is an independent span-id namespace (shard retries append
    to the same file with a fresh meta line)."""
    sessions: List[Tuple[Dict[str, Any], List[Dict[str, Any]]]] = []
    meta: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    for record in records:
        if record.get("kind") == "meta":
            if spans or meta:
                sessions.append((meta, spans))
            meta, spans = record, []
        elif "name" in record and "ts" in record:
            spans.append(record)
    if spans or meta:
        sessions.append((meta, spans))
    return sessions


def merge_traces(span_records: List[Tuple[Dict[str, Any],
                                          List[Dict[str, Any]]]]
                 ) -> Dict[str, Any]:
    """Fold (meta, spans) sessions into one Chrome-trace-event object."""
    events: List[Dict[str, Any]] = []
    named_pids: Dict[int, str] = {}
    tids: Dict[Tuple[int, str], int] = {}

    for session_index, (meta, spans) in enumerate(span_records):
        pid = int(meta.get("pid", 0))
        label = meta.get("label") or f"shard {pid}"
        if pid not in named_pids:
            named_pids[pid] = label
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": label}})
        if not spans:
            continue
        # Timestamps are perf_counter seconds, comparable only within a
        # process; rebase each session to its earliest span start.
        base = min(s["ts"] for s in spans)
        for s in spans:
            lane = s.get("fn") or s.get("cat") or "main"
            tid_key = (pid, lane)
            tid = tids.get(tid_key)
            if tid is None:
                tid = tids[tid_key] = 1 + sum(
                    1 for k in tids if k[0] == pid)
                events.append({"name": "thread_name", "ph": "M",
                               "pid": pid, "tid": tid,
                               "args": {"name": lane}})
            args: Dict[str, Any] = {"id": s.get("id"),
                                    "session": session_index}
            if "parent" in s:
                args["parent"] = s["parent"]
            if "cpu" in s:
                args["cpu_ms"] = round(s["cpu"] * 1e3, 3)
            for key in ("attrs", "phases", "stats"):
                if s.get(key):
                    args[key] = s[key]
            events.append({
                "name": s["name"],
                "cat": s.get("cat") or "span",
                "ph": "X",
                "ts": round((s["ts"] - base) * 1e6, 1),
                "dur": round(s.get("dur", 0.0) * 1e6, 1),
                "pid": pid,
                "tid": tid,
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def find_span_files(spans_dir: str) -> List[str]:
    return sorted(glob.glob(os.path.join(spans_dir, SPAN_FILE_PATTERN)))


def merge_trace(spans_dir: str, out_path: Optional[str] = None
                ) -> Dict[str, Any]:
    """Merge every per-shard span file under ``spans_dir`` into one
    Chrome trace object, optionally writing it to ``out_path``."""
    sessions: List[Tuple[Dict[str, Any], List[Dict[str, Any]]]] = []
    for path in find_span_files(spans_dir):
        sessions.extend(_sessions(load_span_file(path)))
    trace = merge_traces(sessions)
    if out_path:
        parent = os.path.dirname(out_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump(trace, f)
    return trace


def load_trace(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# -- profile aggregation ------------------------------------------------------
def build_profile(trace: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Aggregate a merged trace into per-span-name rows.

    Self time is total time minus the duration of *direct* children
    (resolved through span parent ids within each (pid, session)
    namespace).  Phases become ``parent-name/phase-name`` pseudo-rows
    (they have no own records by design — that is the cheap tier).
    Memo hit rates are recovered from attached stat deltas.
    """
    events = [e for e in trace.get("traceEvents", [])
              if e.get("ph") == "X"]

    # Map (pid, session, span id) -> event for parent resolution.
    by_id: Dict[Tuple[int, int, Any], Dict[str, Any]] = {}
    for e in events:
        args = e.get("args", {})
        if args.get("id") is not None:
            by_id[(e.get("pid", 0), args.get("session", 0),
                   args["id"])] = e

    child_time: Dict[int, float] = {}
    for e in events:
        args = e.get("args", {})
        parent = args.get("parent")
        if parent is None:
            continue
        parent_event = by_id.get((e.get("pid", 0),
                                  args.get("session", 0), parent))
        if parent_event is not None:
            child_time[id(parent_event)] = (
                child_time.get(id(parent_event), 0.0)
                + e.get("dur", 0.0))

    profile: Dict[str, Dict[str, Any]] = {}

    def row(name: str, cat: str) -> Dict[str, Any]:
        r = profile.get(name)
        if r is None:
            r = profile[name] = {
                "cat": cat, "count": 0, "total_us": 0.0,
                "self_us": 0.0, "cpu_ms": 0.0, "stats": {},
            }
        return r

    for e in events:
        args = e.get("args", {})
        r = row(e.get("name", "?"), e.get("cat", ""))
        dur = e.get("dur", 0.0)
        r["count"] += 1
        r["total_us"] += dur
        phase_us = 0.0
        for phase_name, p in args.get("phases", {}).items():
            pr = row(f"{e.get('name', '?')}/{phase_name}", "phase")
            pr["count"] += p.get("count", 0)
            seconds = p.get("seconds", 0.0)
            pr["total_us"] += seconds * 1e6
            pr["self_us"] += seconds * 1e6
            pr["cpu_ms"] += p.get("cpu_seconds", 0.0) * 1e3
            phase_us += seconds * 1e6
        r["self_us"] += max(
            0.0, dur - child_time.get(id(e), 0.0) - phase_us)
        r["cpu_ms"] += args.get("cpu_ms", 0.0)
        for stat, delta in args.get("stats", {}).items():
            r["stats"][stat] = r["stats"].get(stat, 0) + delta

    # Derived rates: memo hit rate wherever hit/miss deltas were seen.
    for r in profile.values():
        hits = r["stats"].get("perf/num-memo-hits", 0)
        misses = r["stats"].get("perf/num-memo-misses", 0)
        if hits + misses:
            r["memo_hit_rate"] = hits / (hits + misses)
    return profile


def render_top(profile: Dict[str, Dict[str, Any]], sort: str = "self",
               limit: int = 20) -> str:
    """A profiler-style ``top`` table over :func:`build_profile` rows."""
    key = {"self": lambda r: r[1]["self_us"],
           "total": lambda r: r[1]["total_us"],
           "count": lambda r: r[1]["count"]}.get(sort)
    if key is None:
        raise ValueError(f"unknown sort {sort!r} "
                         f"(want self, total, or count)")
    rows = sorted(profile.items(), key=key, reverse=True)[:limit]
    if not rows:
        return "(empty trace)"
    name_w = max(4, max(len(name) for name, _ in rows))
    lines = [f"{'name':<{name_w}} {'cat':<8} {'count':>7} "
             f"{'total':>10} {'self':>10} {'cpu':>9}  extras",
             "-" * (name_w + 52)]
    for name, r in rows:
        extras = []
        if "memo_hit_rate" in r:
            extras.append(f"memo-hit={r['memo_hit_rate']:.0%}")
        for stat, delta in sorted(r["stats"].items())[:3]:
            extras.append(f"{stat}=+{delta}")
        lines.append(
            f"{name:<{name_w}} {r['cat']:<8} {r['count']:>7} "
            f"{_ms(r['total_us']):>10} {_ms(r['self_us']):>10} "
            f"{r['cpu_ms']:>7.1f}ms  {' '.join(extras)}".rstrip())
    return "\n".join(lines)


def _ms(us: float) -> str:
    return f"{us / 1e3:.1f}ms"
