"""Typed metrics over the statistics registry: counters, gauges,
histograms, JSONL time series, and a Prometheus text renderer.

The :mod:`repro.diag.stats` counters are the compiler's ``-stats``
surface — process-wide, reset-able, keyed by ``(pass, name)``.  This
module is the *export* surface on top of them, shaped the way a
long-running service is scraped:

* stable metric names: every stat maps deterministically through
  :func:`prom_name` (``perf/num-memo-hits`` →
  ``repro_perf_num_memo_hits_total``), and first-class metrics are
  declared with their final names up front.  The documented name set
  lives in :mod:`repro.diag.metrics_catalog`; a test holds that every
  emitted stat is cataloged, so renames cannot silently break
  dashboards or BENCH gates.
* typed instruments: :class:`Counter` (monotonic), :class:`Gauge`
  (set-able), :class:`Histogram` (fixed cumulative buckets + sum +
  count) in a :class:`MetricsRegistry`.
* :class:`MetricsWriter` — append-only JSONL time series; long-running
  campaign shards flush snapshots periodically, and the loader
  (:func:`load_metrics_series`) tolerates torn final lines exactly like
  campaign checkpoints.
* :func:`render_prometheus` — the text exposition format the future
  validation-as-a-service front-end will serve from ``/metrics``.

This module deliberately imports nothing from the rest of ``repro``.
"""

from __future__ import annotations

import functools
import json
import os
import re
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from .jsonl import load_jsonl
from .stats import StatsRegistry, default_registry

#: prefix of every exported metric name.
METRIC_PREFIX = "repro"

_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")

#: default histogram bucket upper bounds (seconds-flavored).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


def _sanitize(part: str) -> str:
    out = re.sub(r"[^a-zA-Z0-9_]", "_", part).strip("_").lower()
    return out or "x"


@functools.lru_cache(maxsize=4096)
def prom_name(pass_name: str, counter: str) -> str:
    """The stable Prometheus name of one ``(pass, counter)`` stat."""
    return (f"{METRIC_PREFIX}_{_sanitize(pass_name)}"
            f"_{_sanitize(counter)}_total")


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help = help_text
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help = help_text
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n


class Histogram:
    """Cumulative fixed-bucket histogram (Prometheus semantics)."""

    __slots__ = ("name", "help", "buckets", "counts", "total", "count")

    def __init__(self, name: str, help_text: str = "",
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help_text
        self.buckets = tuple(sorted(buckets))
        #: per-bucket counts (non-cumulative; snapshot cumulates).
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def snapshot(self) -> Dict[str, Any]:
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            cumulative[repr(bound)] = running
        cumulative["+Inf"] = running + self.counts[-1]
        return {"buckets": cumulative, "sum": self.total,
                "count": self.count}


class MetricsRegistry:
    """Holds typed instruments, keyed by their stable names."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r} "
                             f"(want [a-z_][a-z0-9_]*)")
        return name

    def counter(self, name: str, help_text: str = "") -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(self._check_name(name),
                                               help_text)
        return c

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(self._check_name(name),
                                           help_text)
        return g

    def histogram(self, name: str, help_text: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS
                  ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(
                self._check_name(name), help_text, buckets)
        return h

    def names(self) -> List[str]:
        return sorted([*self._counters, *self._gauges, *self._histograms])

    def reset(self) -> None:
        for c in self._counters.values():
            c.value = 0
        for g in self._gauges.values():
            g.value = 0.0
        for h in self._histograms.values():
            h.counts = [0] * (len(h.buckets) + 1)
            h.total = 0.0
            h.count = 0

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view of every instrument's current value."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value
                       for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.snapshot()
                           for n, h in sorted(self._histograms.items())},
        }

    def help_texts(self) -> Dict[str, str]:
        out = {}
        for table in (self._counters, self._gauges, self._histograms):
            for name, inst in table.items():
                if inst.help:
                    out[name] = inst.help
        return out


def stats_as_metrics(registry: Optional[StatsRegistry] = None
                     ) -> Dict[str, int]:
    """Every stat counter under its stable Prometheus name."""
    registry = registry or default_registry()
    return {prom_name(pass_name, name): value
            for pass_name, name, value in registry}


def metrics_snapshot(metrics: Optional[MetricsRegistry] = None,
                     stats: Optional[StatsRegistry] = None
                     ) -> Dict[str, Any]:
    """One combined snapshot: typed instruments + stat-derived counters.

    This is the JSONL time-series payload and the Prometheus render
    input — the exact surface a service scrape would export.
    """
    metrics = metrics or default_metrics()
    snap = metrics.snapshot()
    snap["stats"] = stats_as_metrics(stats)
    return snap


# -- Prometheus text exposition ---------------------------------------------
def render_prometheus(snapshot: Dict[str, Any],
                      help_texts: Optional[Dict[str, str]] = None) -> str:
    """Render a :func:`metrics_snapshot` in the Prometheus text format."""
    help_texts = help_texts or {}
    lines: List[str] = []

    def emit_help(name: str, kind: str) -> None:
        text = help_texts.get(name)
        if text:
            lines.append(f"# HELP {name} {text}")
        lines.append(f"# TYPE {name} {kind}")

    for name, value in sorted(snapshot.get("counters", {}).items()):
        emit_help(name, "counter")
        lines.append(f"{name} {value}")
    for name, value in sorted(snapshot.get("stats", {}).items()):
        emit_help(name, "counter")
        lines.append(f"{name} {value}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        emit_help(name, "gauge")
        lines.append(f"{name} {_fmt(value)}")
    for name, h in sorted(snapshot.get("histograms", {}).items()):
        emit_help(name, "histogram")
        for le, count in h.get("buckets", {}).items():
            lines.append(f'{name}_bucket{{le="{le}"}} {count}')
        lines.append(f"{name}_sum {_fmt(h.get('sum', 0.0))}")
        lines.append(f"{name}_count {h.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    return repr(value) if isinstance(value, float) else str(value)


# -- JSONL time series -------------------------------------------------------
class MetricsWriter:
    """Appends periodic metric snapshots to a JSONL time-series file.

    One writer per file (the per-process discipline of the memo's disk
    layer); records carry a wall-clock timestamp and a monotonically
    increasing sequence number so merged series sort stably.
    """

    def __init__(self, path: str, interval: float = 5.0):
        self.path = path
        #: minimum seconds between :meth:`maybe_flush` flushes;
        #: ``<= 0`` flushes on every call.
        self.interval = interval
        self.flushes = 0
        self._last = None  # monotonic time of the last flush
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    def flush(self,
              snapshot: Union[Dict[str, Any],
                              Callable[[], Dict[str, Any]], None] = None,
              **extra: Any) -> None:
        """Append one snapshot record now.

        ``snapshot`` may be a callable producing the snapshot dict —
        it is only invoked when a record is actually written, so hot
        loops can pass a lazy thunk to :meth:`maybe_flush` without
        paying the registry walk on the calls the interval suppresses.
        """
        if callable(snapshot):
            snapshot = snapshot()
        record = {
            "ts": time.time(),
            "seq": self.flushes,
            "metrics": snapshot if snapshot is not None
            else metrics_snapshot(),
        }
        record.update(extra)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
        self.flushes += 1
        self._last = time.monotonic()

    def maybe_flush(self,
                    snapshot: Union[Dict[str, Any],
                                    Callable[[], Dict[str, Any]],
                                    None] = None,
                    **extra: Any) -> bool:
        """Flush if at least ``interval`` seconds elapsed since the
        last flush (always flushes the first call)."""
        now = time.monotonic()
        if (self._last is not None and self.interval > 0
                and now - self._last < self.interval):
            return False
        self.flush(snapshot, **extra)
        return True


#: Load a metrics JSONL file, skipping torn/corrupt lines.
load_metrics_series = load_jsonl


def merge_latest_metrics(paths: Iterable[str]) -> Dict[str, Any]:
    """Fold several per-shard series into one combined latest snapshot:
    counters/stats sum across shards, gauges take the last value,
    histograms merge bucket-wise."""
    combined: Dict[str, Any] = {"counters": {}, "gauges": {},
                                "histograms": {}, "stats": {}}
    for path in paths:
        series = load_metrics_series(path)
        if not series:
            continue
        latest = series[-1].get("metrics", {})
        for table in ("counters", "stats"):
            for name, value in latest.get(table, {}).items():
                combined[table][name] = combined[table].get(name, 0) + value
        for name, value in latest.get("gauges", {}).items():
            combined["gauges"][name] = value
        for name, h in latest.get("histograms", {}).items():
            dest = combined["histograms"].setdefault(
                name, {"buckets": {}, "sum": 0.0, "count": 0})
            for le, count in h.get("buckets", {}).items():
                dest["buckets"][le] = dest["buckets"].get(le, 0) + count
            dest["sum"] += h.get("sum", 0.0)
            dest["count"] += h.get("count", 0)
    return combined


#: The process-wide typed-metrics registry.
_DEFAULT_METRICS = MetricsRegistry()


def default_metrics() -> MetricsRegistry:
    return _DEFAULT_METRICS
