"""Typed metrics over the statistics registry: gauges, histograms, and
a Prometheus text renderer.

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
* typed instruments: :class:`Gauge` (set-able) and :class:`Histogram`
  (fixed cumulative buckets + sum + count) in a
  :class:`MetricsRegistry`.  There is no typed counter: the stats are
  the counters.
* :func:`render_prometheus` — the text exposition format the validation
  service serves from ``/metrics`` and ``repro diag prom`` prints for a
  campaign directory, from the stats its checkpoint records carry.

This module deliberately imports nothing from the rest of ``repro``.
"""

from __future__ import annotations

import functools
import re
from typing import Any, Dict, List, Optional, Tuple

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
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r} "
                             f"(want [a-z_][a-z0-9_]*)")
        return name

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
        return sorted([*self._gauges, *self._histograms])

    def reset(self) -> None:
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
            "gauges": {n: g.value
                       for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.snapshot()
                           for n, h in sorted(self._histograms.items())},
        }

    def help_texts(self) -> Dict[str, str]:
        out = {}
        for table in (self._gauges, self._histograms):
            for name, inst in table.items():
                if inst.help:
                    out[name] = inst.help
        return out


def stats_as_metrics(registry: Optional[StatsRegistry] = None
                     ) -> Dict[str, int]:
    """Every stat counter under its stable Prometheus name."""
    registry = registry or default_registry()
    return prom_stats(registry.snapshot())


def prom_stats(stats: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    """A ``{pass: {counter: value}}`` stats dict — a registry snapshot,
    or the stats a campaign summary folds from its checkpoint records —
    under stable Prometheus names."""
    return {prom_name(pass_name, name): value
            for pass_name, counters in stats.items()
            for name, value in counters.items()}


def metrics_snapshot(metrics: Optional[MetricsRegistry] = None,
                     stats: Optional[StatsRegistry] = None
                     ) -> Dict[str, Any]:
    """One combined snapshot: typed instruments + stat-derived counters.

    This is the Prometheus render input — the exact surface a service
    scrape exports.
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


#: The process-wide typed-metrics registry.
_DEFAULT_METRICS = MetricsRegistry()


def default_metrics() -> MetricsRegistry:
    return _DEFAULT_METRICS
