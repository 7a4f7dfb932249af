"""Compiler observability: statistics, remarks, timing, and tracing.

The diagnostics layer mirrors LLVM's telemetry surfaces:

* :mod:`repro.diag.stats` — ``STATISTIC``-style named counters with a
  process-wide registry (``-stats``);
* :mod:`repro.diag.remarks` — optimization remarks with a subscriber
  API (``-Rpass`` / serialized remark files);
* :mod:`repro.diag.timing` — hierarchical per-pass × per-function
  timing (``-time-passes``);
* :mod:`repro.diag.trace` — interpreter event traces attached to
  :class:`~repro.semantics.interp.Behavior` results;
* :mod:`repro.diag.spans` — hierarchical cross-process spans streamed
  to per-shard JSONL files;
* :mod:`repro.diag.trace_export` — merges span files into a Chrome
  trace-event ``trace.json`` and aggregates profile reports;
* :mod:`repro.diag.metrics` — typed gauges/histograms and the
  Prometheus text renderer;
* :mod:`repro.diag.metrics_catalog` — the documented stat/metric name
  set (tested against everything actually emitted);
* :mod:`repro.diag.recorder` — black-box flight recorder dumped into
  crash bundles and errored-shard records.

This package deliberately imports nothing from the rest of ``repro``,
so every subsystem (opt, semantics, fuzz, bench) can depend on it.
"""

from .remarks import (
    REMARK_ANALYSIS,
    REMARK_KINDS,
    REMARK_MISSED,
    REMARK_PASSED,
    Remark,
    RemarkEmitter,
    default_emitter,
    emit_remark,
    remarks_from_json,
    remarks_to_json,
)
from .metrics import (
    MetricsRegistry,
    default_metrics,
    metrics_snapshot,
    prom_name,
    render_prometheus,
)
from .recorder import (
    FlightRecorder,
    current_recorder,
    recorder_dump,
    set_recorder,
)
from .spans import (
    NULL_SPAN,
    Span,
    SpanCollector,
    current_collector,
    phase,
    phase_entries,
    set_collector,
    span,
)
from .stats import (
    Statistic,
    StatsRegistry,
    default_registry,
    format_stats,
    reset_stats,
    stats_delta,
    stats_snapshot,
)
from .timing import PassStats, PassTiming, TimeRecord
from .trace import ExecTrace

__all__ = [
    "REMARK_ANALYSIS", "REMARK_KINDS", "REMARK_MISSED", "REMARK_PASSED",
    "Remark", "RemarkEmitter", "default_emitter", "emit_remark",
    "remarks_from_json", "remarks_to_json",
    "Statistic", "StatsRegistry", "default_registry", "format_stats",
    "reset_stats", "stats_delta", "stats_snapshot",
    "NULL_SPAN", "Span", "SpanCollector", "current_collector",
    "set_collector", "span", "phase", "phase_entries",
    "MetricsRegistry", "default_metrics", "metrics_snapshot",
    "prom_name", "render_prometheus",
    "FlightRecorder", "current_recorder", "recorder_dump", "set_recorder",
    "PassStats", "PassTiming", "TimeRecord",
    "ExecTrace",
]
