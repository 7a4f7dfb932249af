"""Hierarchical pass timing (LLVM's ``-time-passes``).

:class:`PassTiming` replaces the flat per-pass record the old
``PassManager`` kept: each pass accumulates totals *and* a per-function
breakdown, so the compile-time experiment (E2) can see not just that a
pipeline got slower but *which pass on which function* did.  Timing is
recorded through the :meth:`PassTiming.measure` context manager, whose
``__exit__`` accounts whether or not the block raised, so a pass that
raises mid-run still gets its wall time and run count recorded (no
orphaned seconds).

One :class:`PassTiming` may be shared by several :class:`PassManager`
instances (the harness threads a single collector through the -O2 and
codegen pipelines of one compilation), and :meth:`report` renders the
classic ``-time-passes`` table.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class TimeRecord:
    """Leaf record: one pass on one function (or one pass in total)."""

    runs: int = 0
    changes: int = 0
    seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"runs": self.runs, "changes": self.changes,
                "seconds": self.seconds}


@dataclass
class PassStats:
    """Per-pass statistics with a per-function breakdown.

    The successor of the old flat ``PassStats``; the aggregate fields
    (``runs``/``changes``/``seconds``) keep their historical names so
    existing consumers of ``PassManager.stats`` keep working.
    """

    runs: int = 0
    changes: int = 0
    seconds: float = 0.0
    per_function: Dict[str, TimeRecord] = field(default_factory=dict)

    def record(self, function: str, seconds: float, changed: bool) -> None:
        self.runs += 1
        self.seconds += seconds
        if changed:
            self.changes += 1
        rec = self.per_function.get(function)
        if rec is None:
            rec = self.per_function[function] = TimeRecord()
        rec.runs += 1
        rec.seconds += seconds
        if changed:
            rec.changes += 1

    def as_dict(self) -> Dict:
        """Stable serialization for the bench harness and the CLI."""
        return {
            "runs": self.runs,
            "changes": self.changes,
            "seconds": self.seconds,
            "per_function": {
                name: rec.as_dict()
                for name, rec in sorted(self.per_function.items())
            },
        }


class _Measurement:
    """The context manager :meth:`PassTiming.measure` returns, and the
    handle it yields: the caller sets ``changed`` before the block
    exits.  A plain slotted class, not a ``contextlib`` generator: it
    runs once per pass application."""

    __slots__ = ("stats", "function", "start", "changed")

    def __init__(self, stats: PassStats, function: str):
        self.stats = stats
        self.function = function
        self.changed = False

    def __enter__(self) -> "_Measurement":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.stats.record(self.function, time.perf_counter() - self.start,
                          self.changed)


class PassTiming:
    """Per-pass × per-function wall-clock collector."""

    def __init__(self):
        self.passes: Dict[str, PassStats] = {}

    def measure(self, pass_name: str, function: str) -> _Measurement:
        """Time one pass invocation on one function.  Accounting happens
        on exit whether or not the block raised, so a pass that raises
        still records its elapsed time together with a matching ``runs``
        increment."""
        stats = self.passes.get(pass_name)
        if stats is None:
            stats = self.passes[pass_name] = PassStats()
        return _Measurement(stats, function)

    # -- queries ------------------------------------------------------------
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.passes.values())

    def reset(self) -> None:
        self.passes.clear()

    def as_dict(self) -> Dict[str, Dict]:
        return {name: stats.as_dict()
                for name, stats in sorted(self.passes.items())}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    # -- emission ------------------------------------------------------------
    def report(self, per_function: bool = False,
               title: str = "Pass execution timing report") -> str:
        """The ``-time-passes`` table: passes sorted by total wall time,
        with percentages; optionally a per-function breakdown."""
        total = self.total_seconds()
        lines = [
            "===" + "-" * 62 + "===",
            "{:^68}".format(f"... {title} ..."),
            "===" + "-" * 62 + "===",
            f"  Total execution time: {total:.6f} seconds",
            "",
            f"  {'---seconds---':>13} {'--%--':>6} {'runs':>5} "
            f"{'chg':>4}  --- pass name ---",
        ]
        ranked = sorted(self.passes.items(),
                        key=lambda kv: -kv[1].seconds)
        for name, stats in ranked:
            pct = (stats.seconds / total * 100.0) if total else 0.0
            lines.append(
                f"  {stats.seconds:>13.6f} {pct:>5.1f}% {stats.runs:>5} "
                f"{stats.changes:>4}  {name}"
            )
            if per_function:
                for fn_name, rec in sorted(stats.per_function.items(),
                                           key=lambda kv: -kv[1].seconds):
                    lines.append(
                        f"  {rec.seconds:>13.6f} {'':>6} {rec.runs:>5} "
                        f"{rec.changes:>4}    @{fn_name}"
                    )
        return "\n".join(lines)

    def merge(self, other: "PassTiming") -> None:
        """Fold another collector's records into this one."""
        for name, stats in other.passes.items():
            mine = self.passes.setdefault(name, PassStats())
            mine.runs += stats.runs
            mine.changes += stats.changes
            mine.seconds += stats.seconds
            for fn_name, rec in stats.per_function.items():
                dest = mine.per_function.setdefault(fn_name, TimeRecord())
                dest.runs += rec.runs
                dest.changes += rec.changes
                dest.seconds += rec.seconds
