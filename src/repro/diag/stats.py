"""Process-wide named statistic counters (LLVM's ``STATISTIC`` macro).

A pass declares its counters once at module scope::

    NUM_CONDS_FROZEN = Statistic(
        "loop-unswitch", "num-conditions-frozen",
        "Number of hoisted conditions frozen (Section 5.1)")

and bumps them with ``NUM_CONDS_FROZEN.inc()`` at each decision point.
Counter *values* live in a :class:`StatsRegistry`, keyed by
``(pass name, counter name)``; a :class:`Statistic` is a lightweight
handle, so two handles with the same key share one value and a registry
``reset()`` zeroes every counter at once (the CLI and the tests rely on
this).  The default process-wide registry is what the compiler uses;
tests can construct private registries.

Emission mirrors LLVM's ``-stats``: :func:`format_stats` prints the
classic aligned report of non-zero counters, :meth:`StatsRegistry.as_dict`
/ :meth:`StatsRegistry.to_json` give the machine-readable form the
``python -m repro`` CLI and the benchmark harness consume.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Tuple


class StatsRegistry:
    """Holds counter values and descriptions, keyed by (pass, name)."""

    def __init__(self):
        self._values: Dict[Tuple[str, str], int] = {}
        self._descriptions: Dict[Tuple[str, str], str] = {}
        #: memoized "pass/counter" strings so the journal never
        #: re-formats keys.
        self._flat_keys: Dict[Tuple[str, str], str] = {}
        #: increment journal — a list of ("pass/counter", n) appended by
        #: :meth:`add` while :meth:`start_journal` is active.  Lets a
        #: traced region compute its stats delta from just the counters
        #: that actually moved (a handful per region) instead of two
        #: full-registry snapshots, which both cost CPU and — being
        #: fresh tracked containers — fed the GC pressure that was most
        #: of the E12 tracing-on overhead.
        self._journal: Optional[List[Tuple[str, int]]] = None

    # -- registration and update ------------------------------------------
    def register(self, pass_name: str, name: str,
                 description: str = "") -> None:
        key = (pass_name, name)
        self._values.setdefault(key, 0)
        self._flat_keys.setdefault(key, f"{pass_name}/{name}")
        if description:
            self._descriptions[key] = description

    def add(self, pass_name: str, name: str, n: int = 1) -> None:
        key = (pass_name, name)
        flat = self._flat_keys.get(key)
        if flat is None:
            flat = self._flat_keys[key] = f"{pass_name}/{name}"
        self._values[key] = self._values.get(key, 0) + n
        if self._journal is not None:
            self._journal.append((flat, n))

    def get(self, pass_name: str, name: str) -> int:
        return self._values.get((pass_name, name), 0)

    def description(self, pass_name: str, name: str) -> str:
        return self._descriptions.get((pass_name, name), "")

    def reset(self) -> None:
        """Zero every registered counter (registrations survive)."""
        for key in self._values:
            self._values[key] = 0

    # -- iteration and emission ------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[str, str, int]]:
        for (pass_name, name), value in sorted(self._values.items()):
            yield pass_name, name, value

    def snapshot(self, nonzero_only: bool = False) -> Dict[str, Dict[str, int]]:
        """Nested ``{pass: {counter: value}}`` view of the current values."""
        out: Dict[str, Dict[str, int]] = {}
        for pass_name, name, value in self:
            if nonzero_only and not value:
                continue
            out.setdefault(pass_name, {})[name] = value
        return out

    def as_dict(self, nonzero_only: bool = False) -> Dict[str, Dict[str, int]]:
        return self.snapshot(nonzero_only=nonzero_only)

    def to_json(self, nonzero_only: bool = False, indent: int = 2) -> str:
        return json.dumps(self.snapshot(nonzero_only=nonzero_only),
                          indent=indent, sort_keys=True)

    # -- increment journal -------------------------------------------------
    def start_journal(self) -> None:
        """Begin recording every :meth:`add` as a ``("pass/counter", n)``
        entry.  Campaign workers enable this for traced shards so each
        check-function span can attach its stats delta without taking
        before/after registry snapshots."""
        self._journal = []

    def stop_journal(self) -> None:
        self._journal = None

    def journal_mark(self) -> int:
        """Position token for :meth:`journal_delta` (0 when inactive)."""
        journal = self._journal
        return len(journal) if journal is not None else 0

    def journal_delta(self, mark: int,
                      truncate: bool = False) -> Dict[str, int]:
        """Aggregate increments recorded since ``mark`` — the nonzero
        :func:`stats_delta` of snapshots bracketing the region, keyed
        ``"pass/counter"``, in O(increments) instead of O(registry).

        ``truncate`` drops the consumed entries so a long-lived journal
        (one per shard, marked per function) stays a few entries long.
        """
        journal = self._journal
        if journal is None:
            return {}
        out: Dict[str, int] = {}
        for flat, n in journal[mark:]:
            out[flat] = out.get(flat, 0) + n
        if truncate:
            del journal[mark:]
        if not all(out.values()):  # rare: increments that net to zero
            out = {k: v for k, v in out.items() if v}
        return out

    def load_dict(self, data: Dict[str, Dict[str, int]]) -> None:
        """Inverse of :meth:`snapshot` (JSON round-trips in the tests)."""
        for pass_name, counters in data.items():
            for name, value in counters.items():
                key = (pass_name, name)
                self._values[key] = value
                self._flat_keys.setdefault(key, f"{pass_name}/{name}")

    def format_text(self, nonzero_only: bool = True) -> str:
        """The classic LLVM ``-stats`` report."""
        rows = [(value, pass_name, name,
                 self.description(pass_name, name))
                for pass_name, name, value in self
                if value or not nonzero_only]
        header = [
            "===" + "-" * 62 + "===",
            "{:^68}".format("... Statistics Collected ..."),
            "===" + "-" * 62 + "===",
            "",
        ]
        if not rows:
            return "\n".join(header + ["  (no statistics collected)"])
        vw = max(len(str(v)) for v, _, _, _ in rows)
        pw = max(len(p) for _, p, _, _ in rows)
        lines = header + [
            f"{value:>{vw}} {pass_name:<{pw}} - {name}"
            + (f" ({description})" if description else "")
            for value, pass_name, name, description in rows
        ]
        return "\n".join(lines)


#: The process-wide registry every compiler-side Statistic defaults to.
_DEFAULT_REGISTRY = StatsRegistry()


def default_registry() -> StatsRegistry:
    return _DEFAULT_REGISTRY


def reset_stats() -> None:
    """Zero every counter in the default registry."""
    _DEFAULT_REGISTRY.reset()


def stats_snapshot(nonzero_only: bool = False) -> Dict[str, Dict[str, int]]:
    return _DEFAULT_REGISTRY.snapshot(nonzero_only=nonzero_only)


def format_stats(nonzero_only: bool = True) -> str:
    return _DEFAULT_REGISTRY.format_text(nonzero_only=nonzero_only)


def stats_delta(before: Dict[str, Dict[str, int]],
                after: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Non-zero counter increments between two registry snapshots — the
    ``stats`` a campaign shard's checkpoint record carries."""
    delta: Dict[str, Dict[str, int]] = {}
    for pass_name, counters in after.items():
        for name, value in counters.items():
            diff = value - before.get(pass_name, {}).get(name, 0)
            if diff:
                delta.setdefault(pass_name, {})[name] = diff
    return delta


class Statistic:
    """A named counter handle; the value lives in the registry."""

    __slots__ = ("pass_name", "name", "description", "_registry")

    def __init__(self, pass_name: str, name: str, description: str = "",
                 registry: Optional[StatsRegistry] = None):
        self.pass_name = pass_name
        self.name = name
        self.description = description
        self._registry = registry or _DEFAULT_REGISTRY
        self._registry.register(pass_name, name, description)

    @property
    def value(self) -> int:
        return self._registry.get(self.pass_name, self.name)

    def inc(self, n: int = 1) -> None:
        self._registry.add(self.pass_name, self.name, n)

    def __iadd__(self, n: int) -> "Statistic":
        self.inc(n)
        return self

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return (f"<Statistic {self.pass_name}/{self.name} "
                f"= {self.value}>")
