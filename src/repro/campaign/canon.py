"""Canonical IR text and hashing for the dedup cache.

Two functions that differ only in value names, block labels, or the
function's own name are the *same* test case for a validation campaign:
optimizing and refinement-checking both wastes a full checker run.
:func:`canonical_text` alpha-renames a function into a fixed namespace —
arguments become ``%c0, %c1, ...`` in signature order, blocks ``b0,
b1, ...`` in layout order, instruction results ``%t0, %t1, ...`` in
program order — and :func:`canonical_hash` is the SHA-256 of that text.
A :class:`Function` is renamed in place for the printer and every name
is restored before :func:`canonical_text` returns or raises, so hashing
clones nothing and leaves the input as it found it; text is parsed
first.

The guarantee the campaign engine relies on (and the property tests
enforce): the printed IR round-trips through the parser, and canonical
hashing is invariant under any consistent renaming of values and blocks.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple, Union

from ..ir import Function, Value, parse_function, print_function

# Not used here, but the end-to-end benchmark's tracer
# (benchmarks/e2e/tracing.py) wraps these names in this module.
from ..ir import parse_module, print_module  # noqa: F401


def canonical_text(fn: Union[Function, str]) -> str:
    """The function's text with canonical value/block/function names.

    A :class:`Function` is renamed in place, printed, and given its own
    names back, also when printing raises; text is parsed first."""
    if isinstance(fn, str):
        fn = parse_function(fn)
    results = [inst for inst in fn.instructions() if not inst.type.is_void]
    renames: List[Tuple[Value, str]] = [(fn, "f")]
    renames += [(arg, f"c{i}") for i, arg in enumerate(fn.args)]
    renames += [(block, f"b{i}") for i, block in enumerate(fn.blocks)]
    renames += [(inst, f"t{i}") for i, inst in enumerate(results)]
    names = [value.name for value, _ in renames]
    try:
        for value, name in renames:
            value.name = name
        return print_function(fn)
    finally:
        for (value, _), name in zip(renames, names):
            value.name = name


def canonical_hash(fn: Union[Function, str]) -> str:
    """SHA-256 (hex) of :func:`canonical_text`; the dedup-cache key."""
    return hashlib.sha256(canonical_text(fn).encode("utf-8")).hexdigest()


class DedupCache:
    """Hash → verdict map with hit/miss accounting.

    Each shard builds its own, empty unless a direct caller passes
    ``known`` hashes: shards dedup only within themselves, so a shard's
    hits never depend on which worker ran it or on what earlier runs
    checked.  The memo, not this cache, replays verdicts across shards
    and runs.
    """

    def __init__(self, known: Optional[Dict[str, str]] = None):
        self._verdicts: Dict[str, str] = dict(known or {})
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._verdicts)

    def __contains__(self, h: str) -> bool:
        return h in self._verdicts

    def lookup(self, h: str) -> Optional[str]:
        """The cached verdict, counting the probe as a hit or miss."""
        verdict = self._verdicts.get(h)
        if verdict is None:
            self.misses += 1
        else:
            self.hits += 1
        return verdict

    def add(self, h: str, verdict: str) -> None:
        self._verdicts[h] = verdict

    def as_dict(self) -> Dict[str, str]:
        return dict(self._verdicts)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
