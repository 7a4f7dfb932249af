"""Canonical IR text and hashing for the dedup cache.

Two functions that differ only in value names, block labels, or the
function's own name are the *same* test case for a validation campaign:
optimizing and refinement-checking both wastes a full checker run.
:func:`canonical_text` alpha-renames a function into a fixed namespace —
arguments become ``%c0, %c1, ...`` in signature order, blocks ``b0,
b1, ...`` in layout order, instruction results ``%t0, %t1, ...`` in
program order — and :func:`canonical_hash` is the SHA-256 of that text.
Renaming happens on a private copy (a structural clone of a
:class:`Function`, a parse of text), so the input function is never
mutated.

The guarantee the campaign engine relies on (and the property tests
enforce): the printed IR round-trips through the parser, and canonical
hashing is invariant under any consistent renaming of values and blocks.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Union

from ..ir import Function, parse_function, print_function
from ..opt.resilience.snapshot import copy_function, discard_snapshot

# Not used here, but the end-to-end benchmark's tracer
# (benchmarks/e2e/tracing.py) wraps these names in this module.
from ..ir import parse_module, print_module  # noqa: F401


def canonical_function(fn: Union[Function, str]) -> Function:
    """A private copy of ``fn`` renamed into the canonical namespace
    (``%cN`` args, ``bN`` blocks, ``%tN`` results).

    Text is parsed; a :class:`Function` is cloned structurally, sharing
    its constants, globals and callees, so the caller should hand the
    copy to :func:`~repro.opt.resilience.snapshot.discard_snapshot` when
    done with it."""
    copy = parse_function(fn) if isinstance(fn, str) else copy_function(fn)
    copy.name = "f"
    for i, arg in enumerate(copy.args):
        arg.name = f"c{i}"
    for i, block in enumerate(copy.blocks):
        block.name = f"b{i}"
    n = 0
    for inst in copy.instructions():
        if not inst.type.is_void:
            inst.name = f"t{n}"
            n += 1
    return copy


def canonical_text(fn: Union[Function, str]) -> str:
    """The function's text with canonical value/block/function names."""
    copy = canonical_function(fn)
    text = print_function(copy)
    discard_snapshot(copy)
    return text


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
