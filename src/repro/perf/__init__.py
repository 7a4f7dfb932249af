"""Performance layer: memoization for the validation hot path.

The expensive artifacts of a refinement check are pure functions of
hashable inputs, so each gets a cache at its own layer:

* :class:`RefinementMemo` (this package) — whole-check verdicts, keyed
  by canonical IR hash × campaign context, with an optional on-disk
  layer shared across shards and runs;
* :class:`repro.semantics.interp.PlanCache` — compiled execution plans,
  shared across the inputs and oracle paths of one check.
"""

from .memo import (
    MEMO_DISK_ERRORS,
    MEMO_DISK_LOADED,
    MEMO_HITS,
    MEMO_MISSES,
    MEMO_QUARANTINED,
    RefinementMemo,
    compact,
    fsck,
)

__all__ = [
    "MEMO_DISK_ERRORS",
    "MEMO_DISK_LOADED",
    "MEMO_HITS",
    "MEMO_MISSES",
    "MEMO_QUARANTINED",
    "RefinementMemo",
    "compact",
    "fsck",
]
