"""Resilient pass pipelines: crash recovery, verify-each, opt-bisect,
crash bundles, and chaos fault injection.

The paper shows optimization passes silently disagreeing about UB
semantics; this package makes the pipeline *survive* buggy passes
instead of corrupting modules or killing campaign shards.  See
:mod:`repro.opt.resilience.guard` for the core machinery.
"""

from __future__ import annotations

from typing import Optional

from ...diag.timing import PassTiming
from ..pass_manager import OptConfig
from ..pipelines import build_pipeline
from .bisect import BisectResult, bisect_failure
from .bundle import (
    ReplayResult,
    bundle_id,
    list_bundles,
    load_bundle,
    make_bundle_payload,
    replay_bundle,
    write_bundle,
)
from .chaos import (
    CHAOS_CORRUPT,
    CHAOS_MIXED,
    CHAOS_MODES,
    CHAOS_RAISE,
    ChaosEngine,
    ChaosFault,
    ChaosPass,
    ServiceChaos,
    inject_corruption,
    wrap_with_chaos,
)
from .guard import (
    POLICIES,
    POLICY_QUARANTINE,
    POLICY_RECOVER,
    POLICY_STRICT,
    GuardedPassError,
    GuardedPassManager,
    PassFailure,
)
from .snapshot import clone_function, discard_snapshot, restore_function

def guarded_pipeline(name: str = "o2",
                     config: Optional[OptConfig] = None,
                     timing: Optional[PassTiming] = None, *,
                     policy: str = POLICY_RECOVER,
                     verify_each: bool = False,
                     forbid_undef: bool = False,
                     quarantine_after: int = 3,
                     bisect_limit: Optional[int] = None,
                     crash_dir: Optional[str] = None,
                     chaos: Optional[ChaosEngine] = None
                     ) -> GuardedPassManager:
    """A guarded version of a named pipeline: :func:`build_pipeline`
    with the ``recover`` policy by default."""
    return build_pipeline(
        name, config, timing, policy=policy, verify_each=verify_each,
        forbid_undef=forbid_undef, quarantine_after=quarantine_after,
        bisect_limit=bisect_limit, crash_dir=crash_dir, chaos=chaos)


__all__ = [
    "BisectResult", "bisect_failure",
    "ReplayResult", "bundle_id", "list_bundles", "load_bundle",
    "make_bundle_payload", "replay_bundle", "write_bundle",
    "CHAOS_CORRUPT", "CHAOS_MIXED", "CHAOS_MODES", "CHAOS_RAISE",
    "ChaosEngine", "ChaosFault", "ChaosPass", "ServiceChaos",
    "inject_corruption", "wrap_with_chaos",
    "POLICIES", "POLICY_QUARANTINE", "POLICY_RECOVER", "POLICY_STRICT",
    "GuardedPassError", "GuardedPassManager", "PassFailure",
    "clone_function", "discard_snapshot", "restore_function",
    "guarded_pipeline",
]
