"""Standard pass pipelines, and the one factory every surface builds them with.

``o2`` approximates the -O2 middle-end ordering the paper validated
(Section 6): peephole + CFG cleanup, inlining, scalar optimizations,
loop optimizations, then late cleanup.  ``quick`` is peephole and
cleanup only; ``codegen`` is the late, pre-ISel stage (CodeGenPrepare).
Every pass name is a single-pass pipeline of its own, which the E5
opt-fuzz validation uses to blame individual passes (the paper
validated InstCombine, GVN, Reassociation and SCCP separately).

``legacy`` = pre-paper LLVM (OLD semantics, historical pass behaviors);
``fixed`` = the paper's prototype (NEW semantics, freeze-based fixes).
The benchmark harness compiles every workload under both and compares
(experiments E1–E4).

:data:`PIPELINES` and :data:`CONFIGS` are the only name tables, and
:func:`build_pipeline` the only factory: the compile, lint and bisect
CLIs, campaign specs (and through them the service) and
``guarded_pipeline`` all go through it, so every surface accepts the
same names under every recovery policy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

from ..diag import PassTiming
from ..semantics.config import NEW, OLD
from .codegenprepare import CodeGenPrepare
from .dce import DCE
from .early_cse import EarlyCSE
from .freeze_opts import FreezeOpts
from .gvn import GVN
from .inliner import Inliner
from .instcombine import InstCombine
from .instsimplify import InstSimplify
from .licm import LICM
from .loop_unswitch import LoopUnswitch
from .mem2reg import Mem2Reg
from .pass_manager import (
    FunctionPass, OptConfig, PassManager, pass_memo_keys,
)
from .poison_check import PoisonFlowCheck
from .reassociate import Reassociate
from .sccp import SCCP
from .simplify_cfg import SimplifyCFG
from .sink import Sink

#: The paper's prototype: NEW semantics, freeze-based fixes.
FIXED = OptConfig.fixed(NEW)
#: Pre-paper LLVM: OLD semantics, historical (buggy) pass variants.
LEGACY = OptConfig.legacy(OLD)
CONFIGS: Dict[str, OptConfig] = {"fixed": FIXED, "legacy": LEGACY}

#: Every pass by its name.  ``poison-flow`` is analysis-only: it replays
#: lint-audit / lint-attack bundles.
PASSES: Dict[str, Type[FunctionPass]] = {cls.name: cls for cls in (
    Mem2Reg, InstCombine, InstSimplify, GVN, EarlyCSE, Reassociate, SCCP,
    SimplifyCFG, LICM, LoopUnswitch, DCE, FreezeOpts, Sink, CodeGenPrepare,
    Inliner, PoisonFlowCheck,
)}

#: Every pipeline by its name: its pass classes and fixpoint iterations.
PIPELINES: Dict[str, Tuple[Tuple[Type[FunctionPass], ...], int]] = {
    "o2": ((Mem2Reg, SimplifyCFG, InstCombine, Inliner, SCCP, SimplifyCFG,
            Reassociate, GVN, EarlyCSE, InstCombine, LICM, LoopUnswitch,
            SimplifyCFG, GVN, InstCombine, FreezeOpts, DCE), 2),
    "quick": ((SimplifyCFG, InstCombine, DCE), 2),
    "codegen": ((CodeGenPrepare, FreezeOpts, DCE), 1),
    **{name: ((cls,), 1) for name, cls in PASSES.items()},
}

#: the pass memo keys of each pipeline shape, by (name, config): every
#: pipeline of one shape has equal passes, so they share one key list.
_MEMO_KEYS: Dict[Tuple[str, OptConfig], List[Optional[int]]] = {}


def build_pipeline(name: str = "o2", config: Optional[OptConfig] = None,
                   timing: Optional[PassTiming] = None, *,
                   policy: str = "none",
                   verify_each: bool = False,
                   forbid_undef: bool = False,
                   quarantine_after: int = 3,
                   bisect_limit: Optional[int] = None,
                   crash_dir: Optional[str] = None,
                   chaos=None) -> PassManager:
    """The pass manager for pipeline ``name`` under ``config``.

    A plain :class:`PassManager` unless something asks for the guard: a
    policy other than ``"none"``, verify-each, a chaos engine, a bisect
    limit or a crash directory.  Then a
    :class:`~repro.opt.resilience.GuardedPassManager`, and ``"none"``
    resolves to ``recover`` under chaos (a fault-injection run survives
    its own faults) and to ``strict`` otherwise (verify-each alone fails
    loudly).  With a chaos engine every pass is wrapped with
    :class:`~repro.opt.resilience.ChaosPass` sharing it, and the
    manager's ``seed`` is the engine's, so crash bundles record the
    fault schedule.

    Verify-each is the caller's choice, chaos or not.  The compile CLI,
    campaigns and serve turn it on under chaos, so an injected IR
    corruption is rolled back at the faulting pass; the bisect CLI does
    not, because it finds an injected corruption by the final verify,
    which a rollback would hide.
    """
    if name not in PIPELINES:
        raise ValueError(f"unknown pass {name!r}")
    classes, max_iterations = PIPELINES[name]
    config = config or FIXED
    passes: List[FunctionPass] = [cls(config) for cls in classes]
    if (policy == "none" and not verify_each and chaos is None
            and bisect_limit is None and crash_dir is None):
        manager = PassManager(passes, max_iterations=max_iterations,
                              timing=timing)
    else:
        # Imported here: the resilience package imports this module.
        from .resilience.chaos import wrap_with_chaos
        from .resilience.guard import (
            POLICY_RECOVER, POLICY_STRICT, GuardedPassManager,
        )

        if policy == "none":
            policy = POLICY_RECOVER if chaos is not None else POLICY_STRICT
        if chaos is not None:
            passes = wrap_with_chaos(passes, chaos)
        manager = GuardedPassManager(
            passes, max_iterations=max_iterations, timing=timing,
            policy=policy, verify_each=verify_each,
            forbid_undef=forbid_undef, quarantine_after=quarantine_after,
            bisect_limit=bisect_limit, crash_dir=crash_dir,
            seed=chaos.seed if chaos is not None else None)
    # chaos-wrapped passes compute their own keys on the first run
    if chaos is None:
        keys = _MEMO_KEYS.get((name, config))
        if keys is None:
            keys = _MEMO_KEYS[(name, config)] = pass_memo_keys(passes)
        manager.memo_keys = keys
    return manager


def o2_pipeline(config: Optional[OptConfig] = None,
                timing: Optional[PassTiming] = None) -> PassManager:
    return build_pipeline("o2", config, timing)


def quick_pipeline(config: Optional[OptConfig] = None,
                   timing: Optional[PassTiming] = None) -> PassManager:
    """-O1-ish: peephole and cleanup only."""
    return build_pipeline("quick", config, timing)


def codegen_pipeline(config: Optional[OptConfig] = None,
                     timing: Optional[PassTiming] = None) -> PassManager:
    return build_pipeline("codegen", config, timing)


def single_pass_pipeline(pass_name: str,
                         config: Optional[OptConfig] = None,
                         timing: Optional[PassTiming] = None) -> PassManager:
    if pass_name not in PASSES:
        raise ValueError(f"unknown pass {pass_name!r}")
    return build_pipeline(pass_name, config, timing)


def baseline_config() -> OptConfig:
    """Pre-paper LLVM: OLD semantics, historical (buggy) pass variants."""
    return LEGACY


def prototype_config() -> OptConfig:
    """The paper's prototype: NEW semantics, freeze-based fixes."""
    return FIXED
