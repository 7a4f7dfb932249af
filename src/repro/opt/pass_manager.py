"""Pass infrastructure: configuration, function passes, pipelines.

:class:`OptConfig` selects between the *historical* pass behaviors (the
buggy/inconsistent ones Section 3 catalogs) and the *fixed* behaviors the
paper proposes — each toggle maps to one subsection of the paper:

* ``unswitch_freeze`` — loop unswitching freezes the hoisted condition
  (Section 5.1); off = the historical, GVN-incompatible behavior.
* ``instcombine_select_arith`` — keep the ``select -> or/and``-style
  arithmetic rewrites that are unsound when the condition may be poison
  (Sections 3.4, 6 "Limitations"); the fixed variant freezes.
* ``simplifycfg_select_undef`` — keep the ``phi [%x, ...], [undef, ...]
  -> select %c, %x, undef -> %x`` collapse (unsound: poison is stronger
  than undef, Section 3.4).
* ``licm_hoist_speculative_div`` — hoist loop-invariant division past
  control flow based on up-to-poison analyses (Sections 3.2, 5.6);
  LLVM disabled this after PR21412.
* ``gvn_replace_with_equal`` — GVN replaces a value with a
  ``==``-equal one (sound only when branch-on-poison is UB, Section 3.3).

The defaults build the paper's fixed pipeline; ``OptConfig.legacy()``
builds the historical one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Hashable, List, Optional

from ..diag import (
    REMARK_PASSED,
    PassStats,
    PassTiming,
    Statistic,
    emit_remark,
    span,
)
from ..ir.function import Function
from ..ir.instructions import Instruction
from ..ir.module import Module
from ..semantics.config import NEW, OLD, SemanticsConfig

NUM_SKIPPED = Statistic(
    "pass-manager", "num-skipped-applications",
    "Pass applications skipped because an equal pass already ran to no "
    "change on the same IR")


@dataclass(frozen=True)
class OptConfig:
    semantics: SemanticsConfig = NEW
    unswitch_freeze: bool = True
    instcombine_select_arith: bool = False
    simplifycfg_select_undef: bool = False
    licm_hoist_speculative_div: bool = False
    gvn_replace_with_equal: bool = True
    #: rewrite ``mul x, 2`` as ``add x, x`` even when ``x`` may be undef
    #: (the duplicated-SSA-use bug of Section 3.1).  Sound under NEW
    #: semantics (no undef), so the fixed pipeline enables the rewrite
    #: exactly when the semantics says there is no undef.
    instcombine_dup_uses_unsound: bool = False
    #: reassociation drops nsw/nuw from rebuilt expressions (Section
    #: 10.2); the historical bug keeps them.
    reassociate_drop_flags: bool = True
    #: extension (Section 6 "Opportunities for improvement"): let GVN
    #: fold equivalent freeze instructions.  Sound because the folded
    #: freeze replaces *all* uses of both, collapsing two independent
    #: nondeterministic choices into one (a refinement).
    gvn_fold_freeze: bool = False
    #: teach CodeGenPrepare/branch lowering about freeze (Section 6,
    #: "Optimizations"); turning this off models the early prototype's
    #: compile-time/runtime regressions.
    freeze_aware_codegen: bool = True
    #: inliner treats freeze as zero cost (Section 6).
    inliner_freeze_free: bool = True

    @staticmethod
    def fixed(semantics: SemanticsConfig = NEW) -> "OptConfig":
        return OptConfig(semantics=semantics)

    @staticmethod
    def legacy(semantics: SemanticsConfig = OLD) -> "OptConfig":
        """The pre-paper pass behaviors, with their latent bugs."""
        return OptConfig(
            semantics=semantics,
            unswitch_freeze=False,
            instcombine_select_arith=True,
            simplifycfg_select_undef=True,
            licm_hoist_speculative_div=True,
            gvn_replace_with_equal=True,
            instcombine_dup_uses_unsound=True,
            reassociate_drop_flags=False,
            freeze_aware_codegen=False,
            inliner_freeze_free=False,
        )

    def with_(self, **kwargs) -> "OptConfig":
        return replace(self, **kwargs)

    def __hash__(self) -> int:
        # A pass manager hashes the config of each of its passes to find
        # equal passes; the generated field-by-field hash would cost more
        # than a pipeline build, so it is computed once per object.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> Dict[str, object]:
        # str hashes differ between processes: never ship a cached one
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # -- serialization (crash bundles record the exact configuration) ------
    def as_dict(self) -> Dict[str, object]:
        """JSON-safe form; the semantics config is stored by name."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["semantics"] = self.semantics.name
        return data

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "OptConfig":
        data = dict(data)
        semantics = data.get("semantics", NEW)
        if isinstance(semantics, str):
            from ..semantics.config import ALL_CONFIGS

            by_name = {c.name: c for c in ALL_CONFIGS}
            if semantics not in by_name:
                raise ValueError(f"unknown semantics config {semantics!r}")
            data["semantics"] = by_name[semantics]
        return OptConfig(**data)


class FunctionPass:
    """Base class; subclasses implement :meth:`run_on_function`."""

    name = "pass"

    def __init__(self, config: Optional[OptConfig] = None):
        self.config = config or OptConfig()

    def run_on_function(self, fn: Function) -> bool:
        raise NotImplementedError

    def memo_key(self) -> Optional[Hashable]:
        """What makes two instances the same pass: the class and every
        instance attribute (the config and any constructor arguments).

        The pass manager skips an application when a pass with an equal
        key already ran to no change on the function's current state.
        That is sound because a pass that reports no change leaves the
        IR untouched and a pass is deterministic in its key and its
        input IR.  ``None``, or a key that cannot be hashed, means the
        pass is never skipped."""
        return (type(self), tuple(vars(self).items()))

    def remark(self, message: str, *, kind: str = REMARK_PASSED,
               inst: Optional[Instruction] = None,
               block=None, fn: Optional[Function] = None) -> None:
        """Emit an optimization remark attributed to this pass.

        Location defaults are derived from ``inst`` (its block and
        function) when not given explicitly.  A no-op when nobody is
        subscribed to the process-wide emitter."""
        if block is None and inst is not None:
            block = inst.parent
        if fn is None and block is not None:
            fn = block.parent
        emit_remark(
            self.name, message, kind=kind,
            function=fn.name if fn is not None else "",
            block=block.name if block is not None else "",
            instruction=inst.ref() if inst is not None else "",
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class PassManager:
    """Runs a pipeline of function passes over a module, optionally to a
    fixpoint, collecting hierarchical per-pass × per-function timing
    (the compile-time experiment E2 and the ``--time-passes`` CLI flag
    read these).  ``stats`` exposes the per-pass aggregates, as before;
    ``timing`` is the full :class:`~repro.diag.PassTiming` collector and
    may be shared between several managers to accumulate one compilation
    end to end.

    Within one :meth:`run_on_function` call the fixpoint loop skips an
    application when a pass with the same :meth:`FunctionPass.memo_key`
    already ran on the function's current state and reported no change
    (see DESIGN "Resilience").  A skipped application runs nothing and
    is not timed."""

    def __init__(self, passes: List[FunctionPass], max_iterations: int = 3,
                 timing: Optional[PassTiming] = None):
        self.passes = passes
        self.max_iterations = max_iterations
        self.timing = timing if timing is not None else PassTiming()
        #: the passes' memo keys (:func:`pass_memo_keys`):
        #: ``build_pipeline`` shares one list per pipeline shape, and
        #: otherwise they are computed on the first run (a pipeline that
        #: is only built to be wrapped never pays for them)
        self.memo_keys: Optional[List[Optional[int]]] = None

    @property
    def stats(self) -> Dict[str, PassStats]:
        """Per-pass statistics (aggregates plus per-function records)."""
        return self.timing.passes

    def report(self, per_function: bool = False) -> str:
        """The ``-time-passes`` style report for this manager's runs."""
        return self.timing.report(per_function=per_function)

    def run(self, module: Module) -> bool:
        changed_any = False
        for fn in module.definitions():
            changed_any |= self.run_on_function(fn)
        return changed_any

    def run_on_function(self, fn: Function, *,
                        pristine: Optional[Function] = None) -> bool:
        """Run the pipeline on ``fn``; whether anything changed.

        ``pristine`` is an untouched copy of ``fn`` that the caller
        keeps (:func:`~repro.opt.resilience.snapshot.copy_function`).
        The guarded manager takes it as its first snapshot; this one
        keeps no snapshot and ignores it."""
        # Keys of the passes that ran to no change on fn's current
        # state; emptied whenever that state may have changed.
        settled = set()
        skipped = 0
        keys = self.memo_keys
        if keys is None:
            keys = self.memo_keys = pass_memo_keys(self.passes)
        changed_any = False
        for _ in range(self.max_iterations):
            changed = False
            for p, key in zip(self.passes, keys):
                skip = key in settled
                result = self._apply(p, fn, skip)
                if result is False:
                    skipped += skip
                    if key is not None:
                        settled.add(key)
                else:
                    changed |= bool(result)
                    settled.clear()
            changed_any |= changed
            if not changed:
                break
        if skipped:
            NUM_SKIPPED.inc(skipped)
        return changed_any

    def _apply(self, p: FunctionPass, fn: Function,
               skip: bool) -> Optional[bool]:
        """One application of ``p`` to ``fn``: whether it changed the
        function, or None when it did not run to completion (the
        function may then differ from what every settled pass saw).
        ``skip`` says an equal pass already ran to no change on the
        current state, so the application must report no change without
        running."""
        if skip:
            return False
        # measure() accounts in a finally block: a pass that raises
        # mid-run still records its elapsed time with a matching runs
        # increment.  The span is a no-op unless tracing is enabled for
        # this process.
        with span(p.name, cat="pass", function=fn.name) as sp:
            with self.timing.measure(p.name, fn.name) as m:
                m.changed = p.run_on_function(fn)
            sp.set(changed=m.changed)
        return bool(m.changed)


def pass_memo_keys(passes: List[FunctionPass]) -> List[Optional[int]]:
    """Each pass's memo key as a small int (equal keys, equal ints), or
    None for a pass that is never skipped."""
    ids: Dict[Hashable, int] = {}
    keys: List[Optional[int]] = []
    for p in passes:
        key = p.memo_key()
        try:
            keys.append(None if key is None
                        else ids.setdefault(key, len(ids)))
        except TypeError:  # an unhashable attribute
            keys.append(None)
    return keys
