"""Freeze-specific cleanups (Section 6, "Implementation").

* ``freeze(freeze x) -> freeze x``
* ``freeze(const) -> const`` (for a fully defined constant)
* ``freeze(poison) / freeze(undef) -> arbitrary constant``
* ``freeze x -> x`` when ``x`` is provably never poison/undef

These keep the freeze instructions introduced by loop unswitching and
bit-field lowering from piling up, which is how the prototype keeps the
freeze fraction of IR around 0.04–0.06% (experiment E4).

The poison-freedom proof is the fixpoint dataflow
(:mod:`repro.analysis.poison_flow`): its dominating-branch refinement
removes freezes the shallow walk must keep — e.g. a ``freeze %x`` in a
block already guarded by ``br i1 (icmp ... %x ...)`` is redundant,
because branch-on-poison-is-UB proved ``%x`` defined there.  Set
``use_flow = False`` to fall back to the shallow walk (the benchmark
``benchmarks/bench_e11_lint.py`` compares both and requires the
fixpoint to remove strictly more).
"""

from __future__ import annotations

from ..analysis.poison_flow import analyze_poison_flow
from ..diag import Statistic
from ..ir.function import Function
from ..ir.instructions import FreezeInst
from .instsimplify import simplify_instruction
from .pass_manager import FunctionPass

NUM_FREEZES_SIMPLIFIED = Statistic(
    "freeze-opts", "num-freezes-simplified",
    "Redundant freeze instructions removed (Section 6 cleanups)")


class FreezeOpts(FunctionPass):
    name = "freeze-opts"

    #: consult the poison dataflow fixpoint; False = shallow walk only.
    use_flow = True

    def run_on_function(self, fn: Function) -> bool:
        # Most functions hold no freeze: skip the fixpoint for them.
        if not any(isinstance(inst, FreezeInst)
                   for inst in fn.instructions()):
            return False
        changed = False
        progress = True
        while progress:
            progress = False
            # Recompute per sweep: removals only ever improve facts, but
            # a fresh fixpoint keeps the result exactly in sync with the
            # IR it is queried about.
            flow = (analyze_poison_flow(fn, self.config.semantics)
                    if self.use_flow else None)
            for block in fn.blocks:
                for inst in list(block.instructions):
                    if not isinstance(inst, FreezeInst):
                        continue
                    simpler = simplify_instruction(inst, self.config,
                                                   flow=flow)
                    if simpler is not None and simpler is not inst:
                        NUM_FREEZES_SIMPLIFIED.inc()
                        self.remark(
                            f"simplified {inst.ref()} to {simpler.ref()}",
                            inst=inst)
                        inst.replace_all_uses_with(simpler)
                        block.erase(inst)
                        changed = progress = True
        return changed
