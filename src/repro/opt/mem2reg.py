"""mem2reg: promote allocas to SSA registers.

The classic phi-placement algorithm over iterated dominance frontiers
(Cytron et al.), as run by ``opt -mem2reg`` immediately after Clang-style
codegen.  Only allocas whose address never escapes (all uses are direct
loads and stores) are promoted.

The UB tie-in: a load from a promoted-but-never-stored location is a
read of uninitialized memory, which is ``undef`` under OLD and
``poison`` under NEW — exactly Figure 2's uninitialized ``x``.  The pass
consults the semantics configuration for which constant to substitute.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.cfg import predecessor_map, remove_unreachable_blocks
from ..analysis.dominators import DominatorTree
from ..ir.basicblock import BasicBlock
from ..ir.function import Function, unique_name
from ..ir.instructions import (
    AllocaInst,
    Instruction,
    LoadInst,
    PhiInst,
    StoreInst,
)
from ..ir.values import PoisonValue, UndefValue, Value
from .pass_manager import FunctionPass


def _is_promotable(alloca: AllocaInst) -> bool:
    if not alloca.allocated_type.is_int:
        return False  # arrays/structs stay in memory
    for use in alloca.uses:
        user = use.user
        if isinstance(user, LoadInst):
            continue
        if isinstance(user, StoreInst) and user.pointer is alloca \
                and user.value is not alloca:
            continue
        return False
    return True


class Mem2Reg(FunctionPass):
    name = "mem2reg"

    def run_on_function(self, fn: Function) -> bool:
        if fn.is_declaration:
            return False
        # The renaming walk only covers reachable blocks; drop the rest
        # first so no stale load/store keeps the alloca alive.
        remove_unreachable_blocks(fn)
        allocas = [
            inst for inst in fn.instructions()
            if isinstance(inst, AllocaInst) and _is_promotable(inst)
        ]
        if not allocas:
            return False
        dt = DominatorTree(fn)
        df = dt.dominance_frontier()
        for alloca in allocas:
            self._promote(fn, alloca, dt, df)
        return True

    def _uninit_value(self, alloca: AllocaInst) -> Value:
        if self.config.semantics.has_undef:
            return UndefValue(alloca.allocated_type)
        return PoisonValue(alloca.allocated_type)

    def _promote(self, fn: Function, alloca: AllocaInst,
                 dt: DominatorTree, df) -> None:
        stores = [u.user for u in alloca.uses
                  if isinstance(u.user, StoreInst)]
        loads = [u.user for u in alloca.uses if isinstance(u.user, LoadInst)]

        # Fast path: single store dominating everything.
        def_blocks = {s.parent for s in stores}

        # Phi placement at the iterated dominance frontier of the defs.
        phi_blocks: Set[BasicBlock] = set()
        work = list(def_blocks)
        while work:
            block = work.pop()
            for frontier in df.get(block, ()):
                if frontier not in phi_blocks:
                    phi_blocks.add(frontier)
                    work.append(frontier)

        phis: Dict[BasicBlock, PhiInst] = {}
        taken = fn.local_names()
        # in block order, so the names are a function of the input
        for block in (b for b in fn.blocks if b in phi_blocks):
            phi = PhiInst(alloca.allocated_type,
                          unique_name((alloca.name or "mem") + ".phi", taken))
            block.instructions.insert(0, phi)
            phi.parent = block
            phis[block] = phi

        uninit = self._uninit_value(alloca)

        # Renaming walk over the dominator tree.
        def rename(block: BasicBlock, incoming: Value) -> None:
            current = incoming
            if block in phis:
                current = phis[block]
            for inst in list(block.instructions):
                if isinstance(inst, LoadInst) and inst.pointer is alloca:
                    inst.replace_all_uses_with(current)
                    block.erase(inst)
                elif isinstance(inst, StoreInst) and inst.pointer is alloca:
                    current = inst.value
                    block.erase(inst)
            for succ in block.successors():
                phi = phis.get(succ)
                if phi is not None:
                    phi.add_incoming(current, block)
            for child in dt.children.get(block, ()):  # dominator children
                rename(child, current)

        rename(fn.entry, uninit)
        alloca.erase_from_parent()

        # Prune phis in unreachable-from-def positions with missing
        # incoming edges (preds never visited): give them uninit.
        preds = predecessor_map(fn)
        for block, phi in phis.items():
            have = set(phi.incoming_blocks)
            for pred in preds[block]:
                if pred not in have:
                    phi.add_incoming(uninit, pred)
            if phi.num_operands == 0:
                phi.replace_all_uses_with(uninit)
                block.erase(phi)
