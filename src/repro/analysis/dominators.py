"""Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

"A Simple, Fast Dominance Algorithm" (2001).  Quadratic in the worst
case but simple and fast on real CFGs; LLVM used exactly this algorithm
for years.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Instruction, PhiInst
from ..ir.values import Argument, Constant
from .cfg import predecessor_map, reverse_postorder


class DominatorTree:
    def __init__(self, fn: Function):
        self.function = fn
        self.rpo = reverse_postorder(fn)
        self._rpo_index: Dict[BasicBlock, int] = {
            b: i for i, b in enumerate(self.rpo)
        }
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._compute()
        self.children: Dict[BasicBlock, List[BasicBlock]] = {
            b: [] for b in self.rpo
        }
        for block, parent in self.idom.items():
            if parent is not None:
                self.children[parent].append(block)
        self._level: Dict[BasicBlock, int] = {}
        self._compute_levels()

    def _compute(self) -> None:
        entry = self.function.entry
        preds = predecessor_map(self.function)
        index = self._rpo_index
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {entry: entry}

        def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
            while a is not b:
                while index[a] > index[b]:
                    a = idom[a]  # type: ignore[assignment]
                while index[b] > index[a]:
                    b = idom[b]  # type: ignore[assignment]
            return a

        changed = True
        while changed:
            changed = False
            for block in self.rpo:
                if block is entry:
                    continue
                new_idom: Optional[BasicBlock] = None
                for pred in preds[block]:
                    if pred not in index or pred not in idom:
                        continue  # unreachable or not yet processed
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = intersect(pred, new_idom)
                if new_idom is not None and idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True

        self.idom = {b: (None if b is entry else idom[b]) for b in self.rpo}

    def _compute_levels(self) -> None:
        for block in self.rpo:  # rpo guarantees idom precedes block
            parent = self.idom[block]
            self._level[block] = 0 if parent is None else self._level[parent] + 1

    # -- queries -----------------------------------------------------------
    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does block ``a`` dominate block ``b``? (reflexive)"""
        if a not in self._level or b not in self._level:
            return False
        while self._level[b] > self._level[a]:
            b = self.idom[b]  # type: ignore[assignment]
        return a is b

    def strictly_dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates_block(a, b)

    def dominates(self, def_inst, use_inst: Instruction) -> bool:
        """Does the *definition* dominate the *use*?  Handles same-block
        ordering and the phi-use rule (a phi use is tested at the end of
        the corresponding incoming block)."""
        if isinstance(def_inst, (Constant, Argument)):
            return True
        def_block = def_inst.parent
        use_block = use_inst.parent
        if isinstance(use_inst, PhiInst):
            # handled by caller via dominates_edge; treat as block-level
            return self.dominates_block(def_block, use_block)
        if def_block is use_block:
            insts = def_block.instructions
            return insts.index(def_inst) < insts.index(use_inst)
        return self.dominates_block(def_block, use_block)

    def dominates_edge(self, def_inst, pred_block: BasicBlock) -> bool:
        """For a phi incoming (value, pred): the def must dominate the end
        of the predecessor block."""
        if isinstance(def_inst, (Constant, Argument)):
            return True
        return self.dominates_block(def_inst.parent, pred_block)

    def dominance_frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """Classic DF computation (used by mem2reg-style phi placement)."""
        preds = predecessor_map(self.function)
        df: Dict[BasicBlock, Set[BasicBlock]] = {b: set() for b in self.rpo}
        for block in self.rpo:
            plist = [p for p in preds[block] if p in self._rpo_index]
            if len(plist) < 2:
                continue
            for pred in plist:
                runner = pred
                while runner is not self.idom[block]:
                    df[runner].add(block)
                    runner = self.idom[runner]  # type: ignore[assignment]
        return df
