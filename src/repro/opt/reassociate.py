"""Reassociation of commutative/associative expression trees.

Collects the leaves of single-use chains of one commutative opcode,
folds the constant leaves together, and rebuilds a canonical
left-leaning chain.

Section 10.2 of the paper: reassociation changes *where* (and whether)
subexpressions overflow, so it must drop ``nsw``/``nuw`` from the nodes
it rebuilds.  "At least LLVM and MSVC have suffered from bugs because of
reassociation not dropping overflow assumptions."  The
``drop_flags=False`` variant reproduces that bug; the E5 opt-fuzz
validation catches it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..ir.function import Function
from ..ir.instructions import BinaryInst, Instruction, Opcode
from ..ir.types import IntType
from ..ir.values import ConstantInt, Value
from ..semantics.eval import eval_binop
from .pass_manager import FunctionPass

_REASSOCIABLE = (Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR)

_IDENTITY = {
    Opcode.ADD: 0,
    Opcode.MUL: 1,
    Opcode.AND: -1,  # all ones
    Opcode.OR: 0,
    Opcode.XOR: 0,
}


class Reassociate(FunctionPass):
    name = "reassociate"

    def __init__(self, config=None, drop_flags: Optional[bool] = None):
        super().__init__(config)
        # The fixed behavior drops overflow flags; the historical bug
        # keeps them on the rebuilt expressions.
        if drop_flags is None:
            drop_flags = self.config.reassociate_drop_flags
        self.drop_flags = drop_flags

    def run_on_function(self, fn: Function) -> bool:
        changed = False
        for block in fn.blocks:
            for inst in list(block.instructions):
                if inst.parent is not block:
                    continue
                if self._reassociate(inst):
                    changed = True
        return changed

    def _reassociate(self, inst: Instruction) -> bool:
        if not isinstance(inst, BinaryInst) \
                or inst.opcode not in _REASSOCIABLE:
            return False
        if not isinstance(inst.type, IntType):
            return False
        # Only rewrite roots: trees are consumed from their root.
        if any(
            isinstance(u, BinaryInst) and u.opcode is inst.opcode
            and u.parent is not None
            for u in inst.users()
        ):
            return False

        leaves: List[Value] = []
        interior: List[BinaryInst] = []
        had_flags = self._collect(inst, inst.opcode, leaves, interior)
        if len(interior) < 2:
            return False  # nothing to reassociate

        ty: IntType = inst.type  # type: ignore[assignment]
        width = ty.bits
        constants = [l for l in leaves if isinstance(l, ConstantInt)]
        variables = [l for l in leaves if not isinstance(l, ConstantInt)]

        # Unnamed leaves (undef, poison) tie and keep their order: the
        # sort is stable, and ordering them by address would make the
        # rewrite differ from one process to the next.
        sorted_vars = sorted(variables, key=lambda v: v.name)
        needs_reorder = sorted_vars != variables
        constants_buried = any(
            isinstance(l, ConstantInt) for l in leaves[:-1]
        )
        if len(constants) < 2 and not constants_buried and not needs_reorder:
            return False

        identity = _IDENTITY[inst.opcode] & ty.unsigned_max
        acc = identity
        for c in constants:
            folded = eval_binop(inst.opcode, acc, c.value, width,
                                self.config.semantics)
            assert isinstance(folded, int)
            acc = folded

        # Canonical order: variables by name, constant last.
        variables = sorted_vars
        keep_flags = had_flags and not self.drop_flags
        # The historical bug kept nsw/nuw even though reordering changes
        # where (and whether) intermediate sums overflow (Section 10.2).
        nsw = keep_flags and any(i.nsw for i in interior)
        nuw = keep_flags and any(i.nuw for i in interior)

        block = inst.parent
        counter = 0

        def node_name() -> str:
            nonlocal counter
            counter += 1
            return f"{inst.name}.ra{counter}" if inst.name else ""

        new_chain: Optional[Value] = None
        for v in variables:
            if new_chain is None:
                new_chain = v
            else:
                node = BinaryInst(inst.opcode, new_chain, v, node_name(),
                                  nsw=nsw, nuw=nuw)
                block.insert_before(inst, node)
                new_chain = node
        if acc != identity or new_chain is None:
            const = ConstantInt(ty, acc)
            if new_chain is None:
                new_chain = const
            else:
                node = BinaryInst(inst.opcode, new_chain, const, node_name(),
                                  nsw=nsw, nuw=nuw)
                block.insert_before(inst, node)
                new_chain = node

        inst.replace_all_uses_with(new_chain)
        block.erase(inst)
        # Dead interior nodes are cleaned by DCE.
        return True

    def _collect(self, inst: BinaryInst, opcode: Opcode,
                 leaves: List[Value], interior: List[BinaryInst]) -> bool:
        """Gather leaves of the single-use same-opcode tree; returns
        whether any interior node carried overflow flags."""
        interior.append(inst)
        had_flags = inst.nsw or inst.nuw
        for op in (inst.lhs, inst.rhs):
            if isinstance(op, BinaryInst) and op.opcode is opcode \
                    and op.has_one_use and op.parent is inst.parent:
                had_flags |= self._collect(op, opcode, leaves, interior)
            else:
                leaves.append(op)
        return had_flags
