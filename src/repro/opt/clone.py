"""Region cloning: duplicate a set of blocks with a value remap.

Used by loop unswitching (Section 5.1) to create the two loop versions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function, unique_name
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    ExtractElementInst,
    FreezeInst,
    GepInst,
    IcmpInst,
    InsertElementInst,
    Instruction,
    LoadInst,
    Opcode,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from ..ir.values import Value


def clone_instruction(inst: Instruction) -> Instruction:
    """Shallow clone with the *same* operands (remapped afterwards)."""
    name = inst.name
    if isinstance(inst, BinaryInst):
        return BinaryInst(inst.opcode, inst.lhs, inst.rhs, name,
                          nsw=inst.nsw, nuw=inst.nuw, exact=inst.exact)
    if isinstance(inst, IcmpInst):
        return IcmpInst(inst.pred, inst.lhs, inst.rhs, name)
    if isinstance(inst, SelectInst):
        return SelectInst(inst.cond, inst.true_value, inst.false_value, name)
    if isinstance(inst, FreezeInst):
        return FreezeInst(inst.value, name)
    if isinstance(inst, CastInst):
        return CastInst(inst.opcode, inst.value, inst.type, name)
    if isinstance(inst, GepInst):
        return GepInst(inst.pointer, inst.index, name, inbounds=inst.inbounds)
    if isinstance(inst, AllocaInst):
        return AllocaInst(inst.allocated_type, name)
    if isinstance(inst, LoadInst):
        return LoadInst(inst.pointer, name)
    if isinstance(inst, StoreInst):
        return StoreInst(inst.value, inst.pointer)
    if isinstance(inst, ExtractElementInst):
        return ExtractElementInst(inst.vector, inst.index, name)
    if isinstance(inst, InsertElementInst):
        return InsertElementInst(inst.vector, inst.element, inst.index, name)
    if isinstance(inst, PhiInst):
        phi = PhiInst(inst.type, name)
        for value, block in inst.incoming:
            phi.add_incoming(value, block)
        return phi
    if isinstance(inst, CallInst):
        return CallInst(inst.callee, list(inst.args), name)
    if isinstance(inst, BranchInst):
        if inst.is_conditional:
            return BranchInst(cond=inst.cond, true_block=inst.true_block,
                              false_block=inst.false_block)
        return BranchInst(target=inst.targets[0])
    if isinstance(inst, SwitchInst):
        sw = SwitchInst(inst.value, inst.default)
        for const, block in inst.cases:
            sw.add_case(const, block)
        return sw
    if isinstance(inst, ReturnInst):
        return ReturnInst(inst.value)
    if isinstance(inst, UnreachableInst):
        return UnreachableInst()
    raise NotImplementedError(f"clone {inst.opcode}")


def clone_region(fn: Function, blocks: Iterable[BasicBlock],
                 suffix: str = ".clone"
                 ) -> Tuple[Dict[BasicBlock, BasicBlock],
                            Dict[Value, Value]]:
    """Clone ``blocks`` into ``fn``.

    Returns (block map, value map).  Operands and branch targets that
    point *inside* the region are remapped; everything else is shared.
    Phi incoming blocks from outside the region are preserved (callers
    typically rewrite them).  Blocks are named with ``suffix``; a name
    ``fn`` already uses gets a number (see :func:`unique_name`)."""
    block_list = list(blocks)
    block_map: Dict[BasicBlock, BasicBlock] = {}
    value_map: Dict[Value, Value] = {}
    labels = {block.name for block in fn.blocks}
    taken = fn.local_names()

    for block in block_list:
        clone = BasicBlock(unique_name(block.name + suffix, labels),
                           parent=fn)
        block_map[block] = clone

    for block in block_list:
        clone = block_map[block]
        for inst in block.instructions:
            new_inst = clone_instruction(inst)
            if new_inst.name:
                new_inst.name = unique_name(new_inst.name, taken)
            clone.append(new_inst)
            value_map[inst] = new_inst

    # Remap operands, phi incoming blocks, and branch targets.
    for block in block_list:
        clone = block_map[block]
        for inst in clone.instructions:
            for i, op in enumerate(inst.operands):
                if op in value_map:
                    inst.set_operand(i, value_map[op])
            if isinstance(inst, PhiInst):
                inst.incoming_blocks = [
                    block_map.get(b, b) for b in inst.incoming_blocks
                ]
            if isinstance(inst, BranchInst):
                inst.targets = [block_map.get(t, t) for t in inst.targets]
            if isinstance(inst, SwitchInst):
                inst.default = block_map.get(inst.default, inst.default)
                inst.cases = [
                    (c, block_map.get(b, b)) for c, b in inst.cases
                ]
    return block_map, value_map
