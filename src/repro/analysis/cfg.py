"""Control-flow-graph utilities: reachability, traversal orders, edges."""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.values import PoisonValue


def successors(block: BasicBlock) -> List[BasicBlock]:
    return block.successors()


def predecessor_map(fn: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """Predecessors of every block, computed in one pass (cheaper than
    per-block :meth:`BasicBlock.predecessors`)."""
    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors():
            preds[succ].append(block)
    return preds


def reachable_blocks(fn: Function) -> Set[BasicBlock]:
    if fn.is_declaration:
        return set()
    seen: Set[BasicBlock] = set()
    work = [fn.entry]
    while work:
        block = work.pop()
        if block in seen:
            continue
        seen.add(block)
        work.extend(block.successors())
    return seen


def reverse_postorder(fn: Function) -> List[BasicBlock]:
    """Reverse postorder over reachable blocks — the canonical forward
    dataflow iteration order."""
    seen: Set[BasicBlock] = set()
    order: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        seen.add(block)
        while stack:
            current, succs = stack[-1]
            advanced = False
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    visit(fn.entry)
    order.reverse()
    return order


def postorder(fn: Function) -> List[BasicBlock]:
    order = reverse_postorder(fn)
    order.reverse()
    return order


def remove_unreachable_blocks(fn: Function) -> int:
    """Delete blocks not reachable from entry; fix up phi nodes in the
    survivors.  Returns the number of removed blocks."""
    reachable = reachable_blocks(fn)
    dead = [b for b in fn.blocks if b not in reachable]
    if not dead:
        return 0
    dead_set = set(dead)
    for block in fn.blocks:
        if block in dead_set:
            continue
        for phi in block.phis():
            for pred in list(phi.incoming_blocks):
                if pred in dead_set:
                    phi.remove_incoming(pred)
    for block in dead:
        for inst in list(block.instructions):
            inst.replace_all_uses_with(_poison_like(inst))
            block.erase(inst)
        fn.remove_block(block)
    return len(dead)


def _poison_like(inst):
    if inst.type.is_void:
        return inst
    return PoisonValue(inst.type)
