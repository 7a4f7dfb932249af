"""Function snapshots: detached deep clones for rollback.

The guarded pass manager snapshots a function before the first pass
application of a run.  The snapshot is kept across unchanged
applications and taken again after a change or rollback, so it always
holds the state just before the current application.  A snapshot is a structural deep copy of the function body
(blocks and instructions cloned, external references — arguments,
constants, callees, globals — shared), detached from any module, so
taking one never mutates the function or its module.

On a pass failure the snapshot is transplanted back
(:func:`restore_function`), which restores the function byte-for-byte
(same printer output) while keeping the *identity* of the
:class:`~repro.ir.function.Function` object — callers and the module
symbol table keep working.  After a change, and at the end of the run,
the snapshot is discarded (:func:`discard_snapshot`), unlinking its
operand uses so the use lists of shared values (arguments, constants)
do not accumulate stale entries across thousands of pass applications.
"""

from __future__ import annotations

from typing import Dict, List

from ...ir.basicblock import BasicBlock
from ...ir.function import Function
from ...ir.instructions import BranchInst, CallInst, PhiInst, SwitchInst
from ...ir.printer import print_function
from ...ir.values import GlobalVariable, Value
from ..clone import clone_instruction


def clone_function(fn: Function) -> Function:
    """A detached structural deep copy of ``fn``.

    Blocks and instructions are cloned; arguments map index-for-index to
    fresh :class:`Argument` objects; everything defined *outside* the
    function (constants, globals, callees) stays shared.  The clone has
    ``module=None`` and never appears in any symbol table.
    """
    clone = Function(fn.function_type, fn.name, module=None,
                     arg_names=[a.name for a in fn.args])
    value_map: Dict[Value, Value] = {
        a: ca for a, ca in zip(fn.args, clone.args)
    }
    block_map: Dict[BasicBlock, BasicBlock] = {}
    for block in fn.blocks:
        block_map[block] = BasicBlock(block.name, parent=clone)
    for block in fn.blocks:
        target = block_map[block]
        for inst in block.instructions:
            new_inst = clone_instruction(inst)
            target.append(new_inst)
            value_map[inst] = new_inst
    for block in fn.blocks:
        for inst in block_map[block].instructions:
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
    return clone


def restore_function(fn: Function, snapshot: Function) -> None:
    """Transplant ``snapshot``'s body into ``fn``, replacing whatever is
    there (typically the corrupted remains of a failed pass run).

    The snapshot is *consumed*: its blocks become ``fn``'s blocks, with
    snapshot arguments remapped back to ``fn``'s own arguments.  The
    discarded body is fully unlinked, so shared values keep clean use
    lists.
    """
    for block in fn.blocks:
        for inst in block.instructions:
            inst.drop_all_operands()
            inst.parent = None
        block.parent = None
    fn.blocks = []

    arg_map: Dict[Value, Value] = {
        sa: a for sa, a in zip(snapshot.args, fn.args)
    }
    for block in snapshot.blocks:
        block.parent = fn
        fn.blocks.append(block)
    snapshot.blocks = []
    for block in fn.blocks:
        for inst in block.instructions:
            for i, op in enumerate(inst.operands):
                if op in arg_map:
                    inst.set_operand(i, arg_map[op])


def print_standalone(fn: Function) -> str:
    """Print ``fn`` as a *self-contained* module: referenced globals and
    called functions are emitted as definitions/declarations first, so
    the text round-trips through :func:`~repro.ir.parser.parse_function`
    (crash bundles rely on this)."""
    parts: List[str] = []
    seen_globals = set()
    seen_fns = set()

    def note(op: Value) -> None:
        if isinstance(op, GlobalVariable) and op.name not in seen_globals:
            seen_globals.add(op.name)
            init = (f" {op.initializer.ref()}"
                    if op.initializer is not None else "")
            parts.append(f"@{op.name} = global {op.value_type}{init}")
        elif (isinstance(op, Function) and op is not fn
              and op.name not in seen_fns):
            seen_fns.add(op.name)
            params = ", ".join(str(p) for p in op.function_type.params)
            parts.append(
                f"declare {op.function_type.ret} @{op.name}({params})")

    for inst in fn.instructions():
        # the callee of a call is an out-of-band attribute, not an operand
        if isinstance(inst, CallInst):
            note(inst.callee)
        for op in inst.operands:
            note(op)
    parts.append(print_function(fn))
    return "\n\n".join(parts) + "\n"


def discard_snapshot(snapshot: Function) -> None:
    """Unlink an unused snapshot from every shared value's use list."""
    for block in snapshot.blocks:
        for inst in block.instructions:
            inst.drop_all_operands()
            inst.parent = None
        block.parent = None
    snapshot.blocks = []
