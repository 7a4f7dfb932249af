"""InstSimplify: folds that return an *existing* value (no new IR).

These are the always-sound algebraic identities.  Rules that are only
sound under particular poison semantics live in
:mod:`repro.opt.instcombine` behind config toggles.
"""

from __future__ import annotations

from typing import Optional

from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    FreezeInst,
    IcmpInst,
    IcmpPred,
    Instruction,
    Opcode,
    PhiInst,
    SelectInst,
)
from ..ir.types import IntType
from ..ir.values import ConstantInt, UndefValue, Value
from ..analysis.poison_flow import analyze_poison_flow
from ..analysis.value_tracking import (
    compute_known_bits,
    is_guaranteed_not_poison,
)
from ..semantics.config import NEW
from .constfold import try_constant_fold
from .pass_manager import FunctionPass


def simplify_instruction(inst: Instruction,
                         config=None, flow=None) -> Optional[Value]:
    """Return a simpler existing value equal to ``inst``, or ``None``.

    ``flow`` is an optional
    :class:`~repro.analysis.poison_flow.PoisonFlowResult` for the
    enclosing function; when present, every poison-freedom check
    delegates to the fixpoint dataflow (with dominating-branch
    refinement at this instruction's block), which proves strictly more
    facts than the shallow walk.
    """
    semantics = config.semantics if config is not None else NEW
    folded = try_constant_fold(inst, semantics)
    if folded is not None:
        return folded

    if isinstance(inst, BinaryInst):
        return _simplify_binary(inst, flow)
    if isinstance(inst, IcmpInst):
        return _simplify_icmp(inst, flow)
    if isinstance(inst, SelectInst):
        return _simplify_select(inst)
    if isinstance(inst, FreezeInst):
        return _simplify_freeze(inst, flow)
    if isinstance(inst, PhiInst):
        return _simplify_phi(inst)
    return None


def _not_poison(value: Value, inst: Instruction, flow) -> bool:
    """Poison-freedom at this use site: fixpoint facts when available
    (refined at the use block), shallow walk otherwise."""
    return is_guaranteed_not_poison(
        value, flow=flow, block=inst.parent if flow is not None else None)


def _const_val(v: Value) -> Optional[int]:
    if isinstance(v, ConstantInt):
        return v.value
    return None


def _simplify_binary(inst: BinaryInst, flow=None) -> Optional[Value]:
    if not isinstance(inst.type, IntType):
        return None
    op = inst.opcode
    a, b = inst.lhs, inst.rhs
    bv = _const_val(b)
    av = _const_val(a)
    all_ones = inst.type.unsigned_max

    if op is Opcode.ADD:
        if bv == 0:
            return a
        if av == 0:
            return b
    elif op is Opcode.SUB:
        if bv == 0:
            return a
        # x - x == 0 requires x not poison/undef (undef uses may differ!)
        if a is b and _not_poison(a, inst, flow):
            return ConstantInt(inst.type, 0)
    elif op is Opcode.MUL:
        if bv == 1:
            return a
        if av == 1:
            return b
        if bv == 0 or av == 0:
            # x * 0 == 0 even for poison x?  No: poison * 0 is poison.
            # Sound only when x cannot be poison.
            other = a if bv == 0 else b
            if _not_poison(other, inst, flow):
                return ConstantInt(inst.type, 0)
    elif op is Opcode.AND:
        if bv == all_ones:
            return a
        if av == all_ones:
            return b
        if a is b and _not_poison(a, inst, flow):
            return a
        if bv == 0 and _not_poison(a, inst, flow):
            return ConstantInt(inst.type, 0)
        if av == 0 and _not_poison(b, inst, flow):
            return ConstantInt(inst.type, 0)
    elif op is Opcode.OR:
        if bv == 0:
            return a
        if av == 0:
            return b
        if a is b and _not_poison(a, inst, flow):
            return a
        if bv == all_ones and _not_poison(a, inst, flow):
            return ConstantInt(inst.type, all_ones)
        if av == all_ones and _not_poison(b, inst, flow):
            return ConstantInt(inst.type, all_ones)
    elif op is Opcode.XOR:
        if bv == 0:
            return a
        if av == 0:
            return b
        if a is b and _not_poison(a, inst, flow):
            return ConstantInt(inst.type, 0)
    elif op in (Opcode.SHL, Opcode.LSHR, Opcode.ASHR):
        if bv == 0:
            return a
    elif op in (Opcode.UDIV, Opcode.SDIV):
        if bv == 1:
            return a
    elif op in (Opcode.UREM, Opcode.SREM):
        if bv == 1 and _not_poison(a, inst, flow):
            return ConstantInt(inst.type, 0)
    return None


def _simplify_icmp(inst: IcmpInst, flow=None) -> Optional[Value]:
    a, b = inst.lhs, inst.rhs
    i1 = IntType(1)
    if a is b and _not_poison(a, inst, flow):
        return ConstantInt(
            i1,
            int(inst.pred in (IcmpPred.EQ, IcmpPred.UGE, IcmpPred.ULE,
                              IcmpPred.SGE, IcmpPred.SLE)),
        )
    if isinstance(a.type, IntType):
        bv = _const_val(b)
        # unsigned range tautologies
        if bv == 0 and inst.pred is IcmpPred.ULT:
            if _not_poison(a, inst, flow):
                return ConstantInt(i1, 0)
        if bv == 0 and inst.pred is IcmpPred.UGE:
            if _not_poison(a, inst, flow):
                return ConstantInt(i1, 1)
        if bv == a.type.unsigned_max and inst.pred is IcmpPred.UGT:
            if _not_poison(a, inst, flow):
                return ConstantInt(i1, 0)
        folded = _fold_icmp_by_known_bits(inst)
        if folded is not None:
            return folded
    return None


def _fold_icmp_by_known_bits(inst: IcmpInst) -> Optional[Value]:
    """Fold comparisons decided by known bits.

    Section 5.6 discipline: known-bits facts hold only *up to poison*,
    and that is sufficient here — this is pure expression rewriting.  If
    an operand is poison the original icmp is poison and the constant we
    substitute is covered by it; no ``is_guaranteed_not_poison`` check is
    needed (contrast with LICM's hoisting client, which does need one).
    """
    if (not isinstance(inst.lhs, Instruction)
            and not isinstance(inst.rhs, Instruction)):
        return None
    ka = compute_known_bits(inst.lhs)
    kb = compute_known_bits(inst.rhs)
    i1 = IntType(1)
    pred = inst.pred
    # unsigned interval [min, max] per side
    a_lo, a_hi = ka.min_unsigned, ka.max_unsigned
    b_lo, b_hi = kb.min_unsigned, kb.max_unsigned
    if pred is IcmpPred.ULT:
        if a_hi < b_lo:
            return ConstantInt(i1, 1)
        if a_lo >= b_hi:
            return ConstantInt(i1, 0)
    elif pred is IcmpPred.ULE:
        if a_hi <= b_lo:
            return ConstantInt(i1, 1)
        if a_lo > b_hi:
            return ConstantInt(i1, 0)
    elif pred is IcmpPred.UGT:
        if a_lo > b_hi:
            return ConstantInt(i1, 1)
        if a_hi <= b_lo:
            return ConstantInt(i1, 0)
    elif pred is IcmpPred.UGE:
        if a_lo >= b_hi:
            return ConstantInt(i1, 1)
        if a_hi < b_lo:
            return ConstantInt(i1, 0)
    elif pred.is_equality:
        # disjoint known bits: definitely unequal
        conflict = (ka.ones & kb.zeros) | (kb.ones & ka.zeros)
        if conflict:
            return ConstantInt(i1, int(pred is IcmpPred.NE))
    return None


def _simplify_select(inst: SelectInst) -> Optional[Value]:
    # select c, x, x -> x: the condition's poison would make the result
    # poison under the ARITHMETIC and CONDITIONAL readings, so this is a
    # refinement in every configuration (poison covers x).
    if inst.true_value is inst.false_value:
        return inst.true_value
    return None


def _simplify_freeze(inst: FreezeInst, flow=None) -> Optional[Value]:
    v = inst.value
    # freeze(freeze(x)) -> freeze(x) (Section 6's InstCombine addition).
    if isinstance(v, FreezeInst):
        return v
    # freeze(x) -> x when x is provably never poison/undef at this
    # program point.  With a fixpoint result this includes values a
    # dominating branch already observed (branch-on-poison is UB), which
    # the shallow walk can never prove.
    if _not_poison(v, inst, flow):
        return v
    return None


def _simplify_phi(inst: PhiInst) -> Optional[Value]:
    distinct = {id(v) for v, _ in inst.incoming if v is not inst}
    if len(distinct) == 1:
        for v, _ in inst.incoming:
            if v is not inst:
                return v
    return None


class InstSimplify(FunctionPass):
    name = "instsimplify"

    #: consult the poison dataflow fixpoint (strictly stronger facts);
    #: disable to fall back to the shallow walk only.
    use_flow = True

    def run_on_function(self, fn: Function) -> bool:
        flow = (analyze_poison_flow(fn, self.config.semantics)
                if self.use_flow else None)
        changed = False
        for block in fn.blocks:
            for inst in list(block.instructions):
                if inst.type.is_void or inst.is_terminator:
                    continue
                simpler = simplify_instruction(inst, self.config, flow=flow)
                if simpler is not None and simpler is not inst:
                    inst.replace_all_uses_with(simpler)
                    block.erase(inst)
                    changed = True
        return changed
