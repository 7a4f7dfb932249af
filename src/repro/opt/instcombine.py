"""InstCombine: peephole rewrites that may create new instructions.

This pass is where most of the paper's problem cases live.  Each rule
documents its soundness conditions; rules that were historically unsound
are gated on :class:`~repro.opt.pass_manager.OptConfig` toggles so the
benchmark harness can run both the pre-paper ("legacy") and fixed
pipelines and let the refinement checker tell them apart (experiment E5).

Noteworthy rules:

* ``mul x, 2 -> add x, x`` (Section 3.1): duplicates an SSA use; unsound
  when ``x`` may be undef.  The fixed pipeline enables it only under the
  NEW (undef-free) semantics.
* ``select c, true, x -> or c, x`` (Sections 3.4 / 6): select-as-
  arithmetic.  Unsound under the conditional select semantics.  The fixed
  variant emits ``or c, freeze(x)``.  (The paper's prose suggests
  freezing the *condition*; our exhaustive refinement checker shows it is
  the non-selected *arm* whose poison leaks — see
  ``tests/opt/test_instcombine_select.py`` — so we freeze the arm.)
* ``select c, x, undef -> x`` (Section 3.4, PR31633): unsound because
  ``x`` may be poison and poison is stronger than undef.
* ``udiv a, C -> select (icmp ult a, C), 0, 1`` for constants with the
  top bit set (Section 3.4): requires that select on a poison condition
  is *not* UB.
"""

from __future__ import annotations

from typing import Optional

from ..diag import REMARK_ANALYSIS, Statistic
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    CastInst,
    FreezeInst,
    IcmpInst,
    IcmpPred,
    Instruction,
    Opcode,
    SelectInst,
)
from ..ir.types import IntType
from ..ir.values import ConstantInt, UndefValue, Value
from ..semantics.config import SelectSemantics
from .dce import is_trivially_dead
from .instsimplify import simplify_instruction
from .pass_manager import FunctionPass, OptConfig


NUM_COMBINED = Statistic(
    "instcombine", "num-combined", "Instructions combined")
NUM_DEAD = Statistic(
    "instcombine", "num-dead-removed", "Dead instructions swept")
NUM_MUL_TO_ADD = Statistic(
    "instcombine", "num-mul-to-add",
    "mul x, 2 rewritten to add x, x (Section 3.1 duplicated use)")
NUM_MUL_TO_SHL = Statistic(
    "instcombine", "num-mul-to-shl", "mul x, 2^k rewritten to shl")
NUM_UDIV_TO_SELECT = Statistic(
    "instcombine", "num-udiv-to-select",
    "udiv by big constant rewritten to select (Section 3.4)")
NUM_SELECTS_TO_ARITH = Statistic(
    "instcombine", "num-selects-to-arith",
    "i1 selects rewritten to or/and (Sections 3.4/6)")
NUM_SELECT_ARMS_FROZEN = Statistic(
    "instcombine", "num-selects-frozen",
    "Non-selected select arms frozen by the fixed rewrite")
NUM_SELECT_UNDEF_COLLAPSED = Statistic(
    "instcombine", "num-select-undef-collapsed",
    "select of undef collapsed (legacy, unsound: PR31633)")


def _insert_before(anchor: Instruction, new_inst: Instruction) -> Instruction:
    anchor.parent.insert_before(anchor, new_inst)
    return new_inst


def _const(v: Value) -> Optional[ConstantInt]:
    return v if isinstance(v, ConstantInt) else None


class InstCombine(FunctionPass):
    name = "instcombine"

    def run_on_function(self, fn: Function) -> bool:
        changed = False
        progress = True
        rounds = 0
        while progress and rounds < 8:
            progress = False
            rounds += 1
            for block in fn.blocks:
                for inst in list(block.instructions):
                    if inst.parent is not block:
                        continue  # already removed this round
                    if self.canonicalize(inst):
                        changed = True
                    new_value = self.visit(inst)
                    if new_value is None:
                        simpler = simplify_instruction(inst, self.config)
                        if simpler is not None and simpler is not inst:
                            new_value = simpler
                    if new_value is not None and new_value is not inst:
                        inst.replace_all_uses_with(new_value)
                        block.erase(inst)
                        NUM_COMBINED.inc()
                        changed = progress = True
            # like LLVM's InstCombine, sweep instructions the rewrites
            # just made dead
            for block in fn.blocks:
                for inst in list(reversed(block.instructions)):
                    if is_trivially_dead(inst):
                        block.erase(inst)
                        NUM_DEAD.inc()
                        changed = progress = True
        return changed

    # -- canonical operand order ----------------------------------------------
    def canonicalize(self, inst: Instruction) -> bool:
        """Move a constant to the RHS of a commutative binary op or an
        icmp (swapping the predicate), in place; True when it moved."""
        if isinstance(inst, BinaryInst):
            movable = inst.is_commutative and isinstance(inst.type, IntType)
        else:
            movable = (isinstance(inst, IcmpInst)
                       and isinstance(inst.lhs.type, IntType))
        if not movable or not isinstance(inst.lhs, ConstantInt) \
                or isinstance(inst.rhs, ConstantInt):
            return False
        lhs = inst.lhs
        inst.set_operand(0, inst.rhs)
        inst.set_operand(1, lhs)
        if isinstance(inst, IcmpInst):
            inst.pred = inst.pred.swapped()
        return True

    # -- dispatch ------------------------------------------------------------
    def visit(self, inst: Instruction) -> Optional[Value]:
        if isinstance(inst, BinaryInst):
            return self.visit_binary(inst)
        if isinstance(inst, SelectInst):
            return self.visit_select(inst)
        if isinstance(inst, IcmpInst):
            return self.visit_icmp(inst)
        return None

    # -- binary rules ---------------------------------------------------------
    def visit_binary(self, inst: BinaryInst) -> Optional[Value]:
        if not isinstance(inst.type, IntType):
            return None
        op = inst.opcode

        if op is Opcode.MUL:
            return self._visit_mul(inst)
        if op is Opcode.UDIV:
            return self._visit_udiv(inst)
        if op is Opcode.SUB:
            rc = _const(inst.rhs)
            if rc is not None and not rc.is_zero and not inst.nsw \
                    and not inst.nuw:
                # sub x, C -> add x, -C
                neg = ConstantInt(inst.type, -rc.signed_value)
                return _insert_before(
                    inst, BinaryInst(Opcode.ADD, inst.lhs, neg, inst.name)
                )
        if op is Opcode.XOR:
            # not(not x) -> x
            rc = _const(inst.rhs)
            if rc is not None and rc.is_all_ones \
                    and isinstance(inst.lhs, BinaryInst) \
                    and inst.lhs.opcode is Opcode.XOR:
                inner_rc = _const(inst.lhs.rhs)
                if inner_rc is not None and inner_rc.is_all_ones:
                    return inst.lhs.lhs
        if op in (Opcode.AND, Opcode.OR):
            # (x & C1) & C2 -> x & (C1 & C2); same for or
            rc = _const(inst.rhs)
            if rc is not None and isinstance(inst.lhs, BinaryInst) \
                    and inst.lhs.opcode is op:
                inner_rc = _const(inst.lhs.rhs)
                if inner_rc is not None:
                    merged = (inner_rc.value & rc.value) if op is Opcode.AND \
                        else (inner_rc.value | rc.value)
                    return _insert_before(
                        inst,
                        BinaryInst(op, inst.lhs.lhs,
                                   ConstantInt(inst.type, merged),
                                   inst.name),
                    )
        if op is Opcode.LSHR:
            # lshr (shl x, C), C -> and x, (all-ones >> C): the same
            # operand is used once, so this is exact even for poison x.
            rc = _const(inst.rhs)
            if rc is not None and isinstance(inst.lhs, BinaryInst) \
                    and inst.lhs.opcode is Opcode.SHL \
                    and not inst.lhs.nsw and not inst.lhs.nuw \
                    and not inst.exact:
                inner_rc = _const(inst.lhs.rhs)
                if inner_rc is not None and inner_rc.value == rc.value \
                        and rc.value < inst.type.bits:
                    mask = (1 << (inst.type.bits - rc.value)) - 1
                    return _insert_before(
                        inst,
                        BinaryInst(Opcode.AND, inst.lhs.lhs,
                                   ConstantInt(inst.type, mask),
                                   inst.name),
                    )
        if op is Opcode.SHL:
            # shl x, 1 -> add x, x: like mul x, 2 -> add x, x this
            # duplicates an SSA use (Section 3.1) and is only sound when
            # x cannot be undef.
            rc = _const(inst.rhs)
            dup_ok = self.config.semantics.is_new \
                or self.config.instcombine_dup_uses_unsound
            if rc is not None and rc.is_one and dup_ok and not inst.nsw \
                    and not inst.nuw:
                return _insert_before(
                    inst, BinaryInst(Opcode.ADD, inst.lhs, inst.lhs, inst.name)
                )
        return None

    def _visit_mul(self, inst: BinaryInst) -> Optional[Value]:
        rc = _const(inst.rhs)
        if rc is None:
            return None
        v = rc.value
        ty: IntType = inst.type  # type: ignore[assignment]

        # mul x, 2 -> add x, x: duplicates the use of x (Section 3.1).
        # Sound iff x cannot be undef: under NEW semantics always; under
        # OLD only with the (historically missing) non-undef proof.
        dup_ok = self.config.semantics.is_new \
            or self.config.instcombine_dup_uses_unsound
        if v == 2 and dup_ok and not inst.nsw and not inst.nuw:
            NUM_MUL_TO_ADD.inc()
            self.remark(
                f"rewrote {inst.ref()} = mul x, 2 to add x, x "
                "(duplicates the SSA use; sound without undef)",
                inst=inst)
            return _insert_before(
                inst, BinaryInst(Opcode.ADD, inst.lhs, inst.lhs, inst.name)
            )

        # mul x, 2^k -> shl x, k (k >= 2, or when the add rewrite is off).
        if v != 0 and v & (v - 1) == 0 and v != 1 and not inst.nsw \
                and not inst.nuw:
            k = v.bit_length() - 1
            if v != 2 or not dup_ok:
                NUM_MUL_TO_SHL.inc()
                return _insert_before(
                    inst,
                    BinaryInst(Opcode.SHL, inst.lhs,
                               ConstantInt(ty, k), inst.name),
                )
        return None

    def _visit_udiv(self, inst: BinaryInst) -> Optional[Value]:
        rc = _const(inst.rhs)
        if rc is None:
            return None
        ty: IntType = inst.type  # type: ignore[assignment]
        v = rc.value
        # udiv x, 2^k -> lshr x, k
        if v != 0 and v & (v - 1) == 0:
            k = v.bit_length() - 1
            if k == 0:
                return inst.lhs
            return _insert_before(
                inst,
                BinaryInst(Opcode.LSHR, inst.lhs, ConstantInt(ty, k),
                           inst.name, exact=inst.exact),
            )
        # Section 3.4: udiv a, C -> select (icmp ult a, C), 0, 1 for
        # constants with the top bit set (quotient is 0 or 1).  Requires
        # select on a poison condition NOT to be UB: the original udiv of
        # a poison dividend merely yields poison.
        if ty.bits > 1 and v > ty.signed_max:
            if self.config.semantics.select_semantics \
                    is SelectSemantics.UB_COND:
                return None
            NUM_UDIV_TO_SELECT.inc()
            self.remark(
                f"rewrote {inst.ref()} = udiv by a top-bit-set constant "
                "to select (needs non-UB select on poison)",
                inst=inst)
            cmp = _insert_before(
                inst, IcmpInst(IcmpPred.ULT, inst.lhs, rc, inst.name + ".c")
            )
            return _insert_before(
                inst,
                SelectInst(cmp, ConstantInt(ty, 0), ConstantInt(ty, 1),
                           inst.name),
            )
        return None

    # -- select rules -------------------------------------------------------
    def visit_select(self, inst: SelectInst) -> Optional[Value]:
        tv, fv = inst.true_value, inst.false_value
        tc, fc = _const(tv), _const(fv)

        # select c, x, undef -> x and select c, undef, x -> x
        # (Section 3.4, PR31633).  UNSOUND: x may be poison, and poison
        # is stronger than undef.  Historical behavior only.
        if self.config.simplifycfg_select_undef:
            if isinstance(fv, UndefValue):
                NUM_SELECT_UNDEF_COLLAPSED.inc()
                self.remark(
                    f"collapsed {inst.ref()} = select of undef to its "
                    "other arm (legacy; unsound when the arm is poison)",
                    inst=inst)
                return tv
            if isinstance(tv, UndefValue):
                NUM_SELECT_UNDEF_COLLAPSED.inc()
                self.remark(
                    f"collapsed {inst.ref()} = select of undef to its "
                    "other arm (legacy; unsound when the arm is poison)",
                    inst=inst)
                return fv

        if not inst.type.is_bool:
            return None

        # Select-as-arithmetic rewrites for i1 (Sections 3.4 / 6):
        #   select c, true, x  -> or c, x
        #   select c, x, false -> and c, x
        #   select c, false, x -> and (not c), x
        #   select c, x, true  -> or (not c), x
        legacy = self.config.instcombine_select_arith
        fixed = self.config.semantics.is_new and not legacy
        if not (legacy or fixed):
            return None

        def arm(x: Value) -> Value:
            # The fixed variant freezes the non-selected arm so its
            # poison cannot leak through the strict or/and.
            if fixed:
                NUM_SELECT_ARMS_FROZEN.inc()
                self.remark(
                    f"froze non-selected arm {x.ref()} of {inst.ref()} "
                    "before the select-to-arithmetic rewrite",
                    inst=inst)
                return _insert_before(inst, FreezeInst(x, inst.name + ".fr"))
            self.remark(
                f"rewrote {inst.ref()} to arithmetic without freezing "
                f"arm {x.ref()} (legacy; leaks the arm's poison)",
                kind=REMARK_ANALYSIS, inst=inst)
            return x

        def not_of(c: Value) -> Value:
            return _insert_before(
                inst,
                BinaryInst(Opcode.XOR, c, ConstantInt(IntType(1), 1),
                           inst.name + ".not"),
            )

        if tc is not None and tc.is_one:
            NUM_SELECTS_TO_ARITH.inc()
            return _insert_before(
                inst,
                BinaryInst(Opcode.OR, inst.cond, arm(fv), inst.name),
            )
        if fc is not None and fc.is_zero:
            NUM_SELECTS_TO_ARITH.inc()
            return _insert_before(
                inst,
                BinaryInst(Opcode.AND, inst.cond, arm(tv), inst.name),
            )
        if tc is not None and tc.is_zero:
            NUM_SELECTS_TO_ARITH.inc()
            return _insert_before(
                inst,
                BinaryInst(Opcode.AND, not_of(inst.cond), arm(fv), inst.name),
            )
        if fc is not None and fc.is_one:
            NUM_SELECTS_TO_ARITH.inc()
            return _insert_before(
                inst,
                BinaryInst(Opcode.OR, not_of(inst.cond), arm(tv), inst.name),
            )
        return None

    # -- icmp rules ------------------------------------------------------------
    def visit_icmp(self, inst: IcmpInst) -> Optional[Value]:
        if not isinstance(inst.lhs.type, IntType):
            return None
        ty: IntType = inst.lhs.type  # type: ignore[assignment]
        rc = _const(inst.rhs)
        if rc is None:
            return None

        # icmp ult x, 1 -> icmp eq x, 0
        if inst.pred is IcmpPred.ULT and rc.is_one:
            return _insert_before(
                inst,
                IcmpInst(IcmpPred.EQ, inst.lhs, ConstantInt(ty, 0), inst.name),
            )
        # icmp ugt x, 0 -> icmp ne x, 0
        if inst.pred is IcmpPred.UGT and rc.is_zero:
            return _insert_before(
                inst,
                IcmpInst(IcmpPred.NE, inst.lhs, ConstantInt(ty, 0), inst.name),
            )
        # icmp eq/ne (add x, C1), C2 -> icmp eq/ne x, C2-C1
        if inst.pred.is_equality and isinstance(inst.lhs, BinaryInst) \
                and inst.lhs.opcode is Opcode.ADD:
            add = inst.lhs
            c1 = _const(add.rhs)
            if c1 is not None:
                c = ConstantInt(ty, rc.value - c1.value)
                return _insert_before(
                    inst, IcmpInst(inst.pred, add.lhs, c, inst.name)
                )
        # icmp eq/ne (xor x, C1), C2 -> icmp eq/ne x, C1^C2
        if inst.pred.is_equality and isinstance(inst.lhs, BinaryInst) \
                and inst.lhs.opcode is Opcode.XOR:
            xor = inst.lhs
            c1 = _const(xor.rhs)
            if c1 is not None:
                c = ConstantInt(ty, c1.value ^ rc.value)
                return _insert_before(
                    inst, IcmpInst(inst.pred, xor.lhs, c, inst.name)
                )
        # icmp ne (zext c), 0 -> c; icmp eq (zext c), 0 -> not c
        if inst.pred.is_equality and rc.is_zero \
                and isinstance(inst.lhs, CastInst) \
                and inst.lhs.opcode is Opcode.ZEXT \
                and inst.lhs.value.type.is_bool:
            c = inst.lhs.value
            if inst.pred is IcmpPred.NE:
                return c
            return _insert_before(
                inst,
                BinaryInst(Opcode.XOR, c, ConstantInt(IntType(1), 1),
                           inst.name),
            )
        return None
