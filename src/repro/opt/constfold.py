"""Constant folding, including the undef/poison folding rules.

Folding is a *refinement*: when an operand is undef, the folder may pick
any concretization (each textual occurrence of ``undef`` is an
independent source of freedom — Alive's model, and ours).  When an
operand is poison, most results are poison; division by a constant zero
or by poison is immediate UB and is deliberately *not* folded (the
instruction is left in place to keep the UB).
"""

from __future__ import annotations

from typing import Optional

from ..ir.instructions import (
    BinaryInst,
    CastInst,
    FreezeInst,
    IcmpInst,
    Instruction,
    Opcode,
    SelectInst,
    DIVISION_OPCODES,
)
from ..ir.types import IntType
from ..ir.values import (
    Constant,
    ConstantInt,
    PoisonValue,
    UndefValue,
    Value,
)
from ..semantics.config import NEW, SemanticsConfig, ShiftOutOfRange
from ..semantics.domains import POISON
from ..semantics.eval import UBError, eval_binop, eval_cast, eval_icmp


def _as_scalar(c: Value):
    if isinstance(c, ConstantInt):
        return c.value
    if isinstance(c, PoisonValue):
        return POISON
    return None  # undef or non-constant: handled specially


def _result(scalar, ty) -> Optional[Constant]:
    if scalar is POISON:
        return PoisonValue(ty)
    if isinstance(scalar, int):
        return ConstantInt(ty, scalar)
    return None  # PartialUndef results are not folded to constants


def try_constant_fold(inst: Instruction,
                      config: SemanticsConfig = NEW) -> Optional[Constant]:
    """Return the folded constant, or ``None`` if not foldable."""
    if isinstance(inst, BinaryInst):
        return _fold_binary(inst, config)
    if isinstance(inst, IcmpInst):
        return _fold_icmp(inst)
    if isinstance(inst, CastInst):
        return _fold_cast(inst)
    if isinstance(inst, SelectInst):
        return _fold_select(inst)
    if isinstance(inst, FreezeInst):
        return _fold_freeze(inst, config)
    return None


def _fold_binary(inst: BinaryInst, config: SemanticsConfig) -> Optional[Constant]:
    if not isinstance(inst.type, IntType):
        return None
    ty: IntType = inst.type
    op = inst.opcode
    lhs, rhs = inst.lhs, inst.rhs

    # --- undef operand rules (sound refinements; see module doc) ---------
    lu = isinstance(lhs, UndefValue)
    ru = isinstance(rhs, UndefValue)
    if lu or ru:
        if op in DIVISION_OPCODES:
            return None  # divisor could concretize to 0 -> UB; leave it
        if op in (Opcode.ADD, Opcode.SUB, Opcode.XOR):
            # x op undef is a bijection in the undef operand: still undef.
            if (lu and ru) or isinstance(lhs, ConstantInt) \
                    or isinstance(rhs, ConstantInt) or lu != ru:
                return UndefValue(ty) if config.has_undef else None
        if op is Opcode.AND:
            return ConstantInt(ty, 0)       # pick undef = 0
        if op is Opcode.OR:
            return ConstantInt(ty, ty.unsigned_max)  # pick undef = ~0
        if op is Opcode.MUL:
            return ConstantInt(ty, 0)       # pick undef = 0
        if op in (Opcode.SHL, Opcode.LSHR, Opcode.ASHR):
            return ConstantInt(ty, 0)       # pick shift amount/value = 0
        return None

    a = _as_scalar(lhs)
    b = _as_scalar(rhs)
    if a is None or b is None:
        return None
    try:
        scalar = eval_binop(op, a, b, ty.bits, config,
                            nsw=inst.nsw, nuw=inst.nuw, exact=inst.exact)
    except UBError:
        return None  # immediate UB: keep the instruction
    if not config.has_undef and not isinstance(scalar, int) \
            and scalar is not POISON:
        # OLD-only undef result (oob shift) cannot appear under NEW.
        return None
    if scalar is not POISON and not isinstance(scalar, int):
        # PartialUndef (oob shift under OLD): fold to the undef constant.
        return UndefValue(ty)
    return _result(scalar, ty)


def _fold_icmp(inst: IcmpInst) -> Optional[Constant]:
    if not isinstance(inst.lhs.type, IntType):
        return None
    width = inst.lhs.type.bits
    i1 = IntType(1)
    if isinstance(inst.lhs, UndefValue) or isinstance(inst.rhs, UndefValue):
        # Any outcome is allowed; pick false.
        return ConstantInt(i1, 0)
    a = _as_scalar(inst.lhs)
    b = _as_scalar(inst.rhs)
    if a is None or b is None:
        return None
    scalar = eval_icmp(inst.pred, a, b, width)
    return _result(scalar, i1)


def _fold_cast(inst: CastInst) -> Optional[Constant]:
    if inst.opcode in (Opcode.BITCAST, Opcode.PTRTOINT, Opcode.INTTOPTR):
        return None
    if not isinstance(inst.type, IntType):
        return None
    if isinstance(inst.value, UndefValue):
        if inst.opcode is Opcode.TRUNC:
            return UndefValue(inst.type)  # trunc undef -> undef (onto)
        return None  # zext/sext undef are value-range restricted
    if isinstance(inst.value, PoisonValue):
        return PoisonValue(inst.type)
    if not isinstance(inst.value, ConstantInt):
        return None
    src_w = inst.value.type.bits  # type: ignore[union-attr]
    scalar = eval_cast(inst.opcode, inst.value.value, src_w, inst.type.bits)
    return _result(scalar, inst.type)


def _fold_select(inst: SelectInst) -> Optional[Constant]:
    cond = inst.cond
    if isinstance(cond, ConstantInt):
        chosen = inst.true_value if cond.value else inst.false_value
        if isinstance(chosen, Constant):
            return chosen
    return None


def _fold_freeze(inst: FreezeInst, config: SemanticsConfig) -> Optional[Constant]:
    v = inst.value
    # freeze(const) -> const (Section 6's InstCombine addition).
    if isinstance(v, ConstantInt):
        return v
    if isinstance(v, (UndefValue, PoisonValue)):
        if isinstance(inst.type, IntType):
            return ConstantInt(inst.type, 0)  # pick an arbitrary value
    return None
