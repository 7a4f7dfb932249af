"""Symbolic (SMT-based) refinement checking for poison-only functions.

This is the Alive-style verification-condition generator: every SSA
value is encoded as a pair *(value bitvector, poison bool)*; control
flow becomes path conditions; branch-on-poison contributes to a UB
condition.  The refinement VC for target vs source is::

    exists input:
        not UB_src
        and ( UB_tgt
           or (not poison_src_ret
               and (poison_tgt_ret or val_tgt != val_src)) )

UNSAT means the target refines the source on *all* inputs (including
poison arguments) — a complete proof at full bitwidths, not just the
small widths the exhaustive checker enumerates.

Scope (checked up front, anything else falls back to
:func:`repro.refine.exhaustive.check_refinement`):

* loop-free CFG, scalar integer values only;
* no memory operations, no calls;
* no ``undef`` (undef needs quantifier alternation — one more reason the
  paper removes it);
* ``freeze`` allowed in the **target** (its choice is existential in the
  counterexample search, hence universal in the UNSAT reading — exactly
  refinement); a source freeze would need the opposite polarity, so it
  is out of scope.

The select encoding follows Figure 5 (NEW semantics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.cfg import reverse_postorder
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    BranchInst,
    CastInst,
    FreezeInst,
    IcmpInst,
    IcmpPred,
    Instruction,
    Opcode,
    PhiInst,
    ReturnInst,
    SelectInst,
    SwitchInst,
    UnreachableInst,
)
from ..ir.types import IntType
from ..ir.values import Argument, ConstantInt, PoisonValue, UndefValue, Value
from ..smt import terms as T
from ..smt.sat import SAT, UNSAT
from ..smt.solver import Solver
from .exhaustive import RefinementResult


class EncodingUnsupported(Exception):
    """The function falls outside the symbolic fragment."""


@dataclass
class EncodedFunction:
    ub: T.Term            # some execution path reached immediate UB
    ret_val: T.Term       # return value (meaningful when not ret_poison)
    ret_poison: T.Term
    freeze_vars: List[T.Term]


class FunctionEncoder:
    def __init__(self, fn: Function, arg_vals: List[T.Term],
                 arg_poisons: List[T.Term], prefix: str):
        self.fn = fn
        self.prefix = prefix
        self.values: Dict[Value, Tuple[T.Term, T.Term]] = {}
        for arg, v, p in zip(fn.args, arg_vals, arg_poisons):
            self.values[arg] = (v, p)
        self.freeze_vars: List[T.Term] = []
        self._freeze_count = 0
        self.ub = T.FALSE

    def encode(self) -> EncodedFunction:
        fn = self.fn
        self._check_supported()
        rpo = reverse_postorder(fn)
        order = {b: i for i, b in enumerate(rpo)}

        #: path condition of each block
        pc: Dict[BasicBlock, T.Term] = {fn.entry: T.TRUE}
        #: (pred, succ) -> edge condition
        edge: Dict[Tuple[BasicBlock, BasicBlock], T.Term] = {}
        rets: List[Tuple[T.Term, T.Term, T.Term]] = []

        for block in rpo:
            if block is not fn.entry:
                incoming = [
                    edge.get((p, block), T.FALSE)
                    for p in block.predecessors()
                ]
                pc[block] = T.or_(*incoming)
            cond = pc[block]

            for inst in block.instructions:
                if isinstance(inst, PhiInst):
                    self._encode_phi(inst, edge)
                elif isinstance(inst, BranchInst):
                    self._encode_branch(inst, block, cond, edge)
                elif isinstance(inst, ReturnInst):
                    if inst.value is None:
                        rets.append((cond, T.bv_const(0, 1), T.FALSE))
                    else:
                        v, p = self._value(inst.value)
                        rets.append((cond, v, p))
                elif isinstance(inst, UnreachableInst):
                    self.ub = T.or_(self.ub, cond)
                else:
                    self._encode_instruction(inst, cond)

        if not rets:
            ret_val = T.bv_const(0, 1)
            ret_poison = T.FALSE
        else:
            _, ret_val, ret_poison = rets[-1]
            for cond, v, p in reversed(rets[:-1]):
                ret_val = T.ite(cond, v, ret_val)
                ret_poison = T.bool_ite(cond, p, ret_poison)
        return EncodedFunction(self.ub, ret_val, ret_poison,
                               self.freeze_vars)

    # -- scope checks -----------------------------------------------------------
    def _check_supported(self) -> None:
        from ..analysis.dominators import DominatorTree

        fn = self.fn
        dt = DominatorTree(fn)
        for block in fn.blocks:
            for succ in block.successors():
                if dt.dominates_block(succ, block):
                    raise EncodingUnsupported("function has a loop")
        for inst in fn.instructions():
            if inst.opcode in (Opcode.LOAD, Opcode.STORE, Opcode.ALLOCA,
                               Opcode.GEP, Opcode.CALL,
                               Opcode.EXTRACTELEMENT, Opcode.INSERTELEMENT,
                               Opcode.BITCAST, Opcode.PTRTOINT,
                               Opcode.INTTOPTR, Opcode.SWITCH):
                raise EncodingUnsupported(
                    f"{inst.opcode.value} not in the symbolic fragment"
                )
            if not inst.type.is_void and not isinstance(inst.type, IntType):
                raise EncodingUnsupported(f"non-integer type {inst.type}")
            for op in inst.operands:
                if isinstance(op, UndefValue):
                    raise EncodingUnsupported(
                        "undef requires quantifier alternation"
                    )
        for arg in fn.args:
            if not isinstance(arg.type, IntType):
                raise EncodingUnsupported(f"non-integer arg {arg.type}")
        if not isinstance(fn.return_type, IntType) \
                and not fn.return_type.is_void:
            raise EncodingUnsupported("non-integer return")

    # -- operand lookup ------------------------------------------------------------
    def _value(self, op: Value) -> Tuple[T.Term, T.Term]:
        if isinstance(op, ConstantInt):
            return T.bv_const(op.value, op.type.bits), T.FALSE
        if isinstance(op, PoisonValue):
            return T.bv_const(0, op.type.bitwidth()), T.TRUE
        got = self.values.get(op)
        if got is None:
            raise EncodingUnsupported(f"unsupported operand {op!r}")
        return got

    # -- per-instruction encodings ---------------------------------------------------
    def _encode_phi(self, phi: PhiInst, edge) -> None:
        pairs = []
        for value, pred in phi.incoming:
            cond = edge.get((pred, phi.parent), T.FALSE)
            pairs.append((cond, value))
        v, p = self._value(pairs[-1][1])
        for cond, value in reversed(pairs[:-1]):
            vv, pp = self._value(value)
            v = T.ite(cond, vv, v)
            p = T.bool_ite(cond, pp, p)
        self.values[phi] = (v, p)

    def _encode_branch(self, br: BranchInst, block, cond: T.Term,
                       edge) -> None:
        if not br.is_conditional:
            target = br.targets[0]
            edge[(block, target)] = T.or_(
                edge.get((block, target), T.FALSE), cond
            )
            return
        cv, cp = self._value(br.cond)
        # Branch on poison is immediate UB (Section 4).
        self.ub = T.or_(self.ub, T.and_(cond, cp))
        taken = T.eq(cv, T.bv_const(1, 1))
        t_edge = T.and_(cond, T.not_(cp), taken)
        f_edge = T.and_(cond, T.not_(cp), T.not_(taken))
        tb, fb = br.true_block, br.false_block
        edge[(block, tb)] = T.or_(edge.get((block, tb), T.FALSE), t_edge)
        edge[(block, fb)] = T.or_(edge.get((block, fb), T.FALSE), f_edge)

    def _encode_instruction(self, inst: Instruction, cond: T.Term) -> None:
        if isinstance(inst, BinaryInst):
            self.values[inst] = self._encode_binary(inst, cond)
        elif isinstance(inst, IcmpInst):
            self.values[inst] = self._encode_icmp(inst)
        elif isinstance(inst, SelectInst):
            self.values[inst] = self._encode_select(inst)
        elif isinstance(inst, FreezeInst):
            self.values[inst] = self._encode_freeze(inst)
        elif isinstance(inst, CastInst):
            self.values[inst] = self._encode_cast(inst)
        else:
            raise EncodingUnsupported(f"instruction {inst.opcode.value}")

    def _encode_binary(self, inst: BinaryInst, cond: T.Term):
        a, ap = self._value(inst.lhs)
        b, bp = self._value(inst.rhs)
        width = inst.type.bits
        op = inst.opcode
        poison = T.or_(ap, bp)

        if op in (Opcode.UDIV, Opcode.SDIV, Opcode.UREM, Opcode.SREM):
            # zero or poison divisor is immediate UB on this path
            div_ub = T.or_(bp, T.eq(b, T.bv_const(0, width)))
            if op in (Opcode.SDIV, Opcode.SREM):
                int_min = T.bv_const(1 << (width - 1), width)
                minus1 = T.bv_const((1 << width) - 1, width)
                div_ub = T.or_(
                    div_ub, T.and_(T.eq(a, int_min), T.eq(b, minus1))
                )
            self.ub = T.or_(self.ub, T.and_(cond, div_ub))
            fn = {
                Opcode.UDIV: T.bvudiv, Opcode.UREM: T.bvurem,
                Opcode.SDIV: T.bvsdiv, Opcode.SREM: T.bvsrem,
            }[op]
            value = fn(a, b)
            poison = ap
            if inst.exact:
                rem = T.bvurem(a, b) if op is Opcode.UDIV else T.bvsrem(a, b)
                poison = T.or_(poison, T.ne(rem, T.bv_const(0, width)))
            return value, poison

        if op is Opcode.ADD:
            value = T.bvadd(a, b)
            if inst.nsw:
                wide = T.bvadd(T.sext(a, width + 1), T.sext(b, width + 1))
                poison = T.or_(poison,
                               T.ne(wide, T.sext(value, width + 1)))
            if inst.nuw:
                wide = T.bvadd(T.zext(a, width + 1), T.zext(b, width + 1))
                poison = T.or_(poison,
                               T.ne(wide, T.zext(value, width + 1)))
            return value, poison
        if op is Opcode.SUB:
            value = T.bvsub(a, b)
            if inst.nsw:
                wide = T.bvsub(T.sext(a, width + 1), T.sext(b, width + 1))
                poison = T.or_(poison,
                               T.ne(wide, T.sext(value, width + 1)))
            if inst.nuw:
                poison = T.or_(poison, T.ult(a, b))
            return value, poison
        if op is Opcode.MUL:
            value = T.bvmul(a, b)
            if inst.nsw:
                wide = T.bvmul(T.sext(a, 2 * width), T.sext(b, 2 * width))
                poison = T.or_(poison,
                               T.ne(wide, T.sext(value, 2 * width)))
            if inst.nuw:
                wide = T.bvmul(T.zext(a, 2 * width), T.zext(b, 2 * width))
                poison = T.or_(poison,
                               T.ne(wide, T.zext(value, 2 * width)))
            return value, poison
        if op in (Opcode.SHL, Opcode.LSHR, Opcode.ASHR):
            fn = {Opcode.SHL: T.bvshl, Opcode.LSHR: T.bvlshr,
                  Opcode.ASHR: T.bvashr}[op]
            value = fn(a, b)
            # Out-of-range shift amount: poison (NEW semantics).  The
            # width constant always fits since width < 2^width.
            poison = T.or_(poison,
                           T.not_(T.ult(b, T.bv_const(width, width))))
            if op is Opcode.SHL and inst.nuw:
                back = T.bvlshr(value, b)
                poison = T.or_(poison, T.ne(back, a))
            if op is Opcode.SHL and inst.nsw:
                back = T.bvashr(value, b)
                poison = T.or_(poison, T.ne(back, a))
            if op in (Opcode.LSHR, Opcode.ASHR) and inst.exact:
                back = T.bvshl(value, b)
                poison = T.or_(poison, T.ne(back, a))
            return value, poison
        fn = {Opcode.AND: T.bvand, Opcode.OR: T.bvor,
              Opcode.XOR: T.bvxor}[op]
        return fn(a, b), poison

    def _encode_icmp(self, inst: IcmpInst):
        a, ap = self._value(inst.lhs)
        b, bp = self._value(inst.rhs)
        pred = inst.pred
        table = {
            IcmpPred.EQ: T.eq(a, b),
            IcmpPred.NE: T.ne(a, b),
            IcmpPred.UGT: T.ult(b, a),
            IcmpPred.UGE: T.ule(b, a),
            IcmpPred.ULT: T.ult(a, b),
            IcmpPred.ULE: T.ule(a, b),
            IcmpPred.SGT: T.slt(b, a),
            IcmpPred.SGE: T.sle(b, a),
            IcmpPred.SLT: T.slt(a, b),
            IcmpPred.SLE: T.sle(a, b),
        }
        value = T.ite(table[pred], T.bv_const(1, 1), T.bv_const(0, 1))
        return value, T.or_(ap, bp)

    def _encode_select(self, inst: SelectInst):
        c, cp = self._value(inst.cond)
        t, tp = self._value(inst.true_value)
        f, fp = self._value(inst.false_value)
        taken = T.eq(c, T.bv_const(1, 1))
        value = T.ite(taken, t, f)
        # Figure 5: poison condition -> poison result; otherwise only the
        # chosen arm's poison matters.
        poison = T.or_(cp, T.bool_ite(taken, tp, fp))
        return value, poison

    def _encode_freeze(self, inst: FreezeInst):
        v, p = self._value(inst.value)
        self._freeze_count += 1
        fresh = T.bv_var(f"{self.prefix}.freeze{self._freeze_count}",
                         inst.type.bits)
        self.freeze_vars.append(fresh)
        return T.ite(p, fresh, v), T.FALSE

    def _encode_cast(self, inst: CastInst):
        v, p = self._value(inst.value)
        width = inst.type.bits
        if inst.opcode is Opcode.ZEXT:
            return T.zext(v, width), p
        if inst.opcode is Opcode.SEXT:
            return T.sext(v, width), p
        if inst.opcode is Opcode.TRUNC:
            return T.trunc(v, width), p
        raise EncodingUnsupported(f"cast {inst.opcode.value}")


def check_refinement_symbolic(src: Function, tgt: Function,
                              max_conflicts: int = 500_000,
                              deadline: Optional[float] = None
                              ) -> RefinementResult:
    """SMT-based refinement check (NEW semantics, poison-only fragment).

    Returns ``inconclusive`` when either function falls outside the
    fragment (the caller should fall back to the exhaustive checker).
    Each call builds a fresh :class:`Solver`.
    """
    if len(src.args) != len(tgt.args) or any(
        a.type is not b.type for a, b in zip(src.args, tgt.args)
    ) or src.return_type is not tgt.return_type:
        return RefinementResult("inconclusive", reason="signature mismatch")

    try:
        arg_vals = [
            T.bv_var(f"arg{i}", a.type.bits)
            for i, a in enumerate(src.args)
        ]
        arg_poisons = [
            T.bool_var(f"arg{i}.poison") for i in range(len(src.args))
        ]
        src_enc = FunctionEncoder(src, arg_vals, arg_poisons, "src")
        if any(isinstance(i, FreezeInst) for i in src.instructions()):
            return RefinementResult(
                "inconclusive",
                reason="freeze in the source needs forall-exists "
                       "quantification",
            )
        s = src_enc.encode()
        t = FunctionEncoder(tgt, arg_vals, arg_poisons, "tgt").encode()
    except EncodingUnsupported as e:
        return RefinementResult("inconclusive", reason=str(e))

    ret_matters = not src.return_type.is_void
    if ret_matters:
        bad_ret = T.and_(
            T.not_(s.ret_poison),
            T.or_(t.ret_poison, T.ne(t.ret_val, s.ret_val)),
        )
    else:
        bad_ret = T.FALSE
    vc = T.and_(T.not_(s.ub), T.or_(t.ub, bad_ret))

    solver = Solver(max_conflicts)
    solver.add(vc)
    result = solver.check(deadline=deadline)
    if result == UNSAT:
        return RefinementResult("verified",
                                inputs_checked=-1)  # all inputs, symbolically
    if result != SAT:
        if solver.sat.deadline_hit:
            from .exhaustive import DEADLINE_REASON

            return RefinementResult(
                "inconclusive",
                reason=f"{DEADLINE_REASON} expired mid-query")
        return RefinementResult("inconclusive", reason="solver budget")

    # Build a readable counterexample.
    from ..semantics.domains import POISON
    from .exhaustive import Counterexample

    args = []
    for av, ap in zip(arg_vals, arg_poisons):
        if solver.model_bool(ap):
            args.append(POISON)
        else:
            args.append(solver.model_bv(av))
    from ..semantics.interp import enumerate_behaviors

    try:
        src_b = enumerate_behaviors(src, args)
        tgt_b = enumerate_behaviors(tgt, args)
        witness = next(
            (b for b in tgt_b
             if not any(_covers(sb, b) for sb in src_b)),
            next(iter(tgt_b)),
        )
        cex = Counterexample(
            args=tuple(args),
            arg_types=tuple(a.type for a in src.args),
            global_init=(),
            witness=witness,
            src_behaviors=tuple(src_b),
        )
    except Exception:  # pragma: no cover - cex reconstruction best-effort
        cex = None
    return RefinementResult("failed", counterexample=cex)


def _covers(a, b):
    from .refinement import behavior_covers

    return behavior_covers(a, b)
