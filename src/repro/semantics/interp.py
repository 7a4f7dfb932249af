"""Nondeterministic interpreter implementing the paper's semantics.

The interpreter executes one path, consulting an :class:`Oracle` at every
nondeterministic choice point:

* each *computational use* of a (partially) undef value picks concrete
  bits (OLD semantics, Section 3.1);
* ``freeze`` of poison/undef picks one value, shared by all uses
  (Section 4);
* branching on poison under the ``NONDET`` reading picks a successor;
* calls to declared-only functions pick a return value.

:func:`enumerate_behaviors` drives the oracle through every choice
sequence (depth-first with an odometer), producing the *set* of
observable behaviors of a function on given inputs — the semantic object
that refinement (:mod:`repro.refine`) is defined over.

An observable behavior is: UB, or (return-value bits, external-call event
trace, final contents of every global).  Undef/poison bits appear in
observables un-expanded; the refinement checker interprets them.

Execution plans (the validation hot path)
-----------------------------------------
Behavior enumeration re-executes the same function for every input ×
every oracle path — the per-instruction cost is multiplied millions of
times in a validation campaign.  The interpreter therefore *compiles*
each function once per :class:`~repro.semantics.config.SemanticsConfig`
into an :class:`ExecPlan`: per-block step lists whose operand fetchers,
evaluator closures (:func:`~repro.semantics.eval.binop_evaluator` and
friends, which look each result up in the operation's table of
:mod:`repro.semantics.eval`, the one definition of every integer rule
that the vector engine reads too), and config decisions are resolved up
front, replacing the per-step ``isinstance`` dispatch chain and dict
lookups.  Plans make
*no* nondeterministic choices at compile time, so a planned execution
consults the oracle in exactly the same order as the historical
interpreter — behavior sets are unchanged, only faster to enumerate.
A :class:`PlanCache` shares plans across paths and inputs; it is only
valid while the compiled functions are not mutated (the refinement
checker builds one per check, after the pipeline under test has run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..diag import ExecTrace, Statistic, phase
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
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
from ..ir.types import IntType, PointerType, Type, VectorType
from ..ir.values import (
    Argument,
    ConstantInt,
    ConstantVector,
    GlobalVariable,
    PoisonValue,
    UndefValue,
    Value,
)
from .config import (
    BranchOnPoison,
    SelectSemantics,
    SemanticsConfig,
    NEW,
)
from .domains import (
    Bits,
    POISON,
    PartialUndef,
    RuntimeValue,
    Scalar,
    bits_to_value,
    full_undef,
    poison_value,
    scalar_width,
    undef_value,
    value_to_bits,
)
from .eval import (
    UBError,
    binop_evaluator,
    cast_evaluator,
    icmp_evaluator,
)
from .memory import Memory, uninit_bit_for


NUM_FUEL_EXHAUSTED = Statistic(
    "interp", "num-fuel-exhausted",
    "Executions that ran out of fuel (probable infinite loops)")
NUM_UB_EXECUTIONS = Statistic(
    "interp", "num-ub-executions",
    "Executions that triggered immediate UB")
NUM_PLANS_COMPILED = Statistic(
    "interp", "num-plans-compiled",
    "Functions compiled into execution plans")


class PathLimitExceeded(Exception):
    """Behavior enumeration exceeded its path budget."""


class FuelExhausted(Exception):
    """Execution exceeded its step budget (probable infinite loop).

    The message reports the step count and the function/block that was
    executing, so a stuck workload is attributable without a debugger."""


class Oracle:
    """Replays a prefix of recorded choices, then defaults to 0 while
    recording the cardinality of each new choice point."""

    def __init__(self, choices: Optional[List[int]] = None,
                 max_choices: int = 64):
        self.choices: List[int] = list(choices) if choices else []
        self.cards: List[int] = []
        self.index = 0
        self.max_choices = max_choices

    def choose(self, cardinality: int) -> int:
        if cardinality <= 0:
            raise ValueError("choice cardinality must be positive")
        if self.index >= self.max_choices:
            raise PathLimitExceeded(
                f"more than {self.max_choices} choice points on one path"
            )
        if self.index < len(self.choices):
            value = self.choices[self.index]
        else:
            value = 0
            self.choices.append(0)
        self.cards.append(cardinality)
        self.index += 1
        return value

    def next_choice_vector(self) -> Optional[List[int]]:
        """Odometer increment over the recorded choice points; ``None``
        when the space is exhausted."""
        vec = self.choices[: self.index]
        cards = self.cards[: self.index]
        for i in range(len(vec) - 1, -1, -1):
            if vec[i] + 1 < cards[i]:
                return vec[: i] + [vec[i] + 1]
        return None


UB = "ub"
RET = "ret"
TIMEOUT = "timeout"

#: (callee name, per-argument bit tuples, return bits or None)
Event = Tuple[str, Tuple[Bits, ...], Optional[Bits]]


@dataclass(frozen=True)
class Behavior:
    kind: str
    ret: Optional[Bits]
    events: Tuple[Event, ...]
    memory: Tuple[Tuple[str, Bits], ...]
    #: Event counters of the execution that produced this behavior.
    #: Excluded from equality/hashing: two paths observing the same
    #: behavior through different events are still the same behavior.
    trace: Optional[ExecTrace] = field(default=None, compare=False)

    def __post_init__(self):
        # Invariant: memory observables are sorted by region name, so
        # equality/hashing and positional comparison are independent of
        # construction order (the refinement checker additionally
        # matches regions by name; see refine.refinement).
        mem = self.memory
        if len(mem) > 1 and any(
            mem[i][0] > mem[i + 1][0] for i in range(len(mem) - 1)
        ):
            object.__setattr__(
                self, "memory", tuple(sorted(mem, key=lambda r: r[0]))
            )

    @staticmethod
    def ub(events: Tuple[Event, ...] = (),
           trace: Optional[ExecTrace] = None) -> "Behavior":
        return Behavior(UB, None, events, (), trace)

    @property
    def is_ub(self) -> bool:
        return self.kind == UB

    def __str__(self) -> str:
        if self.kind == UB:
            return "UB"
        parts = []
        if self.ret is not None:
            parts.append("ret=" + _bits_str(self.ret))
        for name, args, ret in self.events:
            s = f"call @{name}(" + ", ".join(_bits_str(a) for a in args) + ")"
            if ret is not None:
                s += " -> " + _bits_str(ret)
            parts.append(s)
        for name, bits in self.memory:
            parts.append(f"@{name}=" + _bits_str(bits))
        return "; ".join(parts) if parts else "ret void"


def _bits_str(bits: Bits) -> str:
    from .domains import PBIT, UBIT

    def one(b) -> str:
        if b is PBIT:
            return "p"
        if b is UBIT:
            return "u"
        return str(b)

    return "".join(one(b) for b in reversed(bits))


class _Return(Exception):
    def __init__(self, value: Optional[RuntimeValue]):
        self.value = value


# ---------------------------------------------------------------------------
# Plan compilation: pre-resolve operands, evaluators, and config decisions.
# ---------------------------------------------------------------------------

#: compile-time marker: the operand's value needs the running interpreter
_DYNAMIC = object()


def _static_constant(op: Value, config: SemanticsConfig):
    """The operand's runtime value when it is fully determined at
    compile time; :data:`_DYNAMIC` otherwise."""
    if isinstance(op, ConstantInt):
        return op.value
    if isinstance(op, PoisonValue):
        return poison_value(op.type)
    if isinstance(op, UndefValue):
        if not config.has_undef:
            # In NEW-mode execution an undef constant is treated as
            # poison (the migration story of Section 4).
            return poison_value(op.type)
        return undef_value(op.type)
    if isinstance(op, ConstantVector):
        elems = tuple(_static_constant(e, config) for e in op.elements)
        if any(e is _DYNAMIC for e in elems):
            return _DYNAMIC
        return elems
    return _DYNAMIC


def _contains_undef(v: RuntimeValue) -> bool:
    if type(v) is tuple:
        return any(type(x) is PartialUndef for x in v)
    return type(v) is PartialUndef


def _compile_operand(op: Value, config: SemanticsConfig):
    """A ``fetch(interp, regs) -> RuntimeValue`` closure for the raw
    (un-expanded) value of ``op``."""
    const = _static_constant(op, config)
    if const is not _DYNAMIC:
        def fetch_const(interp, regs, _v=const):
            return _v
        return fetch_const
    if isinstance(op, GlobalVariable):
        name = op.name

        def fetch_global(interp, regs):
            addr = interp.global_addrs.get(name)
            if addr is None:
                raise UBError(f"global @{name} not allocated")
            return addr
        return fetch_global
    if isinstance(op, (ConstantInt, PoisonValue, UndefValue,
                       ConstantVector)):
        def fetch_slow(interp, regs):  # pragma: no cover - exotic consts
            return interp._constant_value(op)
        return fetch_slow

    def fetch_reg(interp, regs):
        try:
            return regs[op]
        except KeyError:
            raise UBError(f"use of undefined register {op.ref()}") from None
    return fetch_reg


def _compile_use(op: Value, config: SemanticsConfig):
    """A ``use(interp, regs)`` closure: fetch plus per-use undef
    expansion (Section 3.1) when the value can carry undef bits."""
    fetch = _compile_operand(op, config)
    const = _static_constant(op, config)
    if const is not _DYNAMIC and not _contains_undef(const):
        return fetch
    if not config.has_undef:
        # NEW semantics has no undef values at all: registers can only
        # hold ints, poison, or tuples thereof — nothing to expand.
        return fetch

    def use(interp, regs):
        v = fetch(interp, regs)
        if type(v) is PartialUndef:
            return interp._expand_scalar(v)
        if type(v) is tuple:
            return tuple(interp._expand_scalar(x) for x in v)
        return v
    return use


def _lanes(ty: Type):
    if isinstance(ty, VectorType):
        return ty.count, ty.elem
    return None, ty


def _compile_binary(inst: BinaryInst, config: SemanticsConfig):
    use_a = _compile_use(inst.lhs, config)
    use_b = _compile_use(inst.rhs, config)
    count, elem = _lanes(inst.type)
    ev = binop_evaluator(inst.opcode, scalar_width(elem), config,
                         nsw=inst.nsw, nuw=inst.nuw, exact=inst.exact)
    if count is None:
        def ex(interp, regs, frame_allocas, depth):
            return ev(use_a(interp, regs), use_b(interp, regs))
        return ex

    def ex_vec(interp, regs, frame_allocas, depth):
        a = use_a(interp, regs)
        b = use_b(interp, regs)
        return tuple(ev(x, y) for x, y in zip(a, b))
    return ex_vec


def _compile_icmp(inst: IcmpInst, config: SemanticsConfig):
    use_a = _compile_use(inst.lhs, config)
    use_b = _compile_use(inst.rhs, config)
    count, elem = _lanes(inst.lhs.type)
    ev = icmp_evaluator(inst.pred, scalar_width(elem))
    if count is None:
        def ex(interp, regs, frame_allocas, depth):
            return ev(use_a(interp, regs), use_b(interp, regs))
        return ex

    def ex_vec(interp, regs, frame_allocas, depth):
        a = use_a(interp, regs)
        b = use_b(interp, regs)
        return tuple(ev(x, y) for x, y in zip(a, b))
    return ex_vec


def _compile_select(inst: SelectInst, config: SemanticsConfig):
    mode = config.select_semantics
    use_cond = _compile_use(inst.cond, config)  # expands undef conditions
    fetch_t = _compile_operand(inst.true_value, config)
    fetch_f = _compile_operand(inst.false_value, config)
    ty = inst.type

    if mode is SelectSemantics.ARITHMETIC:
        def ex_arith(interp, regs, frame_allocas, depth):
            cond = use_cond(interp, regs)
            tv = fetch_t(interp, regs)
            fv = fetch_f(interp, regs)
            if cond is POISON:
                return poison_value(ty)
            # Result is poison if *either* arm is poison, mirroring the
            # select -> or/and rewrites (Section 3.4).
            if _any_poison(tv) or _any_poison(fv):
                return poison_value(ty)
            return tv if cond else fv
        return ex_arith

    if mode is SelectSemantics.UB_COND:
        def ex_ub(interp, regs, frame_allocas, depth):
            cond = use_cond(interp, regs)
            tv = fetch_t(interp, regs)
            fv = fetch_f(interp, regs)
            if cond is POISON:
                raise UBError("select on poison condition")
            return tv if cond else fv
        return ex_ub

    if mode is SelectSemantics.NONDET_COND:
        def ex_nondet(interp, regs, frame_allocas, depth):
            cond = use_cond(interp, regs)
            tv = fetch_t(interp, regs)
            fv = fetch_f(interp, regs)
            if cond is POISON:
                cond = interp.oracle.choose(2)
            return tv if cond else fv
        return ex_nondet

    # CONDITIONAL: poison condition poisons the result.
    def ex_cond(interp, regs, frame_allocas, depth):
        cond = use_cond(interp, regs)
        tv = fetch_t(interp, regs)
        fv = fetch_f(interp, regs)
        if cond is POISON:
            return poison_value(ty)
        return tv if cond else fv
    return ex_cond


def _compile_freeze(inst: FreezeInst, config: SemanticsConfig):
    fetch = _compile_operand(inst.value, config)
    count, elem = _lanes(inst.type)
    space = 1 << scalar_width(elem)

    def one(interp, x: Scalar) -> Scalar:
        if x is POISON:
            interp.trace.freeze_resolutions += 1
            return interp.oracle.choose(space)
        if type(x) is PartialUndef:
            pick = interp.oracle.choose(1 << x.num_undef_bits())
            interp.trace.freeze_resolutions += 1
            return x.concretize(pick)
        return x

    if count is None:
        def ex(interp, regs, frame_allocas, depth):
            return one(interp, fetch(interp, regs))
        return ex

    def ex_vec(interp, regs, frame_allocas, depth):
        return tuple(one(interp, x) for x in fetch(interp, regs))
    return ex_vec


def _compile_cast(inst: CastInst, config: SemanticsConfig):
    if inst.opcode is Opcode.BITCAST:
        fetch = _compile_operand(inst.value, config)
        src_ty = inst.value.type
        dst_ty = inst.type

        def ex_bitcast(interp, regs, frame_allocas, depth):
            # pure re-interpretation: no per-use expansion
            bits = value_to_bits(fetch(interp, regs), src_ty)
            return bits_to_value(bits, dst_ty)
        return ex_bitcast

    use = _compile_use(inst.value, config)
    count, elem = _lanes(inst.type)
    ev = cast_evaluator(inst.opcode, scalar_width(inst.value.type.scalar),
                        scalar_width(elem))
    if count is None:
        def ex(interp, regs, frame_allocas, depth):
            return ev(use(interp, regs))
        return ex

    def ex_vec(interp, regs, frame_allocas, depth):
        return tuple(ev(x) for x in use(interp, regs))
    return ex_vec


def _compile_gep(inst: GepInst, config: SemanticsConfig):
    use_base = _compile_use(inst.pointer, config)
    use_index = _compile_use(inst.index, config)
    iw = scalar_width(inst.index.type)
    half = 1 << (iw - 1)
    full = 1 << iw
    elem_size = inst.elem_size_bytes
    inbounds = inst.inbounds

    def ex(interp, regs, frame_allocas, depth):
        base = use_base(interp, regs)
        index = use_index(interp, regs)
        if base is POISON or index is POISON:
            return POISON
        signed_index = index - full if index >= half else index
        offset = signed_index * elem_size
        addr = (base + offset) & 0xFFFFFFFF
        if inbounds:
            block = interp.memory.block_at(base, 1)
            if block is not None:
                # inbounds requires the result to stay within the object
                # (one-past-the-end allowed); otherwise poison.
                if not (block.addr <= base + offset
                        <= block.addr + block.size):
                    return POISON
            elif base + offset != addr or base + offset < 0:
                return POISON
        return addr
    return ex


def _compile_alloca(inst: AllocaInst, config: SemanticsConfig):
    nbytes = max(1, (inst.allocated_type.bitwidth() + 7) // 8)
    name = inst.name or "alloca"

    def ex(interp, regs, frame_allocas, depth):
        addr = interp.memory.alloc(nbytes, name=name)
        frame_allocas.append(addr)
        return addr
    return ex


def _compile_load(inst: LoadInst, config: SemanticsConfig):
    use_ptr = _compile_use(inst.pointer, config)
    nbits = inst.type.bitwidth()
    ty = inst.type

    def ex(interp, regs, frame_allocas, depth):
        addr = use_ptr(interp, regs)
        interp.trace.loads += 1
        if addr is POISON:
            raise UBError("load from poison address")
        bits = interp.memory.load_bits(addr, nbits)
        if bits is None:
            raise UBError(f"invalid load of {ty} at {addr:#x}")
        return bits_to_value(bits, ty)
    return ex


def _compile_store(inst: StoreInst, config: SemanticsConfig):
    use_ptr = _compile_use(inst.pointer, config)
    fetch_value = _compile_operand(inst.value, config)  # store does not expand
    value_ty = inst.value.type

    def ex(interp, regs, frame_allocas, depth):
        addr = use_ptr(interp, regs)
        interp.trace.stores += 1
        if addr is POISON:
            raise UBError("store to poison address")
        bits = value_to_bits(fetch_value(interp, regs), value_ty)
        if not interp.memory.store_bits(addr, bits):
            raise UBError(f"invalid store of {value_ty} at {addr:#x}")
        return None
    return ex


def _compile_extractelement(inst: ExtractElementInst,
                            config: SemanticsConfig):
    fetch_vec = _compile_operand(inst.vector, config)
    use_idx = _compile_use(inst.index, config)
    count = inst.vector.type.count

    def ex(interp, regs, frame_allocas, depth):
        vec = fetch_vec(interp, regs)
        idx = use_idx(interp, regs)
        if idx is POISON or not isinstance(idx, int) or idx >= count:
            return POISON
        return vec[idx]
    return ex


def _compile_insertelement(inst: InsertElementInst,
                           config: SemanticsConfig):
    fetch_vec = _compile_operand(inst.vector, config)
    fetch_elem = _compile_operand(inst.element, config)
    use_idx = _compile_use(inst.index, config)
    count = inst.vector.type.count
    poison_result = poison_value(inst.type)

    def ex(interp, regs, frame_allocas, depth):
        vec = fetch_vec(interp, regs)
        elem = fetch_elem(interp, regs)
        idx = use_idx(interp, regs)
        if idx is POISON or not isinstance(idx, int) or idx >= count:
            return poison_result
        out = list(vec)
        out[idx] = elem
        return tuple(out)
    return ex


def _compile_call(inst: CallInst, config: SemanticsConfig):
    arg_fetchers = [_compile_operand(a, config) for a in inst.args]
    callee = inst.callee

    def ex(interp, regs, frame_allocas, depth):
        args = [fetch(interp, regs) for fetch in arg_fetchers]
        return interp._call_function(callee, args, depth + 1)
    return ex


_COMPILERS = {
    BinaryInst: _compile_binary,
    IcmpInst: _compile_icmp,
    SelectInst: _compile_select,
    FreezeInst: _compile_freeze,
    CastInst: _compile_cast,
    GepInst: _compile_gep,
    AllocaInst: _compile_alloca,
    LoadInst: _compile_load,
    StoreInst: _compile_store,
    ExtractElementInst: _compile_extractelement,
    InsertElementInst: _compile_insertelement,
    CallInst: _compile_call,
}


def _compile_instruction(inst: Instruction, config: SemanticsConfig):
    compiler = _COMPILERS.get(type(inst))
    if compiler is None:
        # Defer the failure to execution time, matching the historical
        # interpreter (an unsupported instruction on a dead path never
        # fired).
        msg = f"interpret {inst.opcode}"

        def ex_unsupported(interp, regs, frame_allocas, depth):
            raise NotImplementedError(msg)
        return ex_unsupported
    return compiler(inst, config)


def _compile_terminator(inst: Instruction, config: SemanticsConfig):
    """A ``term(interp, regs) -> BasicBlock`` closure (raises
    :class:`_Return` to leave the function)."""
    if isinstance(inst, ReturnInst):
        if inst.value is None:
            def term_void(interp, regs):
                raise _Return(None)
            return term_void
        fetch = _compile_operand(inst.value, config)

        def term_ret(interp, regs):
            raise _Return(fetch(interp, regs))
        return term_ret

    if isinstance(inst, BranchInst):
        if not inst.is_conditional:
            target = inst.targets[0]

            def term_jump(interp, regs):
                return target
            return term_jump
        use_cond = _compile_use(inst.cond, config)
        tb, fb = inst.true_block, inst.false_block
        poison_is_ub = config.branch_on_poison is BranchOnPoison.UB

        def term_br(interp, regs):
            cond = use_cond(interp, regs)
            if cond is POISON:
                if poison_is_ub:
                    raise UBError("branch on poison")
                cond = interp.oracle.choose(2)
            return tb if cond else fb
        return term_br

    if isinstance(inst, SwitchInst):
        use_value = _compile_use(inst.value, config)
        cases = tuple((const.value, block) for const, block in inst.cases)
        default = inst.default
        succs = tuple(inst.successors())
        poison_is_ub = config.branch_on_poison is BranchOnPoison.UB

        def term_switch(interp, regs):
            value = use_value(interp, regs)
            if value is POISON:
                if poison_is_ub:
                    raise UBError("switch on poison")
                return succs[interp.oracle.choose(len(succs))]
            for case_value, block in cases:
                if case_value == value:
                    return block
            return default
        return term_switch

    if isinstance(inst, UnreachableInst):
        def term_unreachable(interp, regs):
            raise UBError("reached unreachable")
        return term_unreachable

    msg = f"terminator {inst.opcode}"

    def term_unsupported(interp, regs):
        raise NotImplementedError(msg)
    return term_unsupported


class _BlockPlan:
    """One basic block, compiled."""

    __slots__ = ("block", "phis", "steps", "terminate")

    def __init__(self, block: BasicBlock, config: SemanticsConfig):
        self.block = block
        phis = block.phis()
        self.phis = [
            (phi, {pred: _compile_operand(value, config)
                   for value, pred in phi.incoming})
            for phi in phis
        ]
        #: (instruction, exec closure, has a register result)
        self.steps: List[tuple] = []
        self.terminate = None
        for inst in block.instructions[len(phis):]:
            if inst.is_terminator:
                self.terminate = _compile_terminator(inst, config)
                break
            self.steps.append((inst, _compile_instruction(inst, config),
                               not inst.type.is_void))


class ExecPlan:
    """A function compiled for one semantics configuration."""

    __slots__ = ("fn", "config", "blocks")

    def __init__(self, fn: Function, config: SemanticsConfig):
        self.fn = fn
        self.config = config
        self.blocks: Dict[BasicBlock, _BlockPlan] = {
            block: _BlockPlan(block, config) for block in fn.blocks
        }
        NUM_PLANS_COMPILED.inc()


class PlanCache:
    """Execution plans keyed by function, for one config.

    A cache is valid only while the functions it compiled are not
    mutated.  The refinement checker builds one per function under
    check (after the pipeline under test has run) and reuses it across
    every input and oracle path of the check.
    """

    __slots__ = ("config", "_plans")

    def __init__(self, config: SemanticsConfig):
        self.config = config
        self._plans: Dict[Function, ExecPlan] = {}

    def plan_for(self, fn: Function) -> ExecPlan:
        plan = self._plans.get(fn)
        if plan is None:
            # a phase, not a span: plans compile twice per checked
            # function, and a full record each was 40% of all span
            # traffic (the E12 overhead gate)
            with phase("plan-compile"):
                plan = ExecPlan(fn, self.config)
            self._plans[fn] = plan
        return plan


class Interpreter:
    """Executes one function on one oracle path."""

    def __init__(self, config: SemanticsConfig, oracle: Oracle,
                 fuel: int = 10_000, max_call_depth: int = 16,
                 ext_ret_choices: bool = True,
                 plans: Optional[PlanCache] = None):
        self.config = config
        self.oracle = oracle
        self.fuel = fuel
        self.max_call_depth = max_call_depth
        self.ext_ret_choices = ext_ret_choices
        if plans is not None and plans.config != config:
            raise ValueError("plan cache was compiled for another config")
        self.plans = plans if plans is not None else PlanCache(config)
        self.memory: Optional[Memory] = None
        self.global_addrs: Dict[str, int] = {}
        self.events: List[Event] = []
        self.steps = 0
        self.trace = ExecTrace()
        #: where execution currently is (FuelExhausted reporting)
        self.current_function: Optional[Function] = None
        self.current_block: Optional[BasicBlock] = None

    # -- setup ------------------------------------------------------------
    def setup_memory(self, fn: Function,
                     global_init: Optional[Dict[str, Bits]] = None) -> None:
        self.memory = Memory(uninit_bit_for(self.config.uninit_is_undef))
        module = fn.module
        if module is None:
            return
        for name, g in sorted(module.globals.items()):
            nbytes = max(1, (g.value_type.bitwidth() + 7) // 8)
            addr = self.memory.alloc(nbytes, name=name)
            self.global_addrs[name] = addr
            init_bits: Optional[Bits] = None
            if global_init and name in global_init:
                init_bits = global_init[name]
            elif g.initializer is not None:
                rv = self._constant_value(g.initializer)
                init_bits = value_to_bits(rv, g.value_type)
            if init_bits is not None:
                self.memory.store_bits(addr, init_bits)

    # -- main entry ----------------------------------------------------------
    def run(self, fn: Function, args: Sequence[RuntimeValue],
            global_init: Optional[Dict[str, Bits]] = None) -> Behavior:
        if self.memory is None:
            self.setup_memory(fn, global_init)
        try:
            ret = self._call_function(fn, list(args), depth=0)
        except UBError as e:
            self.trace.steps = self.steps
            self.trace.ub_triggers += 1
            self.trace.ub_reason = e.reason
            NUM_UB_EXECUTIONS.inc()
            return Behavior.ub(tuple(self.events), trace=self.trace)
        except FuelExhausted:
            self.trace.steps = self.steps
            self.trace.fuel_exhausted += 1
            NUM_FUEL_EXHAUSTED.inc()
            return Behavior(TIMEOUT, None, tuple(self.events), (),
                            self.trace)
        self.trace.steps = self.steps
        ret_bits: Optional[Bits] = None
        if ret is not None and not fn.return_type.is_void:
            ret_bits = value_to_bits(ret, fn.return_type)
        mem_obs = []
        for name in sorted(self.global_addrs):
            snap = self.memory.snapshot_block(self.global_addrs[name])
            if snap is not None:
                mem_obs.append((name, snap))
        return Behavior(RET, ret_bits, tuple(self.events), tuple(mem_obs),
                        self.trace)

    # -- function call machinery ------------------------------------------------
    def _call_function(self, fn: Function, args: List[RuntimeValue],
                       depth: int) -> Optional[RuntimeValue]:
        if depth > self.max_call_depth:
            raise FuelExhausted(
                f"call depth {depth} exceeded entering @{fn.name} "
                f"after {self.steps} steps"
            )
        if fn.is_declaration:
            return self._external_call(fn, args)

        plan = self.plans.plan_for(fn)
        regs: Dict[Value, RuntimeValue] = {}
        for arg, value in zip(fn.args, args):
            regs[arg] = value
        frame_allocas: List[int] = []

        blocks = plan.blocks
        bplan = blocks[fn.entry]
        prev_block: Optional[BasicBlock] = None
        try:
            while True:
                next_block, prev_block = self._run_block(
                    fn, bplan, prev_block, regs, frame_allocas, depth
                )
                bplan = blocks[next_block]
        except _Return as r:
            return r.value
        finally:
            for addr in frame_allocas:
                self.memory.free_block(addr)

    def _external_call(self, fn: Function,
                       args: List[RuntimeValue]) -> Optional[RuntimeValue]:
        arg_bits = tuple(
            value_to_bits(v, a.type) for v, a in zip(args, fn.args)
        )
        ret_ty = fn.return_type
        ret_val: Optional[RuntimeValue] = None
        ret_bits: Optional[Bits] = None
        if not ret_ty.is_void:
            width = ret_ty.bitwidth()
            if self.ext_ret_choices and width <= 4:
                chosen = self.oracle.choose(1 << width)
            else:
                chosen = 0
            ret_val = bits_to_value(
                tuple((chosen >> i) & 1 for i in range(width)), ret_ty
            )
            ret_bits = value_to_bits(ret_val, ret_ty)
        self.events.append((fn.name, arg_bits, ret_bits))
        self.trace.external_calls += 1
        return ret_val

    # -- block execution ------------------------------------------------------
    def _run_block(self, fn: Function, bplan: _BlockPlan,
                   prev_block: Optional[BasicBlock],
                   regs: Dict[Value, RuntimeValue],
                   frame_allocas: List[int], depth: int):
        block = bplan.block
        self.current_function = fn
        self.current_block = block
        # Phi nodes read their inputs simultaneously.
        if bplan.phis:
            if prev_block is None:
                raise UBError("phi in entry block")
            staged = []
            for phi, incoming in bplan.phis:
                fetch = incoming.get(prev_block)
                if fetch is None:
                    raise UBError(
                        f"phi {phi.ref()} has no incoming from "
                        f"%{prev_block.name}"
                    )
                staged.append((phi, fetch(self, regs)))
            for phi, v in staged:
                regs[phi] = v

        fuel = self.fuel
        for inst, execute, has_result in bplan.steps:
            self.steps += 1
            if self.steps > fuel:
                raise FuelExhausted(
                    f"fuel exhausted after {self.steps} steps "
                    f"in @{fn.name}:%{block.name}"
                )
            result = execute(self, regs, frame_allocas, depth)
            if has_result:
                if result is POISON or (
                    type(result) is tuple
                    and any(x is POISON for x in result)
                ):
                    self.trace.poison_created += 1
                regs[inst] = result

        if bplan.terminate is None:
            raise UBError(f"block %{block.name} fell off the end")
        self.steps += 1
        if self.steps > fuel:
            raise FuelExhausted(
                f"fuel exhausted after {self.steps} steps "
                f"in @{fn.name}:%{block.name}"
            )
        return bplan.terminate(self, regs), block

    # -- operand evaluation ------------------------------------------------------
    def _constant_value(self, c) -> RuntimeValue:
        if isinstance(c, ConstantInt):
            return c.value
        if isinstance(c, PoisonValue):
            return poison_value(c.type)
        if isinstance(c, UndefValue):
            if not self.config.has_undef:
                # In NEW-mode execution an undef constant is treated as
                # poison (the migration story of Section 4).
                return poison_value(c.type)
            return undef_value(c.type)
        if isinstance(c, ConstantVector):
            return tuple(self._constant_value(e) for e in c.elements)
        if isinstance(c, GlobalVariable):
            addr = self.global_addrs.get(c.name)
            if addr is None:
                raise UBError(f"global @{c.name} not allocated")
            return addr
        raise NotImplementedError(f"constant {c!r}")

    def _expand_scalar(self, v: Scalar) -> Scalar:
        """Per-use expansion of undef bits (Section 3.1): a computational
        use observes *some* concrete assignment of the undef bits, chosen
        independently at every use."""
        if isinstance(v, PartialUndef):
            k = v.num_undef_bits()
            pick = self.oracle.choose(1 << k)
            self.trace.undef_expansions += 1
            return v.concretize(pick)
        return v


def _any_poison(v: RuntimeValue) -> bool:
    if isinstance(v, tuple):
        return any(x is POISON for x in v)
    return v is POISON


def run_once(fn: Function, args: Sequence[RuntimeValue],
             config: SemanticsConfig = NEW,
             choices: Optional[List[int]] = None,
             global_init: Optional[Dict[str, Bits]] = None,
             fuel: int = 10_000,
             plans: Optional[PlanCache] = None) -> Behavior:
    """Execute one oracle path (default choices = all zeros)."""
    oracle = Oracle(choices)
    interp = Interpreter(config, oracle, fuel=fuel, plans=plans)
    return interp.run(fn, args, global_init=global_init)


def enumerate_behaviors(fn: Function, args: Sequence[RuntimeValue],
                        config: SemanticsConfig = NEW,
                        global_init: Optional[Dict[str, Bits]] = None,
                        max_paths: int = 4096,
                        max_choices: int = 24,
                        fuel: int = 10_000,
                        plans: Optional[PlanCache] = None,
                        stop_on_ub: bool = False) -> frozenset:
    """The full set of observable behaviors on the given input.

    ``plans`` shares compiled execution plans across calls (the
    refinement checker passes one per function so compilation happens
    once per check, not once per input).  ``stop_on_ub=True`` stops the
    enumeration as soon as one UB behavior is found — the returned set
    is then a *subset* of the behaviors that is sufficient for callers
    who only need to know that UB is reachable (UB licenses every
    refinement, so the source side of a check never needs more).
    """
    if plans is None or plans.config != config:
        plans = PlanCache(config)
    behaviors = set()
    choices: Optional[List[int]] = []
    paths = 0
    while choices is not None:
        paths += 1
        if paths > max_paths:
            raise PathLimitExceeded(
                f"more than {max_paths} paths for @{fn.name}"
            )
        oracle = Oracle(choices, max_choices=max_choices)
        interp = Interpreter(config, oracle, fuel=fuel, plans=plans)
        behavior = interp.run(fn, args, global_init=global_init)
        behaviors.add(behavior)
        if stop_on_ub and behavior.kind == UB:
            break
        choices = oracle.next_choice_vector()
    return frozenset(behaviors)
