"""Semantics-aware IR mutators for adversarial checker validation.

Two families, after the DESIL framing (PAPERS.md):

* **UB-injecting** mutators make poison *more* reachable: set nsw/nuw/
  exact flags, force a shift amount out of range, replace operands with
  ``poison``/``undef`` literals, and route values into UB sinks
  (branches, division divisors, external calls) so a sound rule must
  speak up.
* **UB-removing** mutators make poison *less* observable: insert
  ``freeze``, drop flags, guard a branch condition behind a freeze —
  so a precise rule must stay quiet (or, for redundant-freeze, fire
  with a correct claim).

Every mutator is a pure function ``Function -> List[Mutation]`` that
never touches its input: each mutation clones the seed into a fresh
module and perturbs the copy, and carries the full mutant module text
so the campaign worker can rebuild it anywhere.  Which rules score
against which mutants is declared on the *rules*
(``LintRule.attacked_by``); ``rules_attacked_by`` is the join.

Mutators only target the corpus shape the opt-fuzz enumerator emits: a
single ``entry`` block ending in ``ret iW %v``.  Seeds outside that
shape yield no mutations rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    EXACT_OPCODES,
    OVERFLOW_OPCODES,
    BinaryInst,
    BranchInst,
    CallInst,
    FreezeInst,
    IcmpInst,
    IcmpPred,
    Opcode,
    ReturnInst,
)
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_function, print_instruction, print_module
from ..ir.types import FunctionType, VoidType
from ..ir.values import ConstantInt, PoisonValue, UndefValue
from ..opt.resilience.snapshot import clone_function

KIND_UB_INJECT = "ub-inject"
KIND_UB_REMOVE = "ub-remove"

#: name of the opaque external sink the route-call mutator declares
SINK_NAME = "__attack_sink"

_SHIFTS = (Opcode.SHL, Opcode.LSHR, Opcode.ASHR)


@dataclass(frozen=True)
class Mutation:
    """One mutant: the perturbed function plus provenance."""

    mutator: str     # producing mutator's name
    kind: str        # KIND_UB_INJECT | KIND_UB_REMOVE
    seed: str        # seed function name
    site: str        # textual anchor of the perturbed site
    detail: str      # human description of the perturbation
    ir: str          # full module text of the mutant

    def as_dict(self) -> Dict:
        return {
            "mutator": self.mutator,
            "kind": self.kind,
            "seed": self.seed,
            "site": self.site,
            "detail": self.detail,
            "ir": self.ir,
        }


@dataclass(frozen=True)
class Mutator:
    """A registered mutator: stable name, family, apply function."""

    name: str
    kind: str
    description: str
    apply: Callable[[Function], List[Mutation]]


#: name -> Mutator, in registration order (drives --list-mutators and
#: the deterministic per-seed mutation order).
MUTATORS: Dict[str, Mutator] = {}


def _register(name: str, kind: str, description: str):
    def deco(fn):
        MUTATORS[name] = Mutator(name, kind, description, fn)
        return fn
    return deco


def all_mutator_names() -> List[str]:
    return list(MUTATORS)


def rules_attacked_by(mutator_name: str) -> List[str]:
    """Rule IDs that declare this mutator as one of their attackers."""
    from ..lint.rules import RULES

    return [rule_id for rule_id, rule in RULES.items()
            if mutator_name in rule.attacked_by]


def mutate_function(fn: Function, mutators=None) -> List[Mutation]:
    """Apply every (selected) mutator to one seed, in registration
    order; the result order is deterministic for a given seed."""
    selected = list(mutators) if mutators else list(MUTATORS)
    out: List[Mutation] = []
    for name in selected:
        if name not in MUTATORS:
            raise ValueError(f"unknown mutator {name!r}")
        out.extend(MUTATORS[name].apply(fn))
    return out


# ---------------------------------------------------------------------------
# shared helpers


def _copy(fn: Function) -> Function:
    """The seed, cloned alone into a fresh module (opt-fuzz seeds call
    nothing and read no globals, so the clone needs nothing else)."""
    return Module().add_function(clone_function(fn))


def _entry_ret(fn: Function):
    """(entry block, valued int return) for the opt-fuzz seed shape, or
    (None, None) when the seed does not match."""
    if len(fn.blocks) != 1:
        return None, None
    block = fn.blocks[0]
    term = block.terminator
    if not isinstance(term, ReturnInst) or term.value is None:
        return None, None
    if not term.value.type.is_int or term.value.type.is_vector:
        return None, None
    return block, term


def _module_text(module) -> str:
    """Like print_module, but declarations first: mutators declare
    callees after the define exists, and the parser needs them up
    front."""
    parts = []
    for g in module.globals.values():
        init = f" {g.initializer.ref()}" if g.initializer is not None else ""
        parts.append(f"@{g.name} = global {g.value_type}{init}")
    fns = list(module.functions.values())
    parts += [print_function(f) for f in fns if f.is_declaration]
    parts += [print_function(f) for f in fns if not f.is_declaration]
    return "\n\n".join(parts) + "\n"


def _mutation(name: str, kind: str, fn: Function, copy: Function,
              site: str, detail: str) -> Mutation:
    return Mutation(mutator=name, kind=kind, seed=fn.name, site=site,
                    detail=detail, ir=_module_text(copy.module))


def _inst_at(fn: Function, index: int) -> BinaryInst:
    return fn.blocks[0].instructions[index]


def _route_to_branch(copy: Function, watch, freeze: bool) -> None:
    """Replace the entry return with ``icmp ne watch, 0`` feeding a
    conditional branch into two fresh return blocks (optionally through
    a freeze) — the smallest CFG that makes ``watch``'s poison reach a
    branch terminator."""
    block = copy.blocks[0]
    ret = block.terminator
    val = ret.value
    ty = watch.type
    block.remove(ret)
    cmp_ = IcmpInst(IcmpPred.NE, watch, ConstantInt(ty, 0), "atk.c")
    block.append(cmp_)
    cond = cmp_
    if freeze:
        fz = FreezeInst(cmp_, "atk.fc")
        block.append(fz)
        cond = fz
    taken = BasicBlock("atk.t", parent=copy)
    taken.append(ReturnInst(val))
    other = BasicBlock("atk.f", parent=copy)
    other.append(ReturnInst(ConstantInt(val.type, 0)))
    block.append(BranchInst(cond=cond, true_block=taken,
                            false_block=other))


def _append_divisor_sink(copy: Function, value) -> None:
    """Insert ``udiv 1, value`` before the return: poison in ``value``
    becomes an immediate-UB divisor."""
    block = copy.blocks[0]
    ret = block.terminator
    div = BinaryInst(Opcode.UDIV, ConstantInt(value.type, 1), value,
                     "atk.d")
    block.insert_before(ret, div)


# ---------------------------------------------------------------------------
# UB-injecting mutators


@_register(
    "add-nsw", KIND_UB_INJECT,
    "Set nsw on a flagless add/sub/mul/shl: overflow now generates "
    "poison the seed did not have.")
def _mut_add_nsw(fn: Function) -> List[Mutation]:
    return _set_flag(fn, "add-nsw", "nsw")


@_register(
    "add-nuw", KIND_UB_INJECT,
    "Set nuw on a flagless add/sub/mul/shl: unsigned wrap now "
    "generates poison the seed did not have.")
def _mut_add_nuw(fn: Function) -> List[Mutation]:
    return _set_flag(fn, "add-nuw", "nuw")


def _set_flag(fn: Function, name: str, flag: str) -> List[Mutation]:
    block, _ = _entry_ret(fn)
    if block is None:
        return []
    out: List[Mutation] = []
    for i, inst in enumerate(block.instructions):
        if not isinstance(inst, BinaryInst):
            continue
        if inst.opcode not in OVERFLOW_OPCODES:
            continue
        if inst.nsw or inst.nuw or inst.exact:
            continue
        copy = _copy(fn)
        target = _inst_at(copy, i)
        setattr(target, flag, True)
        out.append(_mutation(
            name, KIND_UB_INJECT, fn, copy, site=target.ref(),
            detail=f"set {flag} on {print_instruction(target)}"))
    return out


@_register(
    "add-exact", KIND_UB_INJECT,
    "Set exact on a division/shift-right: a remainder or shifted-out "
    "bit now generates poison the seed did not have.")
def _mut_add_exact(fn: Function) -> List[Mutation]:
    block, _ = _entry_ret(fn)
    if block is None:
        return []
    out: List[Mutation] = []
    for i, inst in enumerate(block.instructions):
        if not isinstance(inst, BinaryInst):
            continue
        if inst.opcode not in EXACT_OPCODES or inst.exact:
            continue
        copy = _copy(fn)
        target = _inst_at(copy, i)
        target.exact = True
        out.append(_mutation(
            "add-exact", KIND_UB_INJECT, fn, copy, site=target.ref(),
            detail=f"set exact on {print_instruction(target)}"))
    return out


@_register(
    "narrow-shift", KIND_UB_INJECT,
    "Force a shift amount to the full bitwidth (always out of range, "
    "always poison) and route the result into a conditional branch.")
def _mut_narrow_shift(fn: Function) -> List[Mutation]:
    block, _ = _entry_ret(fn)
    if block is None:
        return []
    out: List[Mutation] = []
    for i, inst in enumerate(block.instructions):
        if not (isinstance(inst, BinaryInst) and inst.opcode in _SHIFTS):
            continue
        copy = _copy(fn)
        target = _inst_at(copy, i)
        width = target.type.bitwidth()
        target.set_operand(1, ConstantInt(target.type, width))
        _route_to_branch(copy, target, freeze=False)
        out.append(_mutation(
            "narrow-shift", KIND_UB_INJECT, fn, copy, site=target.ref(),
            detail=(f"shift amount forced to {width} (out of range) on "
                    f"{print_instruction(target)}; result branches")))
    return out


@_register(
    "poison-operand", KIND_UB_INJECT,
    "Replace a binary operand with the poison literal and feed the "
    "result to a division divisor.")
def _mut_poison_operand(fn: Function) -> List[Mutation]:
    return _literal_operand(fn, "poison-operand", PoisonValue)


@_register(
    "undef-operand", KIND_UB_INJECT,
    "Replace a binary operand with the undef literal and feed the "
    "result to a division divisor.")
def _mut_undef_operand(fn: Function) -> List[Mutation]:
    return _literal_operand(fn, "undef-operand", UndefValue)


def _literal_operand(fn: Function, name: str, ctor) -> List[Mutation]:
    block, _ = _entry_ret(fn)
    if block is None:
        return []
    out: List[Mutation] = []
    for i, inst in enumerate(block.instructions):
        if not isinstance(inst, BinaryInst):
            continue
        if not inst.type.is_int or inst.type.is_vector:
            continue
        copy = _copy(fn)
        target = _inst_at(copy, i)
        literal = ctor(target.operand(0).type)
        target.set_operand(0, literal)
        _append_divisor_sink(copy, target)
        out.append(_mutation(
            name, KIND_UB_INJECT, fn, copy, site=target.ref(),
            detail=(f"lhs of {print_instruction(target)} replaced with "
                    f"{literal.ref()}; result feeds a divisor")))
    return out


@_register(
    "route-branch", KIND_UB_INJECT,
    "Route the returned value into a conditional branch: any poison in "
    "it now reaches a branch-on-poison UB site.")
def _mut_route_branch(fn: Function) -> List[Mutation]:
    block, ret = _entry_ret(fn)
    if block is None:
        return []
    copy = _copy(fn)
    _route_to_branch(copy, copy.blocks[0].terminator.value, freeze=False)
    return [_mutation(
        "route-branch", KIND_UB_INJECT, fn, copy, site=ret.value.ref(),
        detail=f"returned value {ret.value.ref()} routed to a branch")]


@_register(
    "route-divisor", KIND_UB_INJECT,
    "Feed the returned value to a division divisor: any poison in it "
    "now reaches an immediate-UB sink.")
def _mut_route_divisor(fn: Function) -> List[Mutation]:
    block, ret = _entry_ret(fn)
    if block is None:
        return []
    copy = _copy(fn)
    _append_divisor_sink(copy, copy.blocks[0].terminator.value)
    return [_mutation(
        "route-divisor", KIND_UB_INJECT, fn, copy, site=ret.value.ref(),
        detail=f"returned value {ret.value.ref()} feeds a udiv divisor")]


@_register(
    "route-call", KIND_UB_INJECT,
    "Hand the returned value to an opaque external call: poison "
    "escaping to unknown code.")
def _mut_route_call(fn: Function) -> List[Mutation]:
    block, ret = _entry_ret(fn)
    if block is None:
        return []
    copy = _copy(fn)
    cblock = copy.blocks[0]
    cret = cblock.terminator
    val = cret.value
    callee = copy.module.declare(
        SINK_NAME, FunctionType(VoidType(), (val.type,)))
    cblock.insert_before(cret, CallInst(callee, [val]))
    return [_mutation(
        "route-call", KIND_UB_INJECT, fn, copy, site=ret.value.ref(),
        detail=(f"returned value {ret.value.ref()} passed to "
                f"@{SINK_NAME}"))]


@_register(
    "hoist-dispatch", KIND_UB_INJECT,
    "Wrap the seed in the unswitched-loop dispatch shape: the returned "
    "value selects (unfrozen) between two loop copies — the paper's "
    "Section 4 loop-unswitching hazard.")
def _mut_hoist_dispatch(fn: Function) -> List[Mutation]:
    return _dispatch(fn, "hoist-dispatch", KIND_UB_INJECT, freeze=False)


# ---------------------------------------------------------------------------
# UB-removing mutators


@_register(
    "drop-flags", KIND_UB_REMOVE,
    "Drop all poison flags from a flagged instruction and feed its "
    "result to a divisor: the sink is now poison-free from that "
    "producer.")
def _mut_drop_flags(fn: Function) -> List[Mutation]:
    block, _ = _entry_ret(fn)
    if block is None:
        return []
    out: List[Mutation] = []
    for i, inst in enumerate(block.instructions):
        if not isinstance(inst, BinaryInst):
            continue
        if not (inst.nsw or inst.nuw or inst.exact):
            continue
        copy = _copy(fn)
        target = _inst_at(copy, i)
        flags = target.flags_str().strip()
        target.drop_poison_flags()
        _append_divisor_sink(copy, target)
        out.append(_mutation(
            "drop-flags", KIND_UB_REMOVE, fn, copy, site=target.ref(),
            detail=(f"dropped '{flags}' from {print_instruction(target)}; "
                    f"result feeds a divisor")))
    return out


@_register(
    "insert-freeze", KIND_UB_REMOVE,
    "Freeze the returned value and feed the frozen result to a "
    "divisor: the sink is provably poison-free, so ub-sink must stay "
    "silent and redundant-freeze may only fire when the operand is "
    "provably clean.")
def _mut_insert_freeze(fn: Function) -> List[Mutation]:
    block, ret = _entry_ret(fn)
    if block is None:
        return []
    copy = _copy(fn)
    cblock = copy.blocks[0]
    cret = cblock.terminator
    val = cret.value
    fz = FreezeInst(val, "atk.fz")
    cblock.insert_before(cret, fz)
    _append_divisor_sink(copy, fz)
    cret.set_operand(0, fz)
    return [_mutation(
        "insert-freeze", KIND_UB_REMOVE, fn, copy, site=ret.value.ref(),
        detail=(f"returned value {ret.value.ref()} frozen; frozen "
                f"result feeds a divisor and the return"))]


@_register(
    "guard-branch", KIND_UB_REMOVE,
    "Route the returned value into a conditional branch *through a "
    "freeze*: the branch is UB-free and branch-on-maybe-poison must "
    "stay silent.")
def _mut_guard_branch(fn: Function) -> List[Mutation]:
    block, ret = _entry_ret(fn)
    if block is None:
        return []
    copy = _copy(fn)
    _route_to_branch(copy, copy.blocks[0].terminator.value, freeze=True)
    return [_mutation(
        "guard-branch", KIND_UB_REMOVE, fn, copy, site=ret.value.ref(),
        detail=(f"returned value {ret.value.ref()} branches through a "
                f"freeze guard"))]


@_register(
    "freeze-dispatch", KIND_UB_REMOVE,
    "The unswitched-loop dispatch shape with the condition correctly "
    "frozen (the paper's fix): missing-freeze-on-hoist must stay "
    "silent.")
def _mut_freeze_dispatch(fn: Function) -> List[Mutation]:
    return _dispatch(fn, "freeze-dispatch", KIND_UB_REMOVE, freeze=True)


@_register(
    "discard-result", KIND_UB_REMOVE,
    "Replace the returned value with a constant: flags on "
    "now-unobserved instructions become dead and dead-on-poison-flag "
    "must fire.")
def _mut_discard_result(fn: Function) -> List[Mutation]:
    block, ret = _entry_ret(fn)
    if block is None:
        return []
    if not any(isinstance(i, BinaryInst) and (i.nsw or i.nuw or i.exact)
               for i in block.instructions):
        return []
    copy = _copy(fn)
    cret = copy.blocks[0].terminator
    cret.set_operand(0, ConstantInt(cret.value.type, 0))
    return [_mutation(
        "discard-result", KIND_UB_REMOVE, fn, copy,
        site=ret.value.ref(),
        detail=(f"returned value {ret.value.ref()} replaced with 0; "
                f"poison flags upstream become unobservable"))]


# ---------------------------------------------------------------------------
# dispatch template (shared by hoist-dispatch / freeze-dispatch)


def _dispatch(fn: Function, name: str, kind: str,
              freeze: bool) -> List[Mutation]:
    """Build the unswitched-dispatch mutant as text: the seed body, then
    a branch on (optionally frozen) ``icmp ne ret, 0`` selecting between
    two single-block loops that each run one iteration and return."""
    block, ret = _entry_ret(fn)
    if block is None:
        return []
    val = ret.value
    ty = str(val.type)
    vref = val.ref()
    args = ", ".join(f"{a.type} {a.ref()}" for a in fn.args)
    body = [f"  {print_instruction(i)}"
            for i in block.instructions if i is not ret]
    cond = "%atk.fc" if freeze else "%atk.c"
    lines = [f"define {ty} @{fn.name}({args}) {{", "entry:"]
    lines += body
    lines.append(f"  %atk.c = icmp ne {ty} {vref}, 0")
    if freeze:
        lines.append("  %atk.fc = freeze i1 %atk.c")
    lines.append(f"  br i1 {cond}, label %atk.l1, label %atk.l2")
    for n, result in (("1", vref), ("2", "0")):
        lines += [
            f"atk.l{n}:",
            (f"  %atk.p{n} = phi {ty} [ 1, %entry ], "
             f"[ %atk.n{n}, %atk.l{n} ]"),
            f"  %atk.n{n} = sub {ty} %atk.p{n}, 1",
            f"  %atk.c{n} = icmp ne {ty} %atk.n{n}, 0",
            f"  br i1 %atk.c{n}, label %atk.l{n}, label %atk.x{n}",
            f"atk.x{n}:",
            f"  ret {ty} {result}",
        ]
    lines.append("}")
    text = "\n".join(lines) + "\n"
    try:  # a template bug must surface as "no mutant", not a crash
        module = parse_module(text)
    except Exception:
        return []
    copy = module.get_function(fn.name)
    return [_mutation(
        name, kind, fn, copy, site=ret.value.ref(),
        detail=(f"seed wrapped in {'frozen ' if freeze else ''}"
                f"loop-dispatch on {ret.value.ref()}"))]
