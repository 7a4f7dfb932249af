"""Poison dataflow fixpoint: lattice, transfer functions, refinement,
and the differential soundness property against the interpreter."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import DominatorTree
from repro.analysis.poison_flow import (
    BOTTOM,
    FACT_BOTTOM,
    FACT_MUST_NOT,
    MAY_POISON,
    MUST_NOT_POISON,
    MUST_POISON,
    ORIGIN_EXTERNAL,
    ORIGIN_GENERATED,
    ORIGIN_LITERAL,
    PoisonFact,
    analyze_poison_flow,
    join_facts,
    taint_sources,
)
from repro.analysis.value_tracking import is_guaranteed_not_poison
from repro.campaign.lint_audit import audit_function
from repro.fuzz.optfuzz import enumeration_size, function_at_index
from repro.ir import Opcode, parse_function
from repro.semantics import NEW, OLD


def _facts(fn, semantics=NEW):
    flow = analyze_poison_flow(fn, semantics)
    named = {}
    for block in fn.blocks:
        for inst in block.instructions:
            if not inst.type.is_void:
                named[inst.ref()] = flow.fact_of(inst)
    return flow, named


# ---------------------------------------------------------------------------
# lattice


def _fact(state, *origins):
    return PoisonFact(state, frozenset(origins))


LATTICE_POINTS = [
    FACT_BOTTOM,
    FACT_MUST_NOT,
    _fact(MAY_POISON, (ORIGIN_EXTERNAL, "argument %x")),
    _fact(MAY_POISON, (ORIGIN_GENERATED, "%a (add nsw)")),
    _fact(MUST_POISON, (ORIGIN_LITERAL, "poison literal")),
]


@pytest.mark.parametrize("a", LATTICE_POINTS)
def test_join_identity_and_idempotence(a):
    assert join_facts(a, FACT_BOTTOM) == a
    assert join_facts(FACT_BOTTOM, a) == a
    assert join_facts(a, a) == a


@pytest.mark.parametrize("a", LATTICE_POINTS)
@pytest.mark.parametrize("b", LATTICE_POINTS)
def test_join_commutes(a, b):
    assert join_facts(a, b) == join_facts(b, a)


def test_join_of_distinct_states_is_may():
    must = _fact(MUST_POISON, (ORIGIN_LITERAL, "poison literal"))
    joined = join_facts(FACT_MUST_NOT, must)
    assert joined.state == MAY_POISON
    assert joined.origins == must.origins  # origins survive the join


# ---------------------------------------------------------------------------
# transfer functions


def test_flag_ops_generate_poison():
    fn = parse_function("""
define i8 @f(i8 %x) {
entry:
  %a = add nsw i8 %x, 1
  %b = add i8 %x, 1
  ret i8 %a
}""")
    _, facts = _facts(fn)
    assert facts["%a"].state == MAY_POISON
    assert facts["%a"].has_generated_origin
    assert facts["%b"].state == MAY_POISON  # argument may be poison...
    assert not facts["%b"].has_generated_origin  # ...but %b adds nothing


def test_constants_and_literals():
    fn = parse_function("""
define i8 @f() {
entry:
  %a = add i8 1, 2
  %p = add i8 poison, 1
  ret i8 %a
}""")
    _, facts = _facts(fn)
    assert facts["%a"].state == MUST_NOT_POISON
    assert facts["%p"].state == MUST_POISON


def test_freeze_blocks_poison():
    fn = parse_function("""
define i8 @f(i8 %x) {
entry:
  %a = add nsw i8 %x, 1
  %f = freeze i8 %a
  %r = add i8 %f, 1
  ret i8 %r
}""")
    _, facts = _facts(fn)
    assert facts["%f"].state == MUST_NOT_POISON
    assert facts["%r"].state == MUST_NOT_POISON


def test_shift_amount_in_range_by_constant():
    fn = parse_function("""
define i8 @f(i8 %x) {
entry:
  %ok = shl i8 1, 3
  %oob = shl i8 1, 9
  ret i8 %ok
}""")
    _, facts = _facts(fn)
    assert facts["%ok"].state == MUST_NOT_POISON
    assert facts["%oob"].may_be_poison
    assert facts["%oob"].has_generated_origin


def test_division_poison_divisor_is_ub_not_poison():
    # A poison divisor is *immediate UB*, so it never contributes to the
    # result's poison fact; only the dividend propagates.
    fn = parse_function("""
define i8 @f(i8 %x) {
entry:
  %d = udiv i8 1, %x
  ret i8 %d
}""")
    _, facts = _facts(fn)
    assert facts["%d"].state == MUST_NOT_POISON


def test_phi_joins_over_edges():
    fn = parse_function("""
define i8 @f(i1 %c, i8 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  %p = add nsw i8 %x, 1
  br label %join
b:
  br label %join
join:
  %m = phi i8 [ %p, %a ], [ 0, %b ]
  ret i8 %m
}""")
    _, facts = _facts(fn)
    assert facts["%m"].state == MAY_POISON
    assert facts["%m"].has_generated_origin


def test_loop_carried_phi_reaches_fixpoint():
    fn = parse_function("""
define i8 @f(i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %next, %head ]
  %next = add i8 %i, 1
  %c = icmp ult i8 %next, 4
  br i1 %c, label %head, label %exit
exit:
  ret i8 %i
}""")
    _, facts = _facts(fn)
    # constants in, plain add: the whole loop nest is poison-free
    assert facts["%i"].state == MUST_NOT_POISON
    assert facts["%next"].state == MUST_NOT_POISON


# ---------------------------------------------------------------------------
# dominating-branch refinement


GUARDED = """
define i8 @f(i8 %x) {
entry:
  %c = icmp eq i8 %x, 7
  br i1 %c, label %t, label %e
t:
  %f = freeze i8 %x
  %r = add i8 %f, 1
  ret i8 %r
e:
  ret i8 0
}"""


def test_dominating_branch_refines_use():
    fn = parse_function(GUARDED)
    flow = analyze_poison_flow(fn, NEW)
    x = fn.args[0]
    entry, t, e = fn.blocks
    # At the def (function entry) the argument may be poison ...
    assert flow.fact_at(x, entry).may_be_poison
    # ... but inside either arm the branch already executed: under
    # branch-on-poison-is-UB, %x poison would have been UB at the br.
    assert flow.fact_at(x, t).is_must_not_poison
    assert flow.fact_at(x, e).is_must_not_poison


def test_no_refinement_under_old_semantics():
    # OLD semantics: branch on poison is nondeterministic, not UB, so
    # observing the branch proves nothing.
    fn = parse_function(GUARDED)
    flow = analyze_poison_flow(fn, OLD)
    x = fn.args[0]
    t = fn.blocks[1]
    assert flow.fact_at(x, t).may_be_poison


def test_taint_sources_closure():
    fn = parse_function(GUARDED)
    entry = fn.blocks[0]
    cond = entry.terminator.cond
    sources = taint_sources(cond)  # set of value ids
    assert id(cond) in sources
    assert id(fn.args[0]) in sources  # %x: icmp propagates operand poison


def test_is_guaranteed_not_poison_delegates_to_flow():
    fn = parse_function(GUARDED)
    flow = analyze_poison_flow(fn, NEW)
    x = fn.args[0]
    t = fn.blocks[1]
    # The shallow walk can never prove an argument non-poison ...
    assert not is_guaranteed_not_poison(x)
    # ... the fixpoint with the use block can.
    assert is_guaranteed_not_poison(x, flow=flow, block=t)


# ---------------------------------------------------------------------------
# differential soundness (hypothesis): every MustNotPoison claim holds in
# every enumerated behavior, every MustPoison claim in all of them.


_OPS = tuple(Opcode(o) for o in ("add", "mul", "udiv", "shl"))
_SPACE = enumeration_size(2, width=2, opcodes=_OPS, include_flags=True)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=_SPACE - 1))
def test_claims_sound_against_interpreter(index):
    fn = function_at_index(index, 2, width=2, opcodes=_OPS,
                           include_flags=True)
    contradictions, tally = audit_function(fn, NEW, index=index)
    assert contradictions == [], (
        f"analyzer soundness bug on corpus index {index}: "
        f"{contradictions[0].as_dict()}")


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=_SPACE - 1))
def test_claims_sound_under_old_semantics(index):
    fn = function_at_index(index, 2, width=2, opcodes=_OPS,
                           include_flags=True)
    contradictions, _ = audit_function(fn, OLD, index=index)
    assert contradictions == []
