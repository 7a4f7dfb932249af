"""Tests for GVN, SimplifyCFG, LICM, SCCP, Reassociate, DCE, Inliner."""

import pytest

from repro.ir import (
    FreezeInst,
    Opcode,
    PhiInst,
    SelectInst,
    parse_function,
    parse_module,
    print_function,
    verify_function,
)
from repro.opt import (
    DCE,
    GVN,
    LICM,
    Inliner,
    InstSimplify,
    OptConfig,
    Reassociate,
    SCCP,
    SimplifyCFG,
)
from repro.refine import CheckOptions, check_refinement
from repro.semantics import NEW, OLD, run_once

FIXED = OptConfig.fixed()
LEGACY = OptConfig.legacy()


def apply_pass(p, text):
    fn = parse_function(text)
    changed = p.run_on_function(fn)
    verify_function(fn)
    return fn, changed


def validate(p, text, semantics=NEW, **opts):
    before = parse_function(text)
    fn, changed = apply_pass(p, text)
    r = check_refinement(before, fn, semantics,
                         options=CheckOptions(**opts) if opts else None)
    return fn, changed, r


class TestGVN:
    def test_redundant_expression_eliminated(self):
        fn, changed, r = validate(GVN(FIXED), """
define i4 @f(i4 %a, i4 %b) {
entry:
  %x = add i4 %a, %b
  %y = add i4 %a, %b
  %s = mul i4 %x, %y
  ret i4 %s
}""")
        assert changed and r.ok
        adds = [i for i in fn.entry.instructions if i.opcode is Opcode.ADD]
        assert len(adds) == 1

    def test_commutative_operands_match(self):
        fn, changed, r = validate(GVN(FIXED), """
define i4 @f(i4 %a, i4 %b) {
entry:
  %x = add i4 %a, %b
  %y = add i4 %b, %a
  %s = mul i4 %x, %y
  ret i4 %s
}""")
        assert changed and r.ok

    def test_different_flags_not_merged(self):
        fn, changed, r = validate(GVN(FIXED), """
define i4 @f(i4 %a, i4 %b) {
entry:
  %x = add nsw i4 %a, %b
  %y = add i4 %a, %b
  %s = mul i4 %x, %y
  ret i4 %s
}""")
        adds = [i for i in fn.instructions() if i.opcode is Opcode.ADD]
        assert len(adds) == 2
        assert r.ok

    def test_freeze_never_value_numbered(self):
        """Section 6: two freezes of one value are distinct values."""
        fn, changed, r = validate(GVN(FIXED), """
define i4 @f(i4 %x) {
entry:
  %f1 = freeze i4 %x
  %f2 = freeze i4 %x
  %s = sub i4 %f1, %f2
  ret i4 %s
}""")
        freezes = [i for i in fn.instructions()
                   if isinstance(i, FreezeInst)]
        assert len(freezes) == 2
        assert r.ok

    def test_dominating_leader_required(self):
        fn, changed, r = validate(GVN(FIXED), """
define i4 @f(i1 %c, i4 %a) {
entry:
  br i1 %c, label %l, label %r
l:
  %x = add i4 %a, 1
  br label %join
r:
  %y = add i4 %a, 1
  br label %join
join:
  %p = phi i4 [ %x, %l ], [ %y, %r ]
  ret i4 %p
}""")
        # neither add dominates the other: both must survive
        adds = [i for i in fn.instructions() if i.opcode is Opcode.ADD]
        assert len(adds) == 2
        assert r.ok

    def test_equality_propagation_in_guarded_block(self):
        fn, changed, r = validate(GVN(FIXED), """
declare void @foo(i4)

define void @f(i4 %x, i4 %y) {
entry:
  %t = add nsw i4 %x, 1
  %cmp = icmp eq i4 %t, %y
  br i1 %cmp, label %then, label %exit
then:
  %w = add nsw i4 %x, 1
  call void @foo(i4 %w)
  br label %exit
exit:
  ret void
}""")
        assert changed and r.ok
        then = fn.block_by_name("then")
        call = [i for i in then.instructions if i.opcode is Opcode.CALL][0]
        # the argument became %y, the representative
        assert call.args[0].name == "y"


class TestSimplifyCFG:
    def test_constant_branch_folded(self):
        fn, changed, r = validate(SimplifyCFG(FIXED), """
define i4 @f() {
entry:
  br i1 true, label %a, label %b
a:
  ret i4 1
b:
  ret i4 2
}""")
        assert changed and r.ok
        assert len(fn.blocks) == 1

    def test_blocks_merged(self):
        fn, changed, r = validate(SimplifyCFG(FIXED), """
define i4 @f(i4 %x) {
entry:
  br label %next
next:
  %y = add i4 %x, 1
  br label %last
last:
  ret i4 %y
}""")
        assert changed and r.ok
        assert len(fn.blocks) == 1

    def test_diamond_phi_to_select(self):
        fn, changed, r = validate(SimplifyCFG(FIXED), """
define i4 @f(i1 %c, i4 %a, i4 %b) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  %x = phi i4 [ %a, %t ], [ %b, %e ]
  ret i4 %x
}""")
        assert changed and r.ok
        assert len(fn.blocks) == 1
        assert any(isinstance(i, SelectInst) for i in fn.entry.instructions)

    def test_triangle_phi_to_select(self):
        fn, changed, r = validate(SimplifyCFG(FIXED), """
define i4 @f(i1 %c, i4 %a, i4 %b) {
entry:
  br i1 %c, label %t, label %m
t:
  br label %m
m:
  %x = phi i4 [ %a, %t ], [ %b, %entry ]
  ret i4 %x
}""")
        assert changed and r.ok
        assert any(isinstance(i, SelectInst) for i in fn.instructions())

    def test_phi_to_select_unsound_under_old_semantics(self):
        """The §3.4 inconsistency: SimplifyCFG's own rewrite, validated
        under the OLD/LangRef reading, is a miscompilation."""
        fn, changed, r = validate(SimplifyCFG(FIXED), """
define i4 @f(i1 %c, i4 %a, i4 %b) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  %x = phi i4 [ %a, %t ], [ %b, %e ]
  ret i4 %x
}""", semantics=OLD)
        assert changed and r.failed

    def test_switch_constant_folded(self):
        fn, changed, r = validate(SimplifyCFG(FIXED), """
define i4 @f() {
entry:
  switch i4 2, label %d [ i4 1, label %a i4 2, label %b ]
a:
  ret i4 10
b:
  ret i4 20
d:
  ret i4 30
}""")
        assert changed and r.ok
        b = run_once(fn, [])
        assert b.ret == (0, 0, 1, 0, 1, 0, 0, 0)[:4]  # 20 & 0xF = 4 -> 0100


class TestLICM:
    LOOP = """
declare void @use(i4)

define void @f(i4 %x, i2 %n) {
entry:
  br label %head
head:
  %i = phi i2 [ 0, %entry ], [ %i1, %body ]
  %c = icmp ult i2 %i, %n
  br i1 %c, label %body, label %exit
body:
  %inv = add nsw i4 %x, 1
  call void @use(i4 %inv)
  %i1 = add i2 %i, 1
  br label %head
exit:
  ret void
}"""

    def test_invariant_arithmetic_hoisted(self):
        fn, changed, r = validate(LICM(FIXED), self.LOOP,
                                  max_choices=40, fuel=4000)
        assert changed and r.ok
        entry = fn.entry
        assert any(i.opcode is Opcode.ADD for i in entry.instructions)

    def test_division_not_hoisted_by_default(self):
        src = self.LOOP.replace("add nsw i4 %x, 1", "udiv i4 1, %x")
        fn, changed, r = validate(LICM(FIXED), src,
                                  max_choices=40, fuel=4000)
        body = fn.block_by_name("body")
        assert any(i.opcode is Opcode.UDIV for i in body.instructions)

    GUARDED = """
declare void @use(i4)

define void @f(i4 %k, i1 %c) {
entry:
  %guard = icmp ne i4 %k, 0
  br i1 %guard, label %pre, label %exit
pre:
  br label %head
head:
  br i1 %c, label %body, label %exit
body:
  %q = udiv i4 1, %k
  call void @use(i4 %q)
  br label %head
exit:
  ret void
}"""

    def test_legacy_hoists_guarded_division(self):
        fn, changed = apply_pass(LICM(LEGACY), self.GUARDED)
        pre = fn.block_by_name("pre")
        assert any(i.opcode is Opcode.UDIV for i in pre.instructions)

    def test_legacy_guarded_division_hoist_is_the_bug(self):
        before = parse_function(self.GUARDED)
        fn, changed = apply_pass(LICM(LEGACY), self.GUARDED)
        r = check_refinement(before, fn, OLD,
                             options=CheckOptions(max_choices=40, fuel=2000))
        assert r.failed  # PR21412 reproduced

    def test_guarded_division_hoist_sound_under_new(self):
        """The E8 ablation point: with undef gone and branch-on-poison
        UB, the guard actually protects the hoisted division."""
        before = parse_function(self.GUARDED)
        cfg = FIXED.with_(licm_hoist_speculative_div=True)
        fn, changed = apply_pass(LICM(cfg), self.GUARDED)
        assert changed
        r = check_refinement(before, fn, NEW,
                             options=CheckOptions(max_choices=40, fuel=2000))
        assert r.ok

    def test_freeze_hoisting_is_sound(self):
        src = """
declare void @use(i4)

define void @f(i4 %x) {
entry:
  br label %head
head:
  %i = phi i2 [ 0, %entry ], [ %i1, %head ]
  %fr = freeze i4 %x
  call void @use(i4 %fr)
  %i1 = add i2 %i, 1
  %c = icmp ult i2 %i1, 2
  br i1 %c, label %head, label %exit
exit:
  ret void
}"""
        before = parse_function(src)
        fn, changed = apply_pass(LICM(FIXED), src)
        assert changed  # freeze hoisted into entry
        assert any(isinstance(i, FreezeInst) for i in fn.entry.instructions)
        r = check_refinement(before, fn, NEW,
                             options=CheckOptions(max_choices=48, fuel=2000))
        assert r.ok


class TestSCCP:
    def test_constants_propagate_through_phi(self):
        fn, changed, r = validate(SCCP(FIXED), """
define i8 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i8 [ 4, %a ], [ 4, %b ]
  %q = add i8 %p, 1
  ret i8 %q
}""")
        assert changed and r.ok
        join = fn.block_by_name("join")
        ret = join.instructions[-1]
        assert ret.value.ref() == "5"

    def test_unreachable_edges_ignored(self):
        fn, changed, r = validate(SCCP(FIXED), """
define i8 @f() {
entry:
  br i1 false, label %dead, label %live
dead:
  br label %join
live:
  br label %join
join:
  %p = phi i8 [ 9, %dead ], [ 3, %live ]
  ret i8 %p
}""")
        assert changed and r.ok
        join = fn.block_by_name("join")
        assert join.instructions[-1].value.ref() == "3"

    def test_conditional_constants(self):
        fn, changed, r = validate(SCCP(FIXED), """
define i8 @f(i1 %c) {
entry:
  %x = select i1 true, i8 7, i8 9
  %y = mul i8 %x, 2
  ret i8 %y
}""")
        assert changed and r.ok

    def test_overdefined_stays(self):
        fn, changed, r = validate(SCCP(FIXED), """
define i8 @f(i8 %x) {
entry:
  %y = add i8 %x, 1
  ret i8 %y
}""")
        assert not changed
        assert r.ok


class TestReassociate:
    def test_constants_combined(self):
        fn, changed, r = validate(Reassociate(FIXED), """
define i8 @f(i8 %x) {
entry:
  %a = add i8 %x, 3
  %b = add i8 %a, 5
  ret i8 %b
}""")
        assert changed and r.ok
        text = print_function(fn)
        assert "8" in text

    def test_buried_constant_surfaced(self):
        fn, changed, r = validate(Reassociate(FIXED), """
define i4 @f(i4 %x, i4 %y) {
entry:
  %a = add i4 %x, 7
  %b = add i4 %a, %y
  %c = add i4 %b, 2
  ret i4 %c
}""")
        assert changed and r.ok
        text = print_function(fn)
        assert "-7" in text  # 7 + 2 folded (i4 wraps to -7)

    def test_fixed_variant_drops_nsw(self):
        fn, changed, r = validate(Reassociate(FIXED), """
define i8 @f(i8 %x) {
entry:
  %a = add nsw i8 %x, 100
  %b = add nsw i8 %a, 100
  ret i8 %b
}""")
        assert changed and r.ok
        # the rebuilt nodes carry no flags (dead originals may linger
        # until DCE)
        for inst in fn.instructions():
            if inst.opcode is Opcode.ADD and ".ra" in inst.name:
                assert not inst.nsw

    def test_legacy_variant_keeps_nsw_and_is_unsound(self):
        """Section 10.2: reordering the leaves of an nsw chain changes
        *where* intermediate sums overflow; keeping nsw on the rebuilt
        nodes manufactures poison the original never had (the historical
        LLVM/MSVC bug)."""
        src = """
define i4 @f(i4 %c, i4 %b, i4 %a) {
entry:
  %t1 = add nsw i4 %c, %b
  %t2 = add nsw i4 %t1, %a
  ret i4 %t2
}"""
        before = parse_function(src)
        fn, changed = apply_pass(Reassociate(LEGACY), src)
        assert changed
        r = check_refinement(before, fn, NEW)
        assert r.failed

    def test_fixed_variant_reorder_is_sound(self):
        src = """
define i4 @f(i4 %c, i4 %b, i4 %a) {
entry:
  %t1 = add nsw i4 %c, %b
  %t2 = add nsw i4 %t1, %a
  ret i4 %t2
}"""
        before = parse_function(src)
        fn, changed = apply_pass(Reassociate(FIXED), src)
        assert changed
        r = check_refinement(before, fn, NEW)
        assert r.ok

    @pytest.mark.parametrize("operands", ["undef, poison", "poison, undef"])
    def test_unnamed_leaves_keep_their_order(self, operands):
        """Leaves without a name tie in the canonical order; the rewrite
        must not depend on where they sit in memory."""
        src = f"""
define i2 @f() {{
entry:
  %v0 = add i2 {operands}
  %v2 = add i2 %v0, -2
  ret i2 %v2
}}"""
        fn, changed = apply_pass(Reassociate(FIXED), src)
        assert not changed
        assert print_function(fn) == print_function(parse_function(src))

    def test_mul_chain(self):
        fn, changed, r = validate(Reassociate(FIXED), """
define i8 @f(i8 %x) {
entry:
  %a = mul i8 %x, 3
  %b = mul i8 %a, 5
  ret i8 %b
}""")
        assert changed and r.ok


class TestDCEAndInstSimplify:
    def test_dead_chain_removed(self):
        fn, changed, r = validate(DCE(FIXED), """
define i8 @f(i8 %x) {
entry:
  %a = add i8 %x, 1
  %b = mul i8 %a, 2
  ret i8 %x
}""")
        assert changed and r.ok
        assert len(fn.entry.instructions) == 1

    def test_side_effects_kept(self):
        fn, changed, r = validate(DCE(FIXED), """
define void @f(i8 %x, i8 %y) {
entry:
  %q = udiv i8 %x, %y
  ret void
}""")
        assert not changed  # division-by-zero UB must be preserved

    def test_simplify_add_zero(self):
        fn, changed, r = validate(InstSimplify(FIXED), """
define i8 @f(i8 %x) {
entry:
  %a = add i8 %x, 0
  ret i8 %a
}""")
        assert changed and r.ok

    def test_sub_self_requires_nonpoison(self):
        # x - x with possibly-poison x must NOT fold to 0.
        fn, changed, r = validate(InstSimplify(FIXED), """
define i8 @f(i8 %x) {
entry:
  %a = sub i8 %x, %x
  ret i8 %a
}""")
        assert not changed
        # but after freezing it may:
        fn2, changed2, r2 = validate(InstSimplify(FIXED), """
define i8 @f(i8 %x) {
entry:
  %fr = freeze i8 %x
  %a = sub i8 %fr, %fr
  ret i8 %a
}""")
        assert changed2 and r2.ok


class TestInliner:
    MOD = """
define i8 @callee(i8 %x) {
entry:
  %y = mul i8 %x, 3
  ret i8 %y
}

define i8 @caller(i8 %a) {
entry:
  %r = call i8 @callee(i8 %a)
  %s = add i8 %r, 1
  ret i8 %s
}"""

    def test_inlines_small_function(self):
        mod = parse_module(self.MOD)
        caller = mod.get_function("caller")
        changed = Inliner(FIXED).run_on_function(caller)
        assert changed
        verify_function(caller)
        assert not any(i.opcode is Opcode.CALL for i in caller.instructions())
        b = run_once(caller, [5])
        assert b.ret == tuple(int(b_) for b_ in reversed(f"{16:08b}"))

    def test_inlined_behavior_preserved(self):
        mod = parse_module(self.MOD)
        mod2 = parse_module(self.MOD)
        caller = mod.get_function("caller")
        Inliner(FIXED).run_on_function(caller)
        r = check_refinement(mod2.get_function("caller"), caller, NEW)
        assert r.ok

    def test_multi_return_callee(self):
        src = """
define i8 @callee(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  ret i8 1
b:
  ret i8 2
}

define i8 @caller(i1 %c) {
entry:
  %r = call i8 @callee(i1 %c)
  ret i8 %r
}"""
        mod = parse_module(src)
        mod2 = parse_module(src)
        caller = mod.get_function("caller")
        assert Inliner(FIXED).run_on_function(caller)
        verify_function(caller)
        r = check_refinement(mod2.get_function("caller"), caller, NEW)
        assert r.ok

    def test_threshold_respected(self):
        mod = parse_module(self.MOD)
        caller = mod.get_function("caller")
        assert not Inliner(FIXED, threshold=0).run_on_function(caller)

    def test_freeze_free_costing(self):
        src = """
define i8 @callee(i8 %x) {
entry:
  %f1 = freeze i8 %x
  %f2 = freeze i8 %f1
  %y = add i8 %f2, 1
  ret i8 %y
}

define i8 @caller(i8 %a) {
entry:
  %r = call i8 @callee(i8 %a)
  ret i8 %r
}"""
        # threshold 1: only the add is counted when freeze is free
        mod = parse_module(src)
        caller = mod.get_function("caller")
        assert Inliner(FIXED, threshold=1).run_on_function(caller)

        mod2 = parse_module(src)
        caller2 = mod2.get_function("caller")
        assert not Inliner(LEGACY, threshold=1).run_on_function(caller2)
