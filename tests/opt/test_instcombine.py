"""InstCombine tests, including translation validation of its rewrites."""

import pytest

from repro.ir import Opcode, parse_function, print_function, verify_function
from repro.opt import InstCombine, OptConfig
from repro.refine import CheckOptions, check_refinement
from repro.semantics import NEW, OLD, SelectSemantics


def run_ic(text: str, config: OptConfig):
    fn = parse_function(text)
    InstCombine(config).run_on_function(fn)
    verify_function(fn)
    return fn


def validated(text: str, config: OptConfig, semantics=None):
    """Run InstCombine and check the result refines the original."""
    before = parse_function(text)
    after = run_ic(text, config)
    sem = semantics or config.semantics
    result = check_refinement(before, after, sem)
    return after, result


FIXED = OptConfig.fixed()
LEGACY = OptConfig.legacy()


class TestArithmeticRewrites:
    def test_mul_two_becomes_add_under_new(self):
        fn, r = validated("""
define i4 @f(i4 %x) {
entry:
  %y = mul i4 %x, 2
  ret i4 %y
}""", FIXED)
        assert fn.entry.instructions[0].opcode is Opcode.ADD
        assert r.ok

    def test_mul_two_not_duplicated_under_old_fixed(self):
        cfg = FIXED.with_(semantics=OLD)
        fn, r = validated("""
define i4 @f(i4 %x) {
entry:
  %y = mul i4 %x, 2
  ret i4 %y
}""", cfg)
        # under OLD semantics the dup-use rewrite is unsound; the fixed
        # pipeline uses shl instead
        assert fn.entry.instructions[0].opcode is Opcode.SHL
        assert r.ok

    def test_legacy_mul_two_rewrite_caught_by_checker(self):
        fn, r = validated("""
define i4 @f(i4 %x) {
entry:
  %y = mul i4 %x, 2
  ret i4 %y
}""", LEGACY)
        assert fn.entry.instructions[0].opcode is Opcode.ADD
        assert r.failed  # the Section 3.1 bug, caught

    def test_mul_pow2_becomes_shl(self):
        fn, r = validated("""
define i8 @f(i8 %x) {
entry:
  %y = mul i8 %x, 8
  ret i8 %y
}""", FIXED)
        assert fn.entry.instructions[0].opcode is Opcode.SHL
        assert r.ok

    def test_udiv_pow2_becomes_lshr(self):
        fn, r = validated("""
define i8 @f(i8 %x) {
entry:
  %y = udiv i8 %x, 4
  ret i8 %y
}""", FIXED)
        assert fn.entry.instructions[0].opcode is Opcode.LSHR
        assert r.ok

    def test_sub_const_becomes_add_neg(self):
        fn, r = validated("""
define i8 @f(i8 %x) {
entry:
  %y = sub i8 %x, 3
  ret i8 %y
}""", FIXED)
        assert fn.entry.instructions[0].opcode is Opcode.ADD
        assert r.ok

    def test_double_not_cancelled(self):
        fn, r = validated("""
define i4 @f(i4 %x) {
entry:
  %a = xor i4 %x, -1
  %b = xor i4 %a, -1
  %c = add i4 %b, 0
  ret i4 %c
}""", FIXED)
        assert r.ok
        # %c folds away and double-negation cancels: ret %x directly
        assert len(fn.entry.instructions) <= 2

    def test_constant_canonicalized_to_rhs(self):
        fn = run_ic("""
define i8 @f(i8 %x) {
entry:
  %y = add i8 3, %x
  ret i8 %y
}""", FIXED)
        add = fn.entry.instructions[0]
        assert add.rhs.ref() == "3"


class TestUdivToSelect:
    SRC = """
define i4 @f(i4 %a) {
entry:
  %r = udiv i4 %a, 13
  ret i4 %r
}"""

    def test_rewrite_fires_under_conditional_select(self):
        fn, r = validated(self.SRC, FIXED)
        opcodes = [i.opcode for i in fn.entry.instructions]
        assert Opcode.SELECT in opcodes and Opcode.UDIV not in opcodes
        assert r.ok

    def test_rewrite_blocked_under_ub_cond_select(self):
        cfg = FIXED.with_(
            semantics=NEW.with_(select_semantics=SelectSemantics.UB_COND)
        )
        fn = run_ic(self.SRC, cfg)
        opcodes = [i.opcode for i in fn.entry.instructions]
        assert Opcode.UDIV in opcodes  # Section 3.4: must not fire


class TestSelectArithmetic:
    SRC = """
define i1 @f(i1 %c, i1 %x) {
entry:
  %s = select i1 %c, i1 true, i1 %x
  ret i1 %s
}"""

    def test_fixed_variant_freezes_the_arm(self):
        fn, r = validated(self.SRC, FIXED)
        text = print_function(fn)
        assert "or" in text and "freeze" in text
        assert r.ok

    def test_legacy_variant_unsound(self):
        fn, r = validated(self.SRC, LEGACY, semantics=NEW)
        text = print_function(fn)
        assert "or" in text and "freeze" not in text
        assert r.failed

    def test_legacy_variant_fine_under_arithmetic_select(self):
        # Under the LangRef (arithmetic) reading the legacy rewrite is
        # exactly what select means: validation passes.
        fn, r = validated(self.SRC, LEGACY, semantics=OLD)
        assert r.ok

    def test_select_x_false_becomes_and(self):
        fn, r = validated("""
define i1 @f(i1 %c, i1 %x) {
entry:
  %s = select i1 %c, i1 %x, i1 false
  ret i1 %s
}""", FIXED)
        text = print_function(fn)
        assert "and" in text
        assert r.ok

    def test_select_undef_arm_collapse_only_legacy(self):
        src = """
define i4 @f(i1 %c, i4 %x) {
entry:
  %s = select i1 %c, i4 %x, i4 undef
  ret i4 %s
}"""
        fn = run_ic(src, LEGACY)
        assert len(fn.entry.instructions) == 1  # collapsed to ret %x
        fn2 = run_ic(src, FIXED)
        assert any(i.opcode is Opcode.SELECT for i in fn2.entry.instructions)


class TestIcmpRewrites:
    def test_ult_one_becomes_eq_zero(self):
        fn, r = validated("""
define i1 @f(i8 %x) {
entry:
  %c = icmp ult i8 %x, 1
  ret i1 %c
}""", FIXED)
        cmp = fn.entry.instructions[0]
        assert cmp.pred.value == "eq"
        assert r.ok

    def test_add_const_folded_into_eq(self):
        fn, r = validated("""
define i1 @f(i4 %x) {
entry:
  %a = add i4 %x, 3
  %c = icmp eq i4 %a, 5
  ret i1 %c
}""", FIXED)
        cmp = fn.entry.instructions[-2]
        assert cmp.opcode is Opcode.ICMP
        assert cmp.rhs.ref() == "2"
        assert r.ok

    def test_constant_lhs_swapped(self):
        fn, r = validated("""
define i1 @f(i4 %x) {
entry:
  %c = icmp slt i4 3, %x
  ret i1 %c
}""", FIXED)
        cmp = [i for i in fn.entry.instructions if i.opcode is Opcode.ICMP][0]
        assert cmp.pred.value == "sgt"
        assert r.ok


class TestFixpoint:
    def test_chains_collapse(self):
        fn, r = validated("""
define i8 @f(i8 %x) {
entry:
  %a = add i8 %x, 0
  %b = mul i8 %a, 1
  %c = or i8 %b, 0
  %d = xor i8 %c, 0
  ret i8 %d
}""", FIXED)
        assert len(fn.entry.instructions) == 1
        assert r.ok

    def test_constant_folding_through(self):
        fn, r = validated("""
define i8 @f() {
entry:
  %a = add i8 3, 4
  %b = mul i8 %a, 2
  %c = sub i8 %b, 4
  ret i8 %c
}""", FIXED)
        assert len(fn.entry.instructions) == 1
        ret = fn.entry.instructions[0]
        assert ret.value.ref() == "10"
        assert r.ok


class TestNestedFolds:
    def test_and_chain_merged(self):
        fn, r = validated("""
define i8 @f(i8 %x) {
entry:
  %a = and i8 %x, 60
  %b = and i8 %a, 15
  ret i8 %b
}""", FIXED)
        assert r.ok
        ands = [i for i in fn.instructions() if i.opcode is Opcode.AND]
        assert len(ands) == 1
        assert ands[0].rhs.ref() == "12"  # 60 & 15

    def test_or_chain_merged(self):
        fn, r = validated("""
define i8 @f(i8 %x) {
entry:
  %a = or i8 %x, 3
  %b = or i8 %a, 12
  ret i8 %b
}""", FIXED)
        assert r.ok
        ors = [i for i in fn.instructions() if i.opcode is Opcode.OR]
        assert len(ors) == 1
        assert ors[0].rhs.ref() == "15"

    def test_shl_lshr_pair_becomes_mask(self):
        fn, r = validated("""
define i8 @f(i8 %x) {
entry:
  %a = shl i8 %x, 3
  %b = lshr i8 %a, 3
  ret i8 %b
}""", FIXED)
        assert r.ok
        assert any(i.opcode is Opcode.AND for i in fn.instructions())
        assert not any(i.opcode is Opcode.LSHR for i in fn.instructions())

    def test_xor_eq_fold(self):
        fn, r = validated("""
define i1 @f(i4 %x) {
entry:
  %a = xor i4 %x, 5
  %c = icmp eq i4 %a, 3
  ret i1 %c
}""", FIXED)
        assert r.ok
        cmp = [i for i in fn.instructions() if i.opcode is Opcode.ICMP][0]
        assert cmp.rhs.ref() == "6"  # 5 ^ 3

    def test_zext_cmp_ne_zero_collapses(self):
        fn, r = validated("""
define i1 @f(i8 %x) {
entry:
  %c = icmp ult i8 %x, 10
  %z = zext i1 %c to i8
  %n = icmp ne i8 %z, 0
  ret i1 %n
}""", FIXED)
        assert r.ok
        # the zext/ne pair collapses back to the original comparison
        cmps = [i for i in fn.instructions() if i.opcode is Opcode.ICMP]
        assert len(cmps) == 1

    def test_zext_cmp_eq_zero_becomes_not(self):
        fn, r = validated("""
define i1 @f(i8 %x) {
entry:
  %c = icmp ult i8 %x, 10
  %z = zext i1 %c to i8
  %n = icmp eq i8 %z, 0
  ret i1 %n
}""", FIXED)
        assert r.ok


class TestCanonicalOperandOrder:
    """Moving a constant to the RHS edits the IR in place, so the pass
    must report it: the guarded pass manager reuses its snapshot across
    applications that report no change."""

    @pytest.mark.parametrize("config, body, expected", [
        (FIXED, "%r = icmp uge i2 1, %a\n  ret i1 %r",
         "%r = icmp ule i2 %a, 1"),
        (LEGACY, "%r = icmp uge i2 1, %a\n  ret i1 %r",
         "%r = icmp ule i2 %a, 1"),
        # legacy folds xor with undef away; the fixed config keeps it
        (FIXED, "%r = xor i2 1, undef\n  ret i2 %r",
         "%r = xor i2 undef, 1"),
        (FIXED, "%r = add i2 1, %a\n  ret i2 %r", "%r = add i2 %a, 1"),
        (LEGACY, "%r = add i2 1, %a\n  ret i2 %r", "%r = add i2 %a, 1"),
    ], ids=["icmp-fixed", "icmp-legacy", "xor-undef-fixed", "add-fixed",
            "add-legacy"])
    def test_moving_a_constant_right_is_a_change(self, config, body,
                                                 expected):
        ret = "i1" if "icmp" in body else "i2"
        fn = parse_function(
            f"define {ret} @f(i2 %a) {{\nentry:\n  {body}\n}}")
        before = print_function(fn)
        assert InstCombine(config).run_on_function(fn)
        after = print_function(fn)
        assert after != before
        assert expected in after

    def test_already_canonical_is_no_change(self):
        fn = parse_function(
            "define i1 @f(i2 %a) {\nentry:\n"
            "  %r = icmp ule i2 %a, 1\n  ret i1 %r\n}")
        before = print_function(fn)
        assert not InstCombine(FIXED).run_on_function(fn)
        assert print_function(fn) == before
