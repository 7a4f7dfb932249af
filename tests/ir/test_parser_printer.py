"""Parser / printer round-trip and error tests."""

import pytest

from repro.ir import (
    FreezeInst,
    Opcode,
    ParseError,
    parse_function,
    parse_module,
    print_function,
    print_module,
    verify_module,
)

EXAMPLE = """
define i32 @f(i32 %a, i32 %b) {
entry:
  %sum = add nsw i32 %a, %b
  %dbl = mul i32 %sum, 2
  %c = icmp slt i32 %dbl, 10
  br i1 %c, label %low, label %high
low:
  %l = sub i32 %dbl, 1
  br label %join
high:
  br label %join
join:
  %r = phi i32 [ %l, %low ], [ %b, %high ]
  %fr = freeze i32 %r
  ret i32 %fr
}
"""


class TestRoundTrip:
    def test_parse_print_parse(self):
        fn = parse_function(EXAMPLE)
        text = print_function(fn)
        fn2 = parse_function(text)
        assert print_function(fn2) == text

    def test_module_roundtrip(self):
        src = """
@g = global i32 7

declare i32 @ext(i32)

define i32 @main() {
entry:
  %p = call i32 @ext(i32 3)
  %v = load i32, i32* @g
  %s = add i32 %p, %v
  store i32 %s, i32* @g
  ret i32 %s
}
"""
        m = parse_module(src)
        verify_module(m)
        text = print_module(m)
        m2 = parse_module(text)
        assert print_module(m2) == text

    def test_all_binops_roundtrip(self):
        ops = ["add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
               "shl", "lshr", "ashr", "and", "or", "xor"]
        body = "\n".join(
            f"  %v{i} = {op} i8 %a, %b" for i, op in enumerate(ops)
        )
        src = f"define i8 @f(i8 %a, i8 %b) {{\nentry:\n{body}\n  ret i8 %v0\n}}"
        fn = parse_function(src)
        text = print_function(fn)
        assert print_function(parse_function(text)) == text

    def test_flags_roundtrip(self):
        src = """
define i8 @f(i8 %a) {
entry:
  %x = add nuw nsw i8 %a, 1
  %y = udiv exact i8 %x, 2
  %z = shl nsw i8 %y, 1
  ret i8 %z
}
"""
        fn = parse_function(src)
        text = print_function(fn)
        assert "add nuw nsw" in text
        assert "udiv exact" in text
        assert print_function(parse_function(text)) == text

    def test_vector_ops_roundtrip(self):
        src = """
define <2 x i8> @f(<2 x i8> %v, i8 %x) {
entry:
  %a = add <2 x i8> %v, %v
  %e = extractelement <2 x i8> %a, i32 0
  %i = insertelement <2 x i8> %a, i8 %x, i32 1
  ret <2 x i8> %i
}
"""
        fn = parse_function(src)
        text = print_function(fn)
        assert print_function(parse_function(text)) == text

    def test_vector_constant(self):
        src = """
define <2 x i8> @f() {
entry:
  %a = add <2 x i8> <i8 1, i8 2>, <i8 3, i8 poison>
  ret <2 x i8> %a
}
"""
        fn = parse_function(src)
        assert "poison" in print_function(fn)

    def test_memory_roundtrip(self):
        src = """
define i16 @f(i16* %p, i32 %i) {
entry:
  %q = getelementptr inbounds i16, i16* %p, i32 %i
  %a = alloca i16
  %v = load i16, i16* %q
  store i16 %v, i16* %a
  %w = load i16, i16* %a
  ret i16 %w
}
"""
        fn = parse_function(src)
        text = print_function(fn)
        assert "getelementptr inbounds" in text
        assert print_function(parse_function(text)) == text

    def test_switch_roundtrip(self):
        src = """
define i8 @f(i8 %x) {
entry:
  switch i8 %x, label %d [ i8 0, label %a i8 1, label %b ]
a:
  ret i8 10
b:
  ret i8 20
d:
  ret i8 30
}
"""
        fn = parse_function(src)
        text = print_function(fn)
        assert print_function(parse_function(text)) == text

    def test_casts_roundtrip(self):
        src = """
define i64 @f(i32 %x) {
entry:
  %s = sext i32 %x to i64
  %t = trunc i64 %s to i8
  %z = zext i8 %t to i64
  ret i64 %z
}
"""
        fn = parse_function(src)
        text = print_function(fn)
        assert print_function(parse_function(text)) == text

    def test_undef_poison_operands(self):
        src = """
define i8 @f() {
entry:
  %a = add i8 undef, 1
  %b = add i8 poison, %a
  ret i8 %b
}
"""
        fn = parse_function(src)
        text = print_function(fn)
        assert "undef" in text and "poison" in text


class TestForwardReferences:
    def test_phi_forward_reference(self):
        src = """
define i8 @f(i8 %n) {
entry:
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %next, %loop ]
  %next = add i8 %i, 1
  %c = icmp ult i8 %next, %n
  br i1 %c, label %loop, label %out
out:
  ret i8 %i
}
"""
        fn = parse_function(src)
        phi = fn.block_by_name("loop").phis()[0]
        next_inst = [i for i in fn.instructions() if i.name == "next"][0]
        assert phi.incoming[1][0] is next_inst

    def test_forward_block_reference(self):
        src = """
define void @f(i1 %c) {
entry:
  br i1 %c, label %later, label %now
now:
  ret void
later:
  ret void
}
"""
        fn = parse_function(src)
        assert [b.name for b in fn.blocks] == ["entry", "now", "later"]


class TestParseErrors:
    def test_unknown_instruction(self):
        with pytest.raises(ParseError):
            parse_function("define void @f() {\nentry:\n  frobnicate\n}")

    def test_undefined_value(self):
        with pytest.raises(ParseError, match="undefined value"):
            parse_function(
                "define i8 @f() {\nentry:\n  %x = add i8 %nope, 1\n  ret i8 %x\n}"
            )

    def test_undefined_label(self):
        with pytest.raises(ParseError, match="undefined label"):
            parse_function(
                "define void @f() {\nentry:\n  br label %ghost\n}"
            )

    def test_unknown_callee(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_function(
                "define void @f() {\nentry:\n  call void @nope()\n  ret void\n}"
            )

    def test_redefined_local_name(self):
        with pytest.raises(ParseError, match="redefinition of %x"):
            parse_function(
                "define i8 @f(i8 %a) {\nentry:\n  %x = add i8 %a, 1\n"
                "  %x = add i8 %a, 2\n  ret i8 %x\n}"
            )

    def test_instruction_redefining_an_argument(self):
        with pytest.raises(ParseError, match="redefinition of %a"):
            parse_function(
                "define i8 @f(i8 %a) {\nentry:\n  %a = add i8 %a, 1\n"
                "  ret i8 %a\n}"
            )

    def test_redefined_label(self):
        with pytest.raises(ParseError, match="redefinition of label %b"):
            parse_function(
                "define void @f() {\nentry:\n  br label %b\nb:\n"
                "  br label %b\nb:\n  ret void\n}"
            )

    def test_type_mismatch_in_store(self):
        with pytest.raises(ValueError):
            parse_function(
                "define void @f(i8* %p) {\nentry:\n"
                "  store i16 3, i8* %p\n  ret void\n}"
            )

    def test_freeze_parses_to_instruction(self):
        fn = parse_function(
            "define i8 @f(i8 %x) {\nentry:\n  %y = freeze i8 %x\n  ret i8 %y\n}"
        )
        inst = fn.entry.instructions[0]
        assert isinstance(inst, FreezeInst)
        assert inst.opcode is Opcode.FREEZE
