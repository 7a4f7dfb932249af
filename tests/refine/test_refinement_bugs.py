"""Regression tests for two refinement-checker soundness bugs.

1. **Memory positional-zip**: ``behavior_covers`` compared memory
   regions by list position.  Two behaviors whose regions were recorded
   in different orders compared region A against region B, yielding
   spurious counterexamples (or, worse, spurious coverage when the bit
   patterns happened to align).  Fixed twice over: ``Behavior``
   construction sorts regions by name, and coverage matches regions by
   name.

2. **Silent undef-expansion truncation**: union-expanding a target
   behavior's undef bits was capped at 4096 concretizations, and
   exceeding the cap silently fell through to a *definite* verdict.
   The overflow is now an explicit inconclusive verdict, counted in the
   ``refine`` stats and surfaced as a missed-optimization remark.

Plus one determinism bug: the first uncovered target behavior decides
the verdict and is the witness, and it was picked in set order, which
follows ``PYTHONHASHSEED`` and object addresses.  Target behaviors are
now visited in a fixed order.
"""

import os
import subprocess
import sys

import pytest

import repro

from repro.diag import REMARK_MISSED, default_emitter
from repro.refine import CheckOptions, check_refinement
from repro.refine.refinement import (
    NUM_UNDEF_EXPANSION_OVERFLOW,
    behavior_covers,
    check_behavior_sets,
)
from repro.ir import parse_function
from repro.semantics import NEW, OLD
from repro.semantics.domains import PBIT, UBIT
from repro.semantics.interp import RET, Behavior


def _ret(bits, memory=()):
    return Behavior(RET, tuple(bits), (), tuple(memory))


class TestMemoryRegionCoverage:
    def test_construction_sorts_regions_by_name(self):
        b = Behavior(RET, (0,), (), (("b", (1, 0)), ("a", (0, 1))))
        assert b.memory == (("a", (0, 1)), ("b", (1, 0)))

    def test_construction_order_does_not_affect_equality(self):
        fwd = Behavior(RET, (0,), (), (("a", (0, 1)), ("b", (1, 0))))
        rev = Behavior(RET, (0,), (), (("b", (1, 0)), ("a", (0, 1))))
        assert fwd == rev
        assert hash(fwd) == hash(rev)

    def test_coverage_is_by_region_name_not_position(self):
        # src: @a may be anything (poison), @b must be 0.  A tgt built
        # in the opposite order must still be matched a-to-a and b-to-b:
        # under the old positional zip, @a's poison licensed tgt's @b
        # and src's concrete @b was compared against tgt's @a.
        src = _ret((0,), (("a", (PBIT, PBIT)), ("b", (0, 0))))
        tgt = _ret((0,), (("b", (0, 0)), ("a", (1, 1))))
        assert behavior_covers(src, tgt)
        bad = _ret((0,), (("b", (1, 0)), ("a", (1, 1))))
        assert not behavior_covers(src, bad)

    def test_same_bits_under_different_region_names_do_not_cover(self):
        # The positional zip ignored names entirely; identical bit
        # patterns in differently-named regions must not match.
        src = _ret((0,), (("a", (1, 1)),))
        tgt = _ret((0,), (("c", (1, 1)),))
        assert not behavior_covers(src, tgt)

    def test_region_count_mismatch_does_not_cover(self):
        src = _ret((0,), (("a", (1, 1)),))
        tgt = _ret((0,), (("a", (1, 1)), ("b", (0, 0))))
        assert not behavior_covers(src, tgt)

    def test_store_reordering_refines_end_to_end(self):
        # Reordering independent stores must verify in both directions.
        src = parse_function("""
@a = global i2
@b = global i2
define void @f(i2 %x) {
entry:
  store i2 %x, i2* @a
  store i2 1, i2* @b
  ret void
}
""")
        tgt = parse_function("""
@a = global i2
@b = global i2
define void @f(i2 %x) {
entry:
  store i2 1, i2* @b
  store i2 %x, i2* @a
  ret void
}
""")
        assert check_refinement(src, tgt, NEW).ok
        assert check_refinement(tgt, src, NEW).ok


class TestUndefExpansionCap:
    # src licenses every 16-bit value whose low bit is 0 (one behavior)
    # or 1 (the other); tgt's all-undef return is covered only by the
    # *union* — expanding it needs 2^16 concretizations.
    SRC = frozenset({_ret((0,) + (UBIT,) * 15), _ret((1,) + (UBIT,) * 15)})
    TGT = frozenset({_ret((UBIT,) * 16)})

    def test_overflow_is_explicit_inconclusive(self):
        before = NUM_UNDEF_EXPANSION_OVERFLOW.value
        result = check_behavior_sets(self.SRC, self.TGT, undef_cap=4096)
        assert not result.ok
        assert result.inconclusive
        assert result.witness is None
        assert "65536" in result.reason and "4096" in result.reason
        assert NUM_UNDEF_EXPANSION_OVERFLOW.value == before + 1

    def test_overflow_emits_missed_remark(self):
        with default_emitter().collect() as remarks:
            check_behavior_sets(self.SRC, self.TGT, undef_cap=16,
                                function="f16")
        overflow = [r for r in remarks if "undef expansion" in r.message]
        assert overflow, remarks
        assert overflow[0].kind == REMARK_MISSED
        assert overflow[0].function == "f16"

    def test_cap_boundary_is_inclusive(self):
        # needed == cap must still expand (only needed > cap overflows).
        result = check_behavior_sets(self.SRC, self.TGT, undef_cap=1 << 16)
        assert result.ok

    def test_truncation_never_yields_refines(self):
        # Union coverage genuinely fails here (no source behavior
        # licenses low-bit 1).  With the cap too small the verdict must
        # be inconclusive — never "covered" off a truncated expansion.
        src = frozenset({_ret((0,) + (UBIT,) * 15)})
        capped = check_behavior_sets(src, self.TGT, undef_cap=4096)
        assert not capped.ok and capped.inconclusive
        full = check_behavior_sets(src, self.TGT, undef_cap=1 << 16)
        assert not full.ok and not full.inconclusive
        assert full.witness is not None

    def test_cap_reaches_check_refinement(self):
        # OLD mode: `add %x, 0 -> %x` on an undef %x.  The source
        # expands undef at the add, so its behaviors are the four
        # concrete returns; the target returns the undef un-expanded.
        # Coverage needs the union expansion (4 concretizations).
        src = parse_function("""
define i2 @f(i2 %x) {
entry:
  %r = add i2 %x, 0
  ret i2 %r
}
""")
        tgt = parse_function("""
define i2 @f(i2 %x) {
entry:
  ret i2 %x
}
""")
        ok = check_refinement(src, tgt, OLD)
        assert ok.ok
        capped = check_refinement(
            src, tgt, OLD, options=CheckOptions(undef_expansion_cap=2))
        assert capped.verdict == "inconclusive"
        assert "concretizations" in capped.reason


#: a legacy check whose target has three behaviors on the failing input,
#: none of which the source allows (one returns undef, one poison)
WITNESS_CHECK = '''
from repro.ir import parse_module
from repro.refine import check_refinement
from repro.semantics import OLD

src = parse_module("""
declare void @e0(i2)
define i2 @f(i2 %a) {
entry:
  call void @e0(i2 %a)
  ret i2 %a
}""").get_function("f")
tgt = parse_module("""
declare void @e1(i2)
declare void @e2(i2)
declare void @e3(i2)
define i2 @f(i2 %a) {
entry:
  switch i2 undef, label %x [i2 1, label %y
                             i2 2, label %z]
x:
  call void @e1(i2 %a)
  ret i2 undef
y:
  call void @e2(i2 %a)
  ret i2 poison
z:
  call void @e3(i2 %a)
  ret i2 1
}""").get_function("f")
result = check_refinement(src, tgt, OLD)
print(result.verdict)
print(result.counterexample)
'''


class TestWitnessOrder:
    def test_counterexample_is_the_same_in_every_process(self):
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        runs = [subprocess.Popen(
            [sys.executable, "-c", WITNESS_CHECK], stdout=subprocess.PIPE,
            text=True, env=dict(os.environ, PYTHONPATH=src_dir,
                                PYTHONHASHSEED=str(seed)))
            for seed in (1, 2, 3, 4)]
        outputs = [run.communicate(timeout=120)[0] for run in runs]
        assert all(run.returncode == 0 for run in runs)
        assert outputs[0].startswith("failed\n")
        assert "target can produce" in outputs[0]
        assert outputs == [outputs[0]] * len(outputs)
