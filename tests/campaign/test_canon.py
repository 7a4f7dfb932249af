"""Canonical hashing: renumbering invariance and dedup accounting."""

import pytest

from repro.campaign import DedupCache, canonical_hash, canonical_text
from repro.campaign import canon as canon_module
from repro.fuzz import enumerate_functions, random_functions
from repro.opt.resilience import snapshot as snapshot_module
from repro.ir import parse_function, parse_module, print_function, print_module

BASE = """
define i2 @f(i2 %a, i2 %b) {
entry:
  %x = mul i2 %a, %b
  %y = add i2 %x, 1
  ret i2 %y
}
"""

RENAMED = """
define i2 @weird(i2 %lhs, i2 %rhs) {
top:
  %product = mul i2 %lhs, %rhs
  %sum = add i2 %product, 1
  ret i2 %sum
}
"""

SWAPPED_OPERANDS = """
define i2 @f(i2 %a, i2 %b) {
entry:
  %x = mul i2 %b, %a
  %y = add i2 %x, 1
  ret i2 %y
}
"""


class TestCanonicalHash:
    def test_alpha_renaming_invariant(self):
        assert canonical_hash(BASE) == canonical_hash(RENAMED)
        assert canonical_text(BASE) == canonical_text(RENAMED)

    def test_operand_order_is_significant(self):
        # mul %a, %b and mul %b, %a are different *functions of the
        # arguments*; canonicalization must not conflate them.
        assert canonical_hash(BASE) != canonical_hash(SWAPPED_OPERANDS)

    def test_accepts_function_objects_and_text(self):
        fn = parse_function(BASE)
        assert canonical_hash(fn) == canonical_hash(BASE)

    def test_input_function_not_mutated(self):
        fn = parse_function(BASE)
        before = print_function(fn)
        canonical_text(fn)
        assert print_function(fn) == before

    def test_multi_block_renaming(self):
        a = """
define i2 @f(i2 %a, i1 %c) {
entry:
  br i1 %c, label %then, label %done
then:
  br label %done
done:
  %r = phi i2 [ %a, %entry ], [ 1, %then ]
  ret i2 %r
}
"""
        b = a.replace("%then", "%left").replace("then:", "left:") \
             .replace("%done", "%exit").replace("done:", "exit:") \
             .replace("%r", "%result")
        assert canonical_hash(a) == canonical_hash(b)

    def test_corpus_hashes_are_distinct(self):
        # The exhaustive 1-instruction corpus is duplicate-free by
        # construction (448 structurally distinct functions); the hash
        # must not collide any of them.
        hashes = {canonical_hash(fn) for fn in enumerate_functions(1)}
        assert len(hashes) == 448

    def test_flags_are_significant(self):
        plain = BASE
        flagged = BASE.replace("add i2", "add nsw i2")
        assert canonical_hash(plain) != canonical_hash(flagged)


class TestDedupCache:
    def test_hit_miss_accounting(self):
        cache = DedupCache({"h1": "verified"})
        assert cache.lookup("h1") == "verified"
        assert cache.lookup("h2") is None
        cache.add("h2", "failed")
        assert cache.lookup("h2") == "failed"
        assert cache.hits == 2
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_preloaded_entries_count_as_hits(self):
        cache = DedupCache()
        assert cache.lookup("x") is None
        assert "x" not in cache
        cache.add("x", "verified")
        assert "x" in cache
        assert len(cache) == 1
        assert cache.as_dict() == {"x": "verified"}


MODULE_LEVEL = [
    # a global: the function text alone does not parse
    """
@g = global i2 1

define i2 @f(i2 %a) {
entry:
  %v = load i2, i2* @g
  %r = add i2 %v, %a
  store i2 %r, i2* @g
  ret i2 %r
}
""",
    # a call to a declaration
    """
declare i2 @ext(i2)

define i2 @f(i2 %a) {
entry:
  %c = call i2 @ext(i2 %a)
  %r = xor i2 %c, %a
  ret i2 %r
}
""",
    # a recursive call names the function itself, which is renamed
    """
define i2 @rec(i2 %a, i1 %c) {
entry:
  br i1 %c, label %call, label %done
call:
  %r = call i2 @rec(i2 %a, i1 false)
  ret i2 %r
done:
  ret i2 %a
}
""",
]

MODULE_LEVEL_IDS = ["global", "declaration", "recursive"]


def _names(fn):
    return ([fn.name] + [a.name for a in fn.args]
            + [b.name for b in fn.blocks]
            + [i.name for i in fn.instructions()])


class TestInPlaceRenaming:
    """A :class:`Function` is renamed in place for the printer, so every
    name must come back, and no clone may be made."""

    def _sample(self):
        yield from enumerate_functions(1)
        yield from random_functions(64, num_instructions=3, seed=1001,
                                    include_flags=True)

    def test_names_restored_and_text_path_agrees(self, monkeypatch):
        clones = []
        real = snapshot_module.clone_instruction
        monkeypatch.setattr(snapshot_module, "clone_instruction",
                            lambda inst: clones.append(inst) or real(inst))
        for fn in self._sample():
            names = _names(fn)
            h = canonical_hash(fn)
            assert _names(fn) == names
            assert h == canonical_hash(print_module(fn.module))
        assert not clones

    @pytest.mark.parametrize("text", [BASE, RENAMED], ids=["f", "weird"])
    def test_names_restored_when_printing_raises(self, monkeypatch, text):
        fn = parse_function(text)
        names = _names(fn)
        seen = []

        def failing_print(f):
            seen.append(_names(f))
            raise RuntimeError("printer failed")

        monkeypatch.setattr(canon_module, "print_function", failing_print)
        with pytest.raises(RuntimeError):
            canonical_hash(fn)
        assert seen and seen[0] != names  # renamed while printing
        assert _names(fn) == names


class TestModuleLevelReferences:
    """A :class:`Function` is hashed in place, sharing its module's
    globals and callees; the text path parses the module."""

    @pytest.mark.parametrize("text", MODULE_LEVEL, ids=MODULE_LEVEL_IDS)
    def test_object_and_module_text_hash_alike(self, text):
        module = parse_module(text)
        fn = module.definitions()[-1]
        assert canonical_hash(fn) == canonical_hash(print_module(module))
        assert canonical_text(fn) == canonical_text(text)

    @pytest.mark.parametrize("text", MODULE_LEVEL, ids=MODULE_LEVEL_IDS)
    def test_hashing_leaves_no_users_behind(self, text):
        module = parse_module(text)
        fn = module.definitions()[-1]
        before = print_module(module)
        shared = list(fn.args) + list(module.globals.values())
        uses = [len(v.uses) for v in shared]
        canonical_hash(fn)
        assert [len(v.uses) for v in shared] == uses
        assert print_module(module) == before

    def test_recursive_call_is_renamed(self):
        assert "call i2 @f(" in canonical_text(MODULE_LEVEL[2])
        fn = parse_module(MODULE_LEVEL[2]).get_function("rec")
        assert "call i2 @f(" in canonical_text(fn)
