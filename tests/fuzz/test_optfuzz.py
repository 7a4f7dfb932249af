"""Tests for the opt-fuzz generators and the validation workflow."""

import itertools

import pytest

import random

from repro.fuzz import (
    SMALL_OPCODES,
    count_functions,
    enumerate_functions,
    enumeration_size,
    function_at_index,
    random_functions,
)
from repro.ir import Opcode, parse_function, print_module, verify_function
from repro.opt import OptConfig, single_pass_pipeline
from repro.refine import CheckOptions, check_refinement
from repro.semantics import NEW, OLD


class TestEnumeration:
    def test_count_matches_enumeration(self):
        expected = count_functions(1)
        actual = sum(1 for _ in enumerate_functions(1))
        assert actual == expected == 448

    def test_all_generated_functions_verify(self):
        for fn in enumerate_functions(1):
            verify_function(fn)

    def test_limit_respected(self):
        assert sum(1 for _ in enumerate_functions(2, limit=50)) == 50

    def test_deterministic(self):
        a = [print_module(f.module) for f in enumerate_functions(1, limit=20)]
        b = [print_module(f.module) for f in enumerate_functions(1, limit=20)]
        assert a == b

    def test_distinct_functions(self):
        texts = {print_module(f.module) for f in enumerate_functions(1)}
        assert len(texts) == 448

    def test_operand_variety(self):
        # undef, poison, constants, both args all appear in the corpus
        corpus = "".join(
            print_module(f.module) for f in enumerate_functions(1)
        )
        for token in ("undef", "poison", "%a", "%b", "-2"):
            assert token in corpus

    def test_custom_opcode_set(self):
        fns = list(enumerate_functions(
            1, opcodes=(Opcode.ADD,), include_deferred=False))
        # 1 opcode x pool^2 where pool = 2 args + 4 constants
        assert len(fns) == 36
        for fn in fns:
            assert fn.entry.instructions[0].opcode is Opcode.ADD


class TestIndexedAccess:
    """start/stop slicing and random access into the enumeration space
    (what campaign shards use to partition work)."""

    def test_slice_matches_full_enumeration(self):
        full = [print_module(f.module) for f in enumerate_functions(1)]
        sliced = [print_module(f.module)
                  for f in enumerate_functions(1, start=100, stop=130)]
        assert sliced == full[100:130]

    def test_slices_tile_the_space(self):
        full = [print_module(f.module) for f in enumerate_functions(1)]
        tiled = []
        for start in range(0, 448, 100):
            tiled.extend(
                print_module(f.module)
                for f in enumerate_functions(1, start=start,
                                             stop=start + 100)
            )
        assert tiled == full

    def test_function_at_index(self):
        full = [print_module(f.module) for f in enumerate_functions(1)]
        for index in (0, 17, 250, 447):
            assert print_module(
                function_at_index(index, 1).module) == full[index]

    def test_function_at_index_bounds(self):
        with pytest.raises(IndexError):
            function_at_index(448, 1)
        with pytest.raises(IndexError):
            function_at_index(-1, 1)

    def test_function_at_index_same_with_cold_and_warm_cache(self):
        from repro.fuzz.optfuzz import _enum_spaces

        args = dict(width=2, num_args=2, opcodes=list(SMALL_OPCODES),
                    include_flags=True)
        indices = (0, 9_999, 123_456, enumeration_size(2, **args) - 1)
        _enum_spaces.cache_clear()
        cold = [print_module(function_at_index(i, 2, **args).module)
                for i in indices]
        assert _enum_spaces.cache_info().misses == 1
        warm = [print_module(function_at_index(i, 2, **args).module)
                for i in indices]
        assert _enum_spaces.cache_info().hits >= len(indices)
        assert cold == warm

    def test_cached_spaces_are_immutable(self):
        from repro.fuzz.optfuzz import _enum_spaces

        spaces = _enum_spaces(1, 2, 2, SMALL_OPCODES, True, False)
        assert _enum_spaces(1, 2, 2, SMALL_OPCODES, True, False) is spaces
        with pytest.raises(TypeError):
            spaces[0][0] = spaces[0][1]
        with pytest.raises(AttributeError):
            spaces[0][0].opcode = Opcode.XOR

    def test_limit_composes_with_start(self):
        fns = list(enumerate_functions(1, start=440, limit=100))
        assert len(fns) == 8  # clipped at the end of the space

    def test_enumeration_size_counts_flags(self):
        plain = enumeration_size(1)
        flagged = enumeration_size(1, include_flags=True)
        assert plain == count_functions(1) == 448
        assert flagged > plain


class TestRandomGeneration:
    def test_seeded_reproducible(self):
        a = [print_module(f.module)
             for f in random_functions(10, seed=42)]
        b = [print_module(f.module)
             for f in random_functions(10, seed=42)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [print_module(f.module) for f in random_functions(10, seed=1)]
        b = [print_module(f.module) for f in random_functions(10, seed=2)]
        assert a != b

    def test_all_valid(self):
        for fn in random_functions(50, seed=5):
            verify_function(fn)

    def test_explicit_rng_overrides_seed(self):
        via_seed = [print_module(f.module)
                    for f in random_functions(10, seed=42)]
        via_rng = [print_module(f.module)
                   for f in random_functions(10, seed=999,
                                             rng=random.Random(42))]
        assert via_seed == via_rng

    def test_rng_state_is_consumed_sequentially(self):
        """One rng threaded through two calls continues the stream —
        how a shard worker resumes a derived stream mid-way."""
        whole = [print_module(f.module)
                 for f in random_functions(10, seed=3)]
        rng = random.Random(3)
        first = [print_module(f.module)
                 for f in random_functions(4, rng=rng)]
        second = [print_module(f.module)
                  for f in random_functions(6, rng=rng)]
        assert first + second == whole

    def test_icmp_and_select_appear(self):
        corpus = "".join(
            print_module(f.module)
            for f in random_functions(80, seed=11)
        )
        assert "icmp" in corpus
        assert "select" in corpus


class TestValidationWorkflow:
    """The E5 loop in miniature, locked into the test suite."""

    def test_legacy_instcombine_caught(self):
        opts = CheckOptions(max_choices=20, fuel=600)
        failures = 0
        for fn in enumerate_functions(
            1, opcodes=(Opcode.MUL, Opcode.SHL), include_deferred=True
        ):
            src_text = print_module(fn.module)
            before = parse_function(src_text)
            single_pass_pipeline(
                "instcombine", OptConfig.legacy()).run_on_function(fn)
            verify_function(fn)
            if check_refinement(before, fn, OLD, options=opts).failed:
                failures += 1
        assert failures > 0

    def test_fixed_instcombine_clean(self):
        opts = CheckOptions(max_choices=20, fuel=600)
        for fn in enumerate_functions(
            1, opcodes=(Opcode.MUL, Opcode.SHL), include_deferred=True
        ):
            src_text = print_module(fn.module)
            before = parse_function(src_text)
            single_pass_pipeline(
                "instcombine", OptConfig.fixed()).run_on_function(fn)
            verify_function(fn)
            result = check_refinement(before, fn, NEW, options=opts)
            assert not result.failed, (
                f"fixed InstCombine miscompiled:\n{src_text}\n{result}"
            )
