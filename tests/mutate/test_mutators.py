"""Mutator library: registry coverage and mutant well-formedness."""

import pytest

from repro.ir import Opcode, parse_function, parse_module
from repro.lint import RULES
from repro.mutate import (
    KIND_UB_INJECT,
    KIND_UB_REMOVE,
    MUTATORS,
    all_mutator_names,
    mutate_function,
    rules_attacked_by,
)

SEED = parse_function("""
define i4 @seed(i4 %x, i4 %y) {
entry:
  %a = add nsw i4 %x, %y
  %b = mul i4 %a, %y
  ret i4 %b
}""")


def _mutants(name):
    return mutate_function(parse_function(print_seed()), [name])


def print_seed():
    from repro.ir import print_function

    return print_function(SEED)


def test_registry_names_and_kinds():
    assert len(MUTATORS) >= 15
    for name, m in MUTATORS.items():
        assert m.name == name
        assert m.kind in (KIND_UB_INJECT, KIND_UB_REMOVE)
        assert m.description
    assert set(all_mutator_names()) == set(MUTATORS)


def test_every_rule_names_real_mutators():
    for rule in RULES.values():
        assert rule.attacked_by, rule.rule_id
        for name in rule.attacked_by:
            assert name in MUTATORS, (rule.rule_id, name)


def test_every_mutator_attacks_some_rule():
    covered = set()
    for rule in RULES.values():
        covered.update(rule.attacked_by)
    assert covered == set(MUTATORS)


def test_rules_attacked_by_join():
    assert "dead-on-poison-flag" in rules_attacked_by("add-nsw")
    assert "ub-sink-reaches-poison" in rules_attacked_by("route-divisor")


def test_unknown_mutator_raises():
    with pytest.raises(ValueError, match="unknown mutator"):
        mutate_function(SEED, ["no-such-mutator"])


def test_all_mutants_parse_and_keep_seed_name():
    mutations = mutate_function(SEED)
    assert mutations
    seen = set()
    for m in mutations:
        assert m.seed == "seed"
        assert m.mutator in MUTATORS
        assert m.kind == MUTATORS[m.mutator].kind
        module = parse_module(m.ir)  # every mutant is well-formed IR
        assert module.get_function("seed") is not None
        seen.add(m.mutator)
    # the seed has a flagged add, a flagless mul, and a valued return:
    # a representative slice of the library applies (narrow-shift needs
    # a shift site and has its own test below).
    for name in ("add-nuw", "drop-flags", "insert-freeze", "route-branch",
                 "route-divisor", "discard-result"):
        assert name in seen


def test_add_nsw_sets_flag_on_flagless_site():
    fn = parse_function("""
define i4 @seed(i4 %x) {
entry:
  %a = add i4 %x, 1
  ret i4 %a
}""")
    (m,) = mutate_function(fn, ["add-nsw"])
    mutant = parse_module(m.ir).get_function("seed")
    (inst,) = [i for i in mutant.blocks[0].instructions
               if getattr(i, "opcode", None) == Opcode.ADD]
    assert inst.nsw
    assert m.kind == KIND_UB_INJECT


def test_narrow_shift_uses_full_width_amount():
    fn = parse_function("""
define i4 @seed(i4 %x) {
entry:
  %a = shl i4 %x, 1
  ret i4 %a
}""")
    mutations = mutate_function(fn, ["narrow-shift"])
    assert mutations
    assert any("shl i4 %x, 4" in m.ir for m in mutations)


def test_insert_freeze_is_ub_removing_and_parses():
    (m,) = mutate_function(SEED, ["insert-freeze"])
    assert m.kind == KIND_UB_REMOVE
    assert "freeze" in m.ir
    parse_module(m.ir)


def test_route_call_declares_sink_before_use():
    mutations = mutate_function(SEED, ["route-call"])
    assert mutations
    for m in mutations:
        assert m.ir.index("declare") < m.ir.index("define")
        parse_module(m.ir)


def test_mutation_as_dict_round_trips_fields():
    (m,) = mutate_function(SEED, ["guard-branch"])
    data = m.as_dict()
    assert data["mutator"] == "guard-branch"
    assert data["seed"] == "seed"
    assert data["ir"] == m.ir


def test_mutants_match_the_print_and_parse_copy(monkeypatch):
    """Cloning the seed into a fresh module (instead of printing and
    re-parsing it) leaves every mutant's text unchanged."""
    import repro.mutate.mutators as mutators
    from repro.campaign.lint_attack import AttackSpec
    from repro.ir import print_function

    spec = AttackSpec(limit=64)
    spec = spec.with_(stride=spec.enumeration_size() // 64)
    seeds = [spec.seed_at(position) for position in range(64)]
    cloned = [[m.ir for m in mutate_function(seed)] for seed in seeds]

    def print_and_parse(fn):
        return parse_module(print_function(fn)).get_function(fn.name)

    monkeypatch.setattr(mutators, "_copy", print_and_parse)
    parsed = [[m.ir for m in mutate_function(seed)] for seed in seeds]
    assert sum(map(len, cloned)) > 64
    assert cloned == parsed
