"""Each lint rule ships a compliant and a non-compliant example
(``examples/lint_rules/<rule>/``), and the exact oracle behind
lint-attack and lint-audit agrees with the rule on both: the rule's
verdict on the non-compliant example is a true positive, and its
silence on the compliant one a true negative."""

import os

import pytest

from repro.lint import RULES
from repro.mutate import Mutation, classify_mutation
from repro.semantics import NEW

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "examples", "lint_rules")


def _score(rule_id, kind):
    with open(os.path.join(EXAMPLES, rule_id, f"{kind}.ll")) as f:
        text = f.read()
    # any mutator the rule is attacked by puts the rule under scoring
    mutation = Mutation(mutator=RULES[rule_id].attacked_by[0],
                        kind="example", seed="f", site="", detail=kind,
                        ir=text)
    observations, _ = classify_mutation(mutation, NEW, rules=[rule_id])
    return [obs.verdict for obs in observations]


def test_every_rule_has_a_pair():
    assert sorted(os.listdir(EXAMPLES)) == sorted(RULES)
    for rule_id in RULES:
        assert sorted(os.listdir(os.path.join(EXAMPLES, rule_id))) == [
            "compliant.ll", "non_compliant.ll"]


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_non_compliant_example_is_a_true_positive(rule_id):
    assert _score(rule_id, "non_compliant") == ["tp"]


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_compliant_example_is_a_true_negative(rule_id):
    assert _score(rule_id, "compliant") == ["tn"]
