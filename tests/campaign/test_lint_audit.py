"""Differential lint audit: claim validation, planted-bug detection,
reduction, bundles, the oracle's two engines, and the campaign CLI
surface."""

import contextlib
import json
from unittest import mock

import pytest

import repro.mutate.ground_truth as ground_truth
from repro.campaign import lint_audit
from repro.campaign.cli import campaign_main
from repro.campaign.lint_audit import audit_function, run_lint_audit
from repro.analysis.poison_flow import MUST_NOT_POISON, MUST_POISON
from repro.diag import stats_snapshot
from repro.fuzz.optfuzz import enumeration_size
from repro.ir import Opcode, parse_module
from repro.mutate import ClassifyOptions
from repro.opt.resilience.bundle import list_bundles, load_bundle
from repro.semantics import NEW, OLD
from repro.semantics.vector import VectorIneligible, numpy_available


def _fn(text, name="f"):
    return parse_module(text).get_function(name)


def _ineligible(*args, **kwargs):
    raise VectorIneligible("forced", "scalar path forced by the test")


def _engines():
    """A context per oracle engine: as configured (the vector engine
    when numpy is there), then with every function forced scalar."""
    return {"vector": contextlib.nullcontext(),
            "scalar": mock.patch.object(ground_truth, "VectorPlan",
                                        _ineligible)}


def _counter(name):
    return stats_snapshot().get("lint-audit", {}).get(name, 0)


def test_sound_claims_have_no_contradictions():
    fn = _fn("""
define i2 @f(i2 %a, i2 %b) {
entry:
  %v0 = add i2 %a, %b
  %v1 = shl nsw i2 %v0, poison
  ret i2 %v1
}""")
    found, tally = audit_function(fn, NEW)
    assert found == []
    assert tally["must"] >= 1  # %v1 has a poison operand: must-poison
    assert tally["observations"] > 0


def test_silent_verdicts_counted():
    fn = _fn("""
define i2 @f(i2 %a) {
entry:
  %v0 = add i2 0, 1
  %v1 = udiv i2 %a, %v0
  ret i2 %v1
}""")
    _, tally = audit_function(fn, NEW)
    assert tally["must_not"] == 1
    assert tally["silent_verdicts"] == 1


def test_planted_bug_is_caught_and_reduced(tmp_path):
    # Force the auditor to believe `add nsw %a, 1` is never poison; the
    # interpreter refutes it on an overflowing input.
    def bogus(fn, semantics):
        return [(inst, MUST_NOT_POISON)
                for b in fn.blocks for inst in b.instructions
                if not inst.type.is_void and not inst.is_terminator]

    fn = _fn("""
define i2 @f(i2 %a) {
entry:
  %v0 = add nsw i2 %a, 1
  ret i2 %v0
}""")
    for engine, forced in _engines().items():
        bundles = str(tmp_path / engine)
        with forced, mock.patch.object(lint_audit, "_collect_claims", bogus):
            found, _ = audit_function(fn, NEW, index=7, bundle_dir=bundles)
        assert len(found) == 1, engine
        (c,) = found
        assert c.claim == MUST_NOT_POISON and c.value_ref == "%v0"
        # a, and a + 1 overflowing to poison, on the first such input
        assert (c.inputs, c.observed_bits) == ((1,), "pp")
        # the reduced reproducer is parseable and contains only the slice
        reduced = parse_module(c.reduced_ir)
        body = reduced.get_function("reduced")
        assert [i.ref() for i in body.entry.instructions[:1]] == ["%v0"]
        # a crash bundle was written for offline triage
        assert c.bundle_path
        paths = list_bundles(bundles)
        assert len(paths) == 1
        bundle = load_bundle(paths[0])
        assert bundle["kind"] == "lint-audit-soundness"
        assert bundle["pass"] == "poison-flow"
        assert bundle["application"] == 7
        assert "refuted" in bundle["error"]


def test_planted_must_poison_bug_is_caught():
    def bogus(fn, semantics):
        return [(inst, MUST_POISON)
                for b in fn.blocks for inst in b.instructions
                if not inst.type.is_void and not inst.is_terminator]

    fn = _fn("""
define i2 @f(i2 %a) {
entry:
  %v0 = add i2 %a, 1
  ret i2 %v0
}""")
    for engine, forced in _engines().items():
        with forced, mock.patch.object(lint_audit, "_collect_claims", bogus):
            found, _ = audit_function(fn, NEW)
        assert found and found[0].claim == MUST_POISON, engine
        # a + 1 is defined on the first input
        assert found[0].observed_bits == "01", engine


def test_run_lint_audit_strided_clean():
    report = run_lint_audit(width=2, instructions=1,
                            opcodes=("add", "udiv"),
                            include_flags=True, limit=60, stride=17)
    assert report["contradictions"] == []
    # the strided walk covers the whole (small) space
    assert 0 < report["totals"]["functions"] <= 60
    assert report["totals"]["observations"] > 0
    assert report["spec"]["stride"] == 17


def test_campaign_cli_lint_audit(tmp_path, capsys):
    out = str(tmp_path / "campaign")
    code = campaign_main([
        "lint-audit", "--instructions", "1", "--opcodes", "add,udiv",
        "--limit", "40", "--out", out, "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["contradictions"] == []
    assert report["totals"]["functions"] == 40
    # default stride spreads the limit across the whole space
    assert report["spec"]["stride"] > 1


def test_campaign_cli_lint_audit_human_output(tmp_path, capsys):
    out = str(tmp_path / "campaign")
    code = campaign_main([
        "lint-audit", "--instructions", "1", "--opcodes", "add",
        "--limit", "20", "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "no contradictions" in text


#: E11's audit corpus and the totals the scalar-only audit reported on it
_E11_OPS = ("add", "mul", "udiv", "shl")
_E11_TOTALS = {
    "new": {"functions": 600, "claims": 542, "must_not": 136, "must": 406,
            "observations": 11809, "silent_verdicts": 0, "unaudited": 0},
    "old": {"functions": 600, "claims": 348, "must_not": 136, "must": 212,
            "observations": 15716, "silent_verdicts": 0, "unaudited": 0},
}
_E11_FINDINGS = {"dead-on-poison-flag": 229, "ub-sink-reaches-poison": 21}


@pytest.mark.parametrize("semantics", [NEW, OLD], ids=lambda c: c.name)
def test_e11_corpus_totals_equal_on_both_engines(semantics):
    total = enumeration_size(2, width=2, include_flags=True,
                             opcodes=tuple(Opcode(o) for o in _E11_OPS))
    for engine, forced in _engines().items():
        vector_before = _counter("num-vector-functions")
        fallbacks_before = _counter("num-vector-fallbacks")
        with forced:
            report = run_lint_audit(width=2, instructions=2,
                                    opcodes=_E11_OPS, include_flags=True,
                                    limit=600, stride=total // 600,
                                    semantics=semantics)
        assert report["totals"] == _E11_TOTALS[semantics.name], engine
        assert report["contradictions"] == [], engine
        assert report["lint_findings"] == _E11_FINDINGS, engine
        vector = _counter("num-vector-functions") - vector_before
        fallbacks = _counter("num-vector-fallbacks") - fallbacks_before
        if engine == "scalar":
            assert vector == 0 and fallbacks > 0
        elif numpy_available():
            assert vector > 0 and fallbacks == 0
        assert report["stats"]["lint-audit"].get(
            "num-vector-functions", 0) == vector


def test_over_budget_or_failed_enumeration_is_unaudited():
    fn = _fn("""
define i2 @f(i2 %a) {
entry:
  %v0 = add i2 0, 1
  %v1 = udiv i2 %a, %v0
  ret i2 %v1
}""")
    found, tally = audit_function(fn, NEW, ClassifyOptions(max_inputs=2))
    assert (found, tally["unaudited"], tally["observations"]) == ([], 1, 0)

    def broken(*args, **kwargs):
        raise RuntimeError("interpreter bug")

    with _engines()["scalar"], \
            mock.patch.object(ground_truth, "enumerate_behaviors", broken):
        found, tally = audit_function(fn, NEW)
    assert (found, tally["unaudited"]) == ([], 1)
    assert tally["claims"] == 1


def test_functions_of_one_module_audit_independently():
    # the observation callees of one audit must not clash with the next
    # one's, and the module must not change
    module = parse_module("""
define i2 @f(i2 %a) {
entry:
  %v = add i2 0, 1
  %w = udiv i2 %a, %v
  ret i2 %w
}

define i1 @g(i2 %a) {
entry:
  %c = icmp eq i2 0, 1
  ret i1 %c
}""")
    before = sorted(module.functions)
    for name in ("f", "g", "f"):
        found, tally = audit_function(module.get_function(name), NEW)
        assert (found, tally["claims"], tally["unaudited"]) == ([], 1, 0)
        assert tally["observations"] > 0
    assert sorted(module.functions) == before
