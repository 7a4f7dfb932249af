"""Ground truth decides the same on both engines.

``classify_mutation`` scores a mutant with one lane-parallel vector run
per function when it can and with the scalar interpreter otherwise.
Forcing every mutant onto the scalar path must change nothing: the same
observations (every field, the detail text and reduced reproducer
included) and the same oracle event counts.  The corpora are E16's and
two slices of the end-to-end benchmark's lint-attack rounds that hold
real disagreements (false positives and, under OLD, false negatives).
"""

import pytest

import repro.mutate.ground_truth as ground_truth
from repro.campaign.lint_attack import AttackSpec
from repro.diag import stats_snapshot
from repro.mutate import Mutation, classify_mutation, mutate_function
from repro.semantics import NEW, OLD
from repro.semantics.vector import VectorIneligible, numpy_available

#: the end-to-end benchmark's lint-attack stride (192 seeds per round)
E2E_STRIDE = 3267


def _e16_spec(semantics):
    spec = AttackSpec(limit=16, shard_size=2, semantics_name=semantics)
    return spec.with_(stride=spec.enumeration_size() // 16)


def _round_spec(k, semantics):
    return AttackSpec(limit=24, stride=E2E_STRIDE,
                      start=k * 7919 % E2E_STRIDE,
                      semantics_name=semantics)


CORPORA = {
    "e16": _e16_spec,
    "round1": lambda semantics: _round_spec(1, semantics),
    "round6": lambda semantics: _round_spec(6, semantics),
}


def _scored(spec):
    """``(mutator, observation dicts, events)`` for every mutant."""
    semantics = spec.semantics()
    opts = spec.classify_options()
    out = []
    for position in range(spec.total_functions()):
        for mutation in mutate_function(spec.seed_at(position)):
            observations, events = classify_mutation(
                mutation, semantics, opts)
            out.append((mutation.mutator,
                        [obs.as_dict() for obs in observations], events))
    return out


def _counter(name):
    return stats_snapshot().get("lint-attack", {}).get(name, 0)


def _force_scalar(monkeypatch):
    def ineligible(*args, **kwargs):
        raise VectorIneligible("forced", "scalar path forced by the test")

    monkeypatch.setattr(ground_truth, "VectorPlan", ineligible)


def test_e2e_stride_matches_the_benchmark():
    assert AttackSpec().enumeration_size() // 192 == E2E_STRIDE


@pytest.mark.parametrize("semantics", ["new", "old"])
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_forced_scalar_path_scores_identically(corpus, semantics,
                                               monkeypatch):
    spec = CORPORA[corpus](semantics)
    vector_before = _counter("num-vector-mutants")
    fast = _scored(spec)
    if numpy_available():
        assert _counter("num-vector-mutants") > vector_before

    _force_scalar(monkeypatch)
    vector_before = _counter("num-vector-mutants")
    fallbacks_before = _counter("num-vector-fallbacks")
    slow = _scored(spec)
    assert _counter("num-vector-mutants") == vector_before
    assert _counter("num-vector-fallbacks") > fallbacks_before

    assert len(fast) == len(slow)
    for got, want in zip(fast, slow):
        assert got == want
    verdicts = {obs["verdict"] for _, scored, _ in slow for obs in scored}
    if corpus != "e16":
        assert "fp" in verdicts  # the slices hold real disagreements


#: the site's value is poison on input (1, y) for every y: the first such
#: input (y = 0) then divides by zero, the next ones return
POISON_BEFORE_UB = Mutation(
    mutator="route-call", kind="ub-inject", seed="f", site="%p",
    detail="hand-written", ir="""declare void @__attack_sink(i2)

define i2 @f(i2 %x, i2 %y) {
entry:
  %p = add nsw i2 %x, 1
  call void @__attack_sink(i2 %p)
  %d = udiv i2 1, %y
  ret i2 %d
}
""")


@pytest.mark.parametrize("semantics", [NEW, OLD], ids=lambda c: c.name)
def test_example_is_the_first_poisoned_input_across_ub_and_returns(
        semantics, monkeypatch):
    fast = classify_mutation(POISON_BEFORE_UB, semantics)
    assert fast[0][0].detail.endswith("on inputs (1, 0)")
    _force_scalar(monkeypatch)
    assert classify_mutation(POISON_BEFORE_UB, semantics) == fast
