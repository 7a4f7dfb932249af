"""The fixpoint loop's no-change memo is invisible.

Within one ``run_on_function`` call the pass manager skips an
application when a pass with the same memo key already ran to no change
on the function's current state.  These tests hold the memoized
:class:`PassManager` and :class:`GuardedPassManager` to a reference loop
that runs every application: the same IR byte for byte and the same
number of counted applications, over the whole 1-instruction i2 corpus
and a seeded sample of random 3-instruction functions, under the fixed
and the legacy configuration.
"""

import json
import os
import pickle
from itertools import chain

import pytest

from repro.cli import main as repro_main
from repro.diag import default_registry
from repro.fuzz import enumerate_functions, random_functions
from repro.ir import parse_function, print_function
from repro.opt import OptConfig, o2_pipeline
from repro.opt.inliner import Inliner
from repro.opt.pass_manager import FunctionPass, PassManager
from repro.opt.resilience import (
    ChaosEngine,
    GuardedPassManager,
    guarded_pipeline,
)
from repro.semantics.config import NEW, OLD

CONFIGS = {
    "fixed": lambda: OptConfig.fixed(NEW),
    "legacy": lambda: OptConfig.legacy(OLD),
}

SKIPPED = ("pass-manager", "num-skipped-applications")

LOOPY = """
define i8 @main(i8 %n) {
entry:
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %next, %loop ]
  %m = mul i8 %i, 2
  %next = add i8 %m, 1
  %done = icmp uge i8 %next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i8 %next
}
"""


def _corpus():
    return chain(enumerate_functions(1),
                 random_functions(1024, num_instructions=3, seed=2024))


def _reference_loop(fn, pipeline):
    """The fixpoint loop without the memo; returns how many
    applications it made."""
    applications = 0
    for _ in range(pipeline.max_iterations):
        changed = False
        for p in pipeline.passes:
            applications += 1
            changed |= p.run_on_function(fn)
        if not changed:
            break
    return applications


def _skipped():
    return default_registry().get(*SKIPPED)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_memo_matches_the_reference_loop(config):
    make = CONFIGS[config]
    reference = o2_pipeline(make())
    skipped_before = _skipped()
    count = 0
    for ref_fn, fn, guarded_fn in zip(_corpus(), _corpus(), _corpus()):
        count += 1
        applications = _reference_loop(ref_fn, reference)
        expected = print_function(ref_fn)
        o2_pipeline(make()).run_on_function(fn)
        assert print_function(fn) == expected
        guarded = guarded_pipeline("o2", make())
        guarded.run_on_function(guarded_fn)
        assert print_function(guarded_fn) == expected
        assert guarded.pass_counter == applications
    assert count == 448 + 1024
    # the memo must have engaged, or the comparison proves nothing
    assert _skipped() > skipped_before


class _Counting(FunctionPass):
    """Reports no change and counts its runs in a shared list."""

    name = "counting"

    def __init__(self, config=None, runs=None):
        super().__init__(config)
        self.runs = runs

    def run_on_function(self, fn):
        self.runs.append(fn.name)
        return False


class _Tagged(FunctionPass):
    name = "tagged"

    def __init__(self, config=None, tag=0, runs=None):
        super().__init__(config)
        self.tag = tag
        self.runs = runs

    def memo_key(self):
        return (type(self), self.config, self.tag)

    def run_on_function(self, fn):
        self.runs.append(self.tag)
        return False


def test_equal_keys_skip_and_different_arguments_do_not():
    runs = []
    config = OptConfig.fixed()
    passes = [_Tagged(config, 1, runs), _Tagged(config, 2, runs),
              _Tagged(config, 1, runs), _Tagged(OptConfig.legacy(), 1, runs)]
    PassManager(passes, max_iterations=2).run_on_function(
        parse_function(LOOPY))
    # the third pass repeats the first's key; the fourth differs in its
    # config; nothing changed, so the loop stops after one iteration
    assert runs == [1, 2, 1]


def test_constructor_arguments_are_part_of_the_key():
    config = OptConfig.fixed()
    assert Inliner(config).memo_key() == Inliner(config).memo_key()
    assert Inliner(config).memo_key() != \
        Inliner(config, threshold=3).memo_key()


def test_config_hash_is_cached_but_never_pickled():
    config = OptConfig.legacy()
    h = hash(config)
    assert "_hash" not in config.__getstate__()
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config and hash(copy) == h
    assert hash(OptConfig.legacy()) == h
    assert config.with_(gvn_fold_freeze=True) != config


def test_unhashable_key_is_never_skipped():
    runs = []
    # the shared list is an instance attribute, so the key is unhashable
    passes = [_Counting(runs=runs), _Counting(runs=runs)]
    PassManager(passes, max_iterations=1).run_on_function(
        parse_function(LOOPY))
    assert len(runs) == 2


def test_change_forgets_what_was_settled():
    log = []

    class Once(FunctionPass):
        name = "once"

        def run_on_function(self, fn):
            log.append("once")
            return len(log) == 2

    class Probe(FunctionPass):
        name = "probe"

        def run_on_function(self, fn):
            log.append("probe")
            return False

    PassManager([Probe(), Once(), Probe(), Once()],
                max_iterations=1).run_on_function(parse_function(LOOPY))
    # the second probe runs again: the first Once changed the function
    assert log == ["probe", "once", "probe", "once"]
    log.clear()
    PassManager([Probe(), Probe(), Probe()],
                max_iterations=1).run_on_function(parse_function(LOOPY))
    assert log == ["probe"]


def test_skipped_application_keeps_its_bisect_number():
    runs = []
    passes = [_Tagged(tag=1, runs=runs), _Tagged(tag=1, runs=runs),
              _Tagged(tag=2, runs=runs)]
    pm = GuardedPassManager(passes, max_iterations=1)
    pm.run_on_function(parse_function(LOOPY))
    assert runs == [1, 2]
    assert pm.pass_counter == 3
    assert [a[0] for a in pm.applications] == [1, 2, 3]
    assert pm.stats["tagged"].runs == 2


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_chaos_wrappers_are_never_skipped(config):
    skipped_before = _skipped()
    engine = ChaosEngine(seed=5, rate=0.0)
    pm = guarded_pipeline("o2", CONFIGS[config](), chaos=engine)
    pm.run_on_function(parse_function(LOOPY))
    assert engine.count == pm.pass_counter
    assert _skipped() == skipped_before
    plain = guarded_pipeline("o2", CONFIGS[config]())
    plain.run_on_function(parse_function(LOOPY))
    assert plain.pass_counter == pm.pass_counter
    assert _skipped() > skipped_before


def test_bisect_example_still_finds_the_injected_application(capsys):
    example = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "examples", "bisect_hunt.ll")
    assert repro_main(["bisect", example, "--chaos-fail-at", "5",
                       "--chaos-mode", "corrupt", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["status"] == "found" and result["culprit"] == 5, result
