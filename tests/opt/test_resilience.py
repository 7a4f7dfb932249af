"""Resilient pass pipeline: snapshots, recovery policies, chaos,
bisect, and crash bundles."""

import pytest

from repro.ir import (
    parse_function,
    parse_module,
    print_function,
    verify_function,
    verify_module,
)
from repro.ir.verifier import VerificationError
from repro.fuzz import enumerate_functions, random_functions
from repro.opt import (
    ChaosEngine,
    ChaosFault,
    GuardedPassError,
    GuardedPassManager,
    OptConfig,
    baseline_config,
    guarded_pipeline,
    o2_pipeline,
    prototype_config,
)
from repro.opt.pass_manager import FunctionPass
from repro.opt.resilience import (
    bisect_failure,
    bundle_id,
    clone_function,
    discard_snapshot,
    list_bundles,
    load_bundle,
    make_bundle_payload,
    replay_bundle,
    restore_function,
    wrap_with_chaos,
    write_bundle,
)
from repro.opt.resilience import guard as guard_module
from repro.opt.resilience.snapshot import print_standalone

LOOPY = """
define i8 @main(i8 %n, i1 %c) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %next, %latch ]
  %cmp = icmp ult i8 %i, %n
  br i1 %cmp, label %body, label %exit
body:
  br i1 %c, label %then, label %latch
then:
  br label %latch
latch:
  %inc = phi i8 [ 1, %body ], [ 2, %then ]
  %next = add i8 %i, %inc
  br label %head
exit:
  ret i8 %i
}
"""

CALLS = """
declare void @effect(i8)

define i8 @main(i8 %x) {
entry:
  %a = add i8 %x, 1
  call void @effect(i8 %a)
  ret i8 %a
}
"""


class CrashingPass(FunctionPass):
    """Raises after corrupting the function — the worst-case pass."""

    name = "crasher"

    def __init__(self, config=None, corrupt=True):
        super().__init__(config)
        self.corrupt = corrupt

    def run_on_function(self, fn):
        if self.corrupt:
            block = fn.blocks[0]
            term = block.instructions.pop()
            term.drop_all_operands()
            term.parent = None
        raise RuntimeError("boom")


class CorruptingPass(FunctionPass):
    """Silently breaks the IR and reports success."""

    name = "corrupter"

    def run_on_function(self, fn):
        block = fn.blocks[-1]
        term = block.instructions.pop()
        term.drop_all_operands()
        term.parent = None
        return True


class NopPass(FunctionPass):
    name = "nop"

    def run_on_function(self, fn):
        return False


class RecordingPass(FunctionPass):
    """Runs a real pass, logging the IR it was handed and whether it
    reported a change."""

    def __init__(self, inner, log):
        super().__init__(inner.config)
        self.inner = inner
        self.name = inner.name
        self.log = log

    def run_on_function(self, fn):
        before = print_function(fn)
        changed = self.inner.run_on_function(fn)
        self.log.append((before, changed))
        return changed


class SpinnerPass(FunctionPass):
    """Always reports a change, keeping the fixpoint loop running."""

    name = "spinner"

    def run_on_function(self, fn):
        return True


# -- snapshots --------------------------------------------------------------
def test_snapshot_roundtrip_preserves_printer_output():
    fn = parse_function(LOOPY)
    original = print_function(fn)
    snap = clone_function(fn)
    # mutilate the live function
    fn.blocks[0].instructions.pop()
    restore_function(fn, snap)
    verify_function(fn)
    assert print_function(fn) == original


def test_snapshot_discard_leaves_no_stale_uses():
    fn = parse_function(LOOPY)
    arg = fn.args[0]
    uses_before = len(arg.uses)
    snap = clone_function(fn)
    discard_snapshot(snap)
    assert len(arg.uses) == uses_before


def test_snapshot_is_detached():
    fn = parse_function(LOOPY)
    snap = clone_function(fn)
    assert snap.module is None
    assert all(b.parent is snap for b in snap.blocks)
    live_insts = {id(i) for i in fn.instructions()}
    assert all(id(i) not in live_insts for i in snap.instructions())


def test_print_standalone_roundtrips_calls_and_globals():
    fn = parse_module(CALLS).get_function("main")
    text = print_standalone(fn)
    assert "declare void @effect(i8)" in text
    reparsed = parse_function(text)
    verify_function(reparsed)


# -- recovery policies ------------------------------------------------------
def test_recover_rolls_back_and_continues():
    fn = parse_function(LOOPY)
    original = print_function(fn)
    pm = GuardedPassManager([CrashingPass()], max_iterations=1,
                            policy="recover")
    pm.run_on_function(fn)
    assert print_function(fn) == original
    assert pm.num_recoveries == 1
    failure = pm.failures[0]
    assert failure.pass_name == "crasher"
    assert failure.kind == "exception"
    assert "boom" in failure.error


def test_verify_each_catches_silent_corruption():
    fn = parse_function(LOOPY)
    original = print_function(fn)
    pm = GuardedPassManager([CorruptingPass()], max_iterations=1,
                            policy="recover", verify_each=True)
    pm.run_on_function(fn)
    assert print_function(fn) == original
    assert pm.failures[0].kind == "verify"


def test_without_verify_each_corruption_slips_through():
    fn = parse_function(LOOPY)
    pm = GuardedPassManager([CorruptingPass()], max_iterations=1,
                            policy="recover", verify_each=False)
    pm.run_on_function(fn)
    assert not pm.failures
    with pytest.raises(VerificationError):
        verify_function(fn)


def test_strict_reraises_after_rollback():
    fn = parse_function(LOOPY)
    original = print_function(fn)
    pm = GuardedPassManager([CrashingPass()], max_iterations=1,
                            policy="strict")
    with pytest.raises(GuardedPassError) as exc:
        pm.run_on_function(fn)
    assert exc.value.failure.pass_name == "crasher"
    # rolled back before re-raising
    assert print_function(fn) == original


def test_quarantine_disables_repeat_offender():
    pm = GuardedPassManager([CrashingPass(corrupt=False), SpinnerPass()],
                            max_iterations=4, policy="quarantine",
                            quarantine_after=2)
    fn = parse_function(LOOPY)
    pm.run_on_function(fn)
    assert "crasher" in pm.quarantined
    # failures stop accumulating once quarantined
    assert len(pm.failures) == 2


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="policy"):
        GuardedPassManager([NopPass()], policy="yolo")


def test_guarded_o2_clean_run_verifies():
    fn = parse_module(LOOPY)
    pm = guarded_pipeline("o2", prototype_config(), verify_each=True)
    pm.run(fn)
    verify_module(fn)
    assert not pm.failures
    assert pm.pass_counter > 0


# -- opt-bisect -------------------------------------------------------------
def test_bisect_limit_skips_applications():
    pm = GuardedPassManager([NopPass(), NopPass(), NopPass()],
                            max_iterations=1, bisect_limit=2)
    fn = parse_function(LOOPY)
    pm.run_on_function(fn)
    # all three applications counted, the third skipped beyond the limit
    assert pm.pass_counter == 3
    assert [a[0] for a in pm.applications] == [1, 2, 3]
    assert pm.application(3) == (3, "nop", "main")


def test_bisect_finds_injected_fault():
    text = LOOPY

    def make_pipeline(limit):
        return guarded_pipeline(
            "o2", prototype_config(),
            chaos=ChaosEngine(seed=1, mode="corrupt", fail_at=(5,)),
            verify_each=False, policy="recover", bisect_limit=limit)

    def checker(module):
        try:
            verify_module(module)
            return True
        except VerificationError:
            return False

    result = bisect_failure(make_pipeline,
                            lambda: parse_module(text), checker)
    assert result.found
    assert result.culprit == 5
    assert result.pass_name
    assert result.probes <= 2 + result.total_applications.bit_length() + 1


def test_bisect_clean_pipeline():
    result = bisect_failure(
        lambda limit: guarded_pipeline("quick", prototype_config(),
                                       bisect_limit=limit),
        lambda: parse_module(LOOPY),
        lambda module: True)
    assert result.status == "clean"


def test_bisect_input_already_bad():
    result = bisect_failure(
        lambda limit: guarded_pipeline("quick", prototype_config(),
                                       bisect_limit=limit),
        lambda: parse_module(LOOPY),
        lambda module: False)
    assert result.status == "fails-without-passes"


# -- chaos ------------------------------------------------------------------
def test_chaos_schedule_is_deterministic():
    def run(seed):
        fn = parse_module(LOOPY)
        pm = guarded_pipeline("o2", prototype_config(),
                              chaos=ChaosEngine(seed=seed, rate=0.3),
                              verify_each=True, policy="recover")
        pm.run(fn)
        verify_module(fn)
        return [(f.pass_name, f.application, f.kind, f.injected_action)
                for f in pm.failures]

    first = run(7)
    assert first, "seed 7 at rate 0.3 should inject at least one fault"
    assert first == run(7)
    assert any(f != s for f, s in zip(first, run(8))) or \
        len(first) != len(run(8))


def test_chaos_failures_marked_injected():
    fn = parse_module(LOOPY)
    pm = guarded_pipeline("o2", prototype_config(),
                          chaos=ChaosEngine(seed=3, rate=1.0, mode="raise"),
                          policy="recover")
    pm.run(fn)
    assert pm.failures
    assert all(f.injected and f.injected_action == "raise"
               for f in pm.failures)


def test_chaos_fault_is_distinguishable():
    assert ChaosFault("x").injected


# -- crash bundles ----------------------------------------------------------
def _one_failure(tmp_path):
    fn = parse_module(LOOPY)
    pm = guarded_pipeline("o2", prototype_config(),
                          chaos=ChaosEngine(seed=1, mode="corrupt",
                                            fail_at=(5,)),
                          verify_each=True, policy="recover",
                          crash_dir=str(tmp_path))
    pm.run(fn)
    assert len(pm.failures) == 1
    return pm.failures[0]


def test_bundle_names_are_content_hashed_and_deterministic(tmp_path):
    failure = _one_failure(tmp_path / "a")
    again = _one_failure(tmp_path / "b")
    import os

    assert os.path.basename(failure.bundle_path) == \
        os.path.basename(again.bundle_path)
    name = os.path.basename(failure.bundle_path)
    # <pass>-<application %04d>-<12 hex chars>, no timestamps
    parts = name.rsplit("-", 2)
    assert parts[0] == failure.pass_name
    assert parts[1] == f"{failure.application:04d}"
    assert len(parts[2]) == 12
    assert int(parts[2], 16) >= 0


def test_bundle_id_distinguishes_failures():
    a = make_bundle_payload(pre_ir="x", pass_name="gvn", application=1,
                            kind="verify", error="e1", traceback_text="")
    b = make_bundle_payload(pre_ir="x", pass_name="gvn", application=1,
                            kind="verify", error="e2", traceback_text="")
    assert bundle_id(a) != bundle_id(b)


def test_bundle_write_load_roundtrip(tmp_path):
    payload = make_bundle_payload(
        pre_ir=LOOPY, pass_name="gvn", application=3, kind="exception",
        error="RuntimeError: boom", traceback_text="tb",
        config=OptConfig.fixed(), function="main", policy="recover")
    path = write_bundle(str(tmp_path), payload)
    assert list_bundles(str(tmp_path)) == [path]
    loaded = load_bundle(path)
    assert loaded["pass"] == "gvn"
    assert loaded["before_ir"].strip() == LOOPY.strip()
    assert loaded["opt_config"]["semantics"] == "new"
    round_tripped = OptConfig.from_dict(loaded["opt_config"])
    assert round_tripped == OptConfig.fixed()


def test_replay_reproduces_injected_fault(tmp_path):
    failure = _one_failure(tmp_path)
    result = replay_bundle(failure.bundle_path)
    assert result.reproduced, result.outcome


def test_replay_clean_bundle_reports_no_repro(tmp_path):
    payload = make_bundle_payload(
        pre_ir=LOOPY, pass_name="dce", application=1, kind="exception",
        error="RuntimeError: gone", traceback_text="",
        function="main")
    path = write_bundle(str(tmp_path), payload)
    result = replay_bundle(path)
    assert not result.reproduced
    assert "clean" in result.outcome


# -- reporting --------------------------------------------------------------
def test_resilience_report_shape():
    fn = parse_module(LOOPY)
    pm = guarded_pipeline("o2", prototype_config(),
                          chaos=ChaosEngine(seed=7, rate=0.3),
                          verify_each=True, policy="recover")
    pm.run(fn)
    report = pm.resilience_report()
    assert report["policy"] == "recover"
    assert report["failures"] == len(pm.failures)
    assert report["recoveries"] == len(pm.failures)
    assert report["applications"] == pm.pass_counter
    assert all("@" in entry for entry in report["failed_passes"])


# -- snapshot reuse across unchanged applications ---------------------------
SMALL = """
define i2 @f(i2 %a, i2 %b) {
entry:
  %x = add i2 1, %a
  %y = mul i2 %x, 2
  %z = icmp uge i2 1, %y
  %r = select i1 %z, i2 %y, i2 %b
  ret i2 %r
}
"""


def _recorded_o2(text, config, fail_at=(), crash_dir=None):
    """Run guarded o2 over ``text`` with every pass recorded and corrupt
    faults at ``fail_at``; returns (function, manager, log)."""
    log = []
    base = o2_pipeline(config)
    passes = [RecordingPass(p, log) for p in base.passes]
    passes = wrap_with_chaos(
        passes, ChaosEngine(seed=1, mode="corrupt", fail_at=fail_at))
    pm = GuardedPassManager(passes, max_iterations=base.max_iterations,
                            verify_each=True, policy="recover",
                            crash_dir=crash_dir)
    fn = parse_function(text)
    pm.run_on_function(fn)
    return fn, pm, log


@pytest.mark.parametrize("after_change", [False, True],
                         ids=["after-unchanged", "after-changed"])
@pytest.mark.parametrize("text", [SMALL, LOOPY], ids=["small", "loopy"])
def test_rollback_restores_the_state_before_the_failing_application(
        tmp_path, text, after_change):
    _, _, clean = _recorded_o2(text, prototype_config())
    # a failing application k (1-based) whose predecessor k-1 reported
    # the wanted change flag, with an application after it
    k = next(k for k in range(2, len(clean))
             if clean[k - 2][1] is after_change)
    fn, pm, log = _recorded_o2(text, prototype_config(), fail_at=(k,),
                               crash_dir=str(tmp_path))
    assert log[k - 2][1] is after_change
    [failure] = pm.failures
    assert failure.application == k and failure.kind == "verify"
    before_failure = log[k - 1][0]
    assert before_failure == clean[k - 1][0]
    # the application after the rollback was handed the restored IR
    assert log[k][0] == before_failure
    bundle = load_bundle(failure.bundle_path)
    assert bundle["before_ir"] == before_failure + "\n"
    verify_function(fn)


def test_rollback_after_rollback_takes_a_fresh_snapshot(tmp_path):
    fn, pm, log = _recorded_o2(LOOPY, prototype_config(), fail_at=(3, 4),
                               crash_dir=str(tmp_path))
    assert [f.application for f in pm.failures] == [3, 4]
    for failure in pm.failures:
        bundle = load_bundle(failure.bundle_path)
        assert bundle["before_ir"] == log[failure.application - 1][0] + "\n"
    assert log[4][0] == log[3][0] == log[2][0]
    verify_function(fn)


def _corpus():
    yield parse_function(LOOPY)
    yield parse_function(SMALL)
    yield from enumerate_functions(1)
    yield from random_functions(96, num_instructions=3, seed=1000)


@pytest.mark.parametrize("config", [prototype_config(), baseline_config()],
                         ids=["fixed", "legacy"])
def test_clean_run_clones_once_plus_once_per_change(monkeypatch, config):
    clones = []
    real_clone = guard_module.clone_function

    def counting_clone(fn):
        clones.append(fn)
        return real_clone(fn)

    monkeypatch.setattr(guard_module, "clone_function", counting_clone)
    base = o2_pipeline(config)
    for fn in _corpus():
        log = []
        pm = GuardedPassManager(
            [RecordingPass(p, log) for p in base.passes],
            max_iterations=base.max_iterations)
        del clones[:]
        pm.run_on_function(fn)
        changes = sum(changed for _, changed in log)
        assert len(clones) <= changes + 1, print_function(fn)
        assert pm._snapshot is None


GLOBALS = """
@g = global i8 3

declare void @effect(i8)

define i8 @main(i8 %x, i8 %y) {
entry:
  %v = load i8, i8* @g
  %a = add i8 1, %x
  %b = mul i8 %a, 2
  %c = add i8 %b, %v
  call void @effect(i8 %c)
  store i8 %y, i8* @g
  %d = add i8 %c, 0
  ret i8 %d
}
"""


@pytest.mark.parametrize("text", [GLOBALS, LOOPY, CALLS],
                         ids=["globals", "loopy", "calls"])
def test_clean_run_leaves_no_snapshot_users(text):
    module = parse_module(text)
    pm = guarded_pipeline("o2", prototype_config(), verify_each=True)
    pm.run(module)
    assert not pm.failures
    live = {id(i) for f in module.definitions() for i in f.instructions()}
    shared = [a for f in module.definitions() for a in f.args]
    shared += list(module.globals.values())
    for value in shared:
        for use in value.uses:
            assert id(use.user) in live, (value, use.user)
