"""Flow-powered InstSimplify/FreezeOpts: the fixpoint proves strictly
more than the shallow walk, with byte-identical refinement verdicts."""

from repro.ir import parse_function, print_function
from repro.opt import OptConfig
from repro.opt.freeze_opts import FreezeOpts
from repro.opt.instsimplify import InstSimplify
from repro.refine import check_refinement
from repro.semantics import NEW

FIXED = OptConfig.fixed

GUARDED_FREEZE = """
define i8 @f(i8 %x) {
entry:
  %c = icmp eq i8 %x, 7
  br i1 %c, label %t, label %e
t:
  %f = freeze i8 %x
  %r = add i8 %f, 1
  ret i8 %r
e:
  ret i8 0
}"""


def _run(pass_cls, src, use_flow):
    fn = parse_function(src)
    p = pass_cls(FIXED())
    p.use_flow = use_flow
    changed = p.run_on_function(fn)
    return fn, changed


def test_freeze_opts_flow_removes_guarded_freeze():
    shallow, changed_shallow = _run(FreezeOpts, GUARDED_FREEZE, False)
    flow, changed_flow = _run(FreezeOpts, GUARDED_FREEZE, True)
    # The shallow walk cannot prove the argument non-poison; the
    # dominating branch (branch-on-poison is UB) can.
    assert not changed_shallow
    assert "freeze" in print_function(shallow)
    assert changed_flow
    assert "freeze" not in print_function(flow)
    # the strictly-stronger transform is still a refinement
    r = check_refinement(parse_function(GUARDED_FREEZE), flow, NEW)
    assert r.ok


def test_freeze_opts_keeps_unguarded_freeze():
    src = """
define i8 @f(i8 %x) {
entry:
  %f = freeze i8 %x
  ret i8 %f
}"""
    fn, changed = _run(FreezeOpts, src, True)
    assert not changed
    assert "freeze" in print_function(fn)


def test_instsimplify_flow_folds_guarded_sub_self():
    # sub %x, %x -> 0 needs %x not-poison; only the fixpoint proves it
    # in the guarded block.
    src = """
define i8 @f(i8 %x) {
entry:
  %c = icmp eq i8 %x, 7
  br i1 %c, label %t, label %e
t:
  %d = sub i8 %x, %x
  ret i8 %d
e:
  ret i8 1
}"""
    shallow, changed_shallow = _run(InstSimplify, src, False)
    flow, changed_flow = _run(InstSimplify, src, True)
    assert not changed_shallow
    assert changed_flow
    assert "sub" not in print_function(flow)
    r = check_refinement(parse_function(src), flow, NEW)
    assert r.ok


def test_flow_and_shallow_verdicts_agree_where_both_fire():
    # When the shallow walk already proves the fact, the flow-powered
    # pass makes the same transform (the fixpoint is a superset).
    src = """
define i8 @f(i8 %x) {
entry:
  %fr = freeze i8 %x
  %d = sub i8 %fr, %fr
  ret i8 %d
}"""
    shallow, changed_shallow = _run(InstSimplify, src, False)
    flow, changed_flow = _run(InstSimplify, src, True)
    assert changed_shallow and changed_flow
    assert print_function(shallow) == print_function(flow)


def test_freeze_opts_skips_the_fixpoint_without_a_freeze(monkeypatch):
    import repro.opt.freeze_opts as freeze_opts

    calls = []
    real = freeze_opts.analyze_poison_flow
    monkeypatch.setattr(freeze_opts, "analyze_poison_flow",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    src = """
define i8 @f(i8 %x) {
entry:
  %r = add nsw i8 %x, 1
  ret i8 %r
}"""
    fn, changed = _run(FreezeOpts, src, True)
    assert not changed
    assert calls == []
    # a function with a freeze still gets the fixpoint
    _run(FreezeOpts, GUARDED_FREEZE, True)
    assert len(calls) >= 1
