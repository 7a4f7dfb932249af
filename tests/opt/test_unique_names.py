"""Passes that create named values keep every local name unique, so
printed IR reparses to the same program (the parser rejects a
redefined name)."""

from repro.backend import compile_module, run_program
from repro.bench import SUITE, prototype_variant
from repro.bench.harness import compile_workload
from repro.ir import PhiInst, parse_function, parse_module, print_module
from repro.opt import Inliner, Mem2Reg, prototype_config

# %x needs a phi at both joins, %j1 and %j2.
TWO_PHIS = """
define i8 @f(i1 %c, i1 %d) {
entry:
  %x = alloca i8
  store i8 0, i8* %x
  br i1 %c, label %a, label %j1
a:
  store i8 1, i8* %x
  br label %j1
j1:
  br i1 %d, label %e, label %j2
e:
  store i8 2, i8* %x
  br label %j2
j2:
  %r = load i8, i8* %x
  ret i8 %r
}
"""

# The callee's value names are the caller's too.
SHARED_NAMES = """
define i8 @g(i8 %a) {
entry:
  %t = add i8 %a, 1
  ret i8 %t
}

define i8 @f(i8 %a) {
entry:
  %t = mul i8 %a, 3
  %r = call i8 @g(i8 %t)
  %s = call i8 @g(i8 %r)
  %u = add i8 %s, %t
  ret i8 %u
}
"""


def _reparses_to_itself(module):
    text = print_module(module)
    assert print_module(parse_module(text)) == text


def test_mem2reg_names_each_phi_once():
    fn = parse_function(TWO_PHIS)
    assert Mem2Reg(prototype_config()).run_on_function(fn)
    phis = [inst.name for inst in fn.instructions()
            if isinstance(inst, PhiInst)]
    assert sorted(phis) == ["x.phi", "x.phi.1"]
    _reparses_to_itself(fn.module)


def test_inlined_clones_get_unused_names():
    module = parse_module(SHARED_NAMES)
    fn = module.get_function("f")
    assert Inliner(prototype_config()).run_on_function(fn)
    names = [inst.name for inst in fn.instructions() if inst.name]
    assert len(names) == len(set(names))
    assert "t" in names and "t.1" in names and "t.2" in names
    labels = [block.name for block in fn.blocks]
    assert len(labels) == len(set(labels))
    _reparses_to_itself(module)


def test_optimized_omnetpp_reparses_to_the_same_program():
    module, _, _ = compile_workload(SUITE["omnetpp"], prototype_variant(),
                                    measure_memory=False)
    text = print_module(module)
    reparsed = parse_module(text)
    assert print_module(reparsed) == text
    assert run_program(compile_module(reparsed), "main", []) == \
        run_program(compile_module(module), "main", [])
