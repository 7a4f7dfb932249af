"""E9 — resilience: guarded pipelines survive injected faults.

Not a paper experiment but an infrastructure one: the guarded pass
manager keeps a snapshot of the function it runs (kept across unchanged
applications and taken again after a change or rollback), so a buggy
pass (here: chaos-injected crashes and IR corruptions) rolls back
instead of corrupting the module or killing the run.  We measure the
two claims that make the machinery usable:

* **correctness under fire** — compiling a real benchmark workload with
  faults injected into the o2 pipeline still produces a module that
  verifies *and computes the same checksum* as the clean compile;
* **bounded overhead** — the snapshot/verify tax on a clean compile is
  a constant factor, not an asymptotic blowup.
"""

import time

import pytest

from repro.backend import compile_module, run_program
from repro.bench import SUITE, prototype_variant
from repro.frontend import compile_c
from repro.ir import verify_module
from repro.opt import ChaosEngine, guarded_pipeline, o2_pipeline
from repro.opt.resilience import POLICY_RECOVER

WORKLOAD = SUITE["bzip2"]
FUEL = 50_000_000


def _fresh_module():
    variant = prototype_variant()
    module = compile_c(WORKLOAD.source, variant.codegen_options,
                       module_name=WORKLOAD.name)
    return module, variant.opt_config


def _checksum(module) -> int:
    checksum, _, _ = run_program(compile_module(module), "main", [],
                                 fuel=FUEL)
    return checksum


def test_chaos_compile_preserves_checksum():
    """Faults injected into every pass of a real compile are recovered,
    and the surviving module still computes the workload's checksum."""
    module, config = _fresh_module()
    pm = guarded_pipeline("o2", config, policy=POLICY_RECOVER,
                          verify_each=True,
                          chaos=ChaosEngine(seed=9, rate=0.05))
    pm.run(module)
    verify_module(module)
    assert pm.failures, "rate 0.05 over a full compile should inject"
    assert len(pm.failures) == pm.num_recoveries
    assert _checksum(module) == WORKLOAD.expected


def test_chaos_raise_storm_still_compiles():
    """Even with every pass application raising (rate 1.0), recovery
    degrades o2 to the identity pipeline instead of dying — and the
    unoptimized module still runs correctly."""
    module, config = _fresh_module()
    pm = guarded_pipeline("o2", config, policy=POLICY_RECOVER,
                          chaos=ChaosEngine(seed=1, rate=1.0,
                                            mode="raise"))
    pm.run(module)
    verify_module(module)
    assert pm.pass_counter == len(pm.failures)
    assert _checksum(module) == WORKLOAD.expected


def test_guard_overhead_is_a_constant_factor():
    """Snapshots plus verify-each cost a multiple of the plain pipeline,
    not an asymptotic blowup.  The bound is deliberately loose: this
    guards against O(n^2) regressions, not wall-clock noise."""
    module, config = _fresh_module()
    start = time.perf_counter()
    o2_pipeline(config).run(module)
    plain_seconds = time.perf_counter() - start

    module, config = _fresh_module()
    pm = guarded_pipeline("o2", config, policy=POLICY_RECOVER,
                          verify_each=True)
    start = time.perf_counter()
    pm.run(module)
    guarded_seconds = time.perf_counter() - start

    assert not pm.failures, "clean compile must not trip the guard"
    overhead = guarded_seconds / max(plain_seconds, 1e-9)
    print(f"\nE9: guarded o2 overhead: {overhead:.1f}x "
          f"({plain_seconds * 1000:.1f}ms -> "
          f"{guarded_seconds * 1000:.1f}ms, "
          f"{pm.pass_counter} applications)")
    assert overhead < 60, (
        f"guard overhead {overhead:.1f}x looks asymptotic, not constant")


def test_quarantine_caps_failure_accounting():
    """A pass that fails on every function stops being scheduled after
    quarantine_after failures — total failures stay bounded by the
    quarantine threshold, not the corpus size."""
    module, config = _fresh_module()
    pm = guarded_pipeline("o2", config, policy="quarantine",
                          quarantine_after=2,
                          chaos=ChaosEngine(seed=2, rate=1.0,
                                            mode="raise"))
    pm.run(module)
    assert pm.quarantined
    per_pass = {}
    for f in pm.failures:
        per_pass[f.pass_name] = per_pass.get(f.pass_name, 0) + 1
    assert all(count <= 2 for count in per_pass.values())
