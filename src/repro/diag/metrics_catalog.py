"""The documented name set for every stat and metric the stack emits.

Dashboards, the Prometheus surface, BENCH gates, and the campaign
report all key on stat names.  Renaming a counter — or adding one
without documenting it — silently breaks those consumers, so the full
set is pinned here and a test asserts that every stat emitted while the
test suite runs is cataloged.  Adding a counter therefore *requires* a
matching catalog entry (one line, reviewed like any interface change).

Two forms of entry:

* :data:`STAT_CATALOG` — exact ``(pass, counter)`` pairs;
* :data:`STAT_PATTERNS` — ``("*", counter)`` wildcards for families of
  dynamically named stats (per-pass guard failures, per-rule lint
  counters).

This module deliberately imports nothing from the rest of ``repro``.
"""

from __future__ import annotations

import fnmatch
from typing import Set, Tuple

from .metrics import prom_name

#: Exact (pass, counter) pairs the stack is documented to emit.
STAT_CATALOG: Set[Tuple[str, str]] = {
    # campaign executor
    ("campaign", "num-dedup-hits"),
    ("campaign", "num-functions-checked"),
    ("campaign", "num-pass-crashes"),
    ("campaign", "num-pass-recoveries"),
    ("campaign", "num-refinement-failures"),
    ("campaign", "num-shards-done"),
    ("campaign", "num-shards-errored"),
    ("campaign", "num-shards-skipped"),
    ("campaign", "num-timeout-verdicts"),
    ("campaign", "num-worker-processes-started"),
    # chaos / fault injection
    ("chaos", "num-corrupt-faults"),
    ("chaos", "num-faults-injected"),
    ("chaos", "num-io-faults"),
    ("chaos", "num-kill-faults"),
    ("chaos", "num-raise-faults"),
    # optimization passes
    ("freeze-opts", "num-freezes-simplified"),
    ("gvn", "num-equality-replacements"),
    ("gvn", "num-freezes-folded"),
    ("gvn", "num-instructions-eliminated"),
    ("instcombine", "num-combined"),
    ("instcombine", "num-dead-removed"),
    ("instcombine", "num-mul-to-add"),
    ("instcombine", "num-mul-to-shl"),
    ("instcombine", "num-select-undef-collapsed"),
    ("instcombine", "num-selects-frozen"),
    ("instcombine", "num-selects-to-arith"),
    ("instcombine", "num-udiv-to-select"),
    ("licm", "num-guarded-div-hoisted"),
    ("licm", "num-hoisted"),
    ("loop-unswitch", "num-conditions-frozen"),
    ("loop-unswitch", "num-loops-unswitched"),
    ("simplifycfg", "num-blocks-merged"),
    ("simplifycfg", "num-branches-folded"),
    ("simplifycfg", "num-freeze-threads-blocked"),
    ("simplifycfg", "num-jumps-threaded"),
    ("simplifycfg", "num-phis-to-select"),
    # interpreter / execution plans
    ("interp", "num-fuel-exhausted"),
    ("interp", "num-plans-compiled"),
    ("interp", "num-ub-executions"),
    # lint engine and audit
    ("lint", "num-functions-linted"),
    ("lint-audit", "num-claims-checked"),
    ("lint-audit", "num-contradictions"),
    ("lint-audit", "num-functions-audited"),
    ("lint-audit", "num-observations"),
    ("lint-audit", "num-vector-functions"),
    ("lint-audit", "num-vector-fallbacks"),
    # adversarial lint-attack campaigns
    ("lint-attack", "num-seeds-attacked"),
    ("lint-attack", "num-mutants"),
    ("lint-attack", "num-observations"),
    ("lint-attack", "num-oracle-events"),
    ("lint-attack", "num-disagreements"),
    ("lint-attack", "num-unclassified"),
    ("lint-attack", "num-vector-mutants"),
    ("lint-attack", "num-vector-fallbacks"),
    # fuzzers
    ("optfuzz", "num-functions-enumerated"),
    ("optfuzz", "num-random-functions"),
    # perf: memoization and caches
    ("perf", "num-memo-disk-entries-loaded"),
    ("perf", "num-memo-hits"),
    ("perf", "num-memo-misses"),
    ("perf", "num-memo-quarantined"),
    ("perf", "num-memo-disk-errors"),
    # pass manager fixpoint loop
    ("pass-manager", "num-skipped-applications"),
    # pipeline summary counters
    ("pipeline", "num-freeze-instructions"),
    ("pipeline", "num-ir-instructions"),
    # poison dataflow analysis
    ("poison-flow", "num-branch-refinements"),
    ("poison-flow", "num-fixpoint-iterations"),
    ("poison-flow", "num-functions-analyzed"),
    # validation service front-end
    ("serve", "num-batched-functions"),
    ("serve", "num-batches"),
    ("serve", "num-campaign-shards"),
    ("serve", "num-connections"),
    ("serve", "num-refines-memo-served"),
    ("serve", "num-request-errors"),
    ("serve", "num-request-timeouts"),
    ("serve", "num-requests"),
    ("serve", "num-requests-completed"),
    ("serve", "num-requests-rejected"),
    ("serve", "num-stream-chunks"),
    ("serve", "num-poller-leaks"),
    ("serve", "num-idempotent-replays"),
    # retrying clients / circuit breakers
    ("serve-client", "num-retries"),
    ("serve-client", "num-breaker-opens"),
    ("serve-client", "num-breaker-shed"),
    # worker supervision
    ("supervisor", "num-worker-restarts"),
    ("supervisor", "num-jobs-quarantined"),
    ("supervisor", "num-restart-budget-exhausted"),
    # refinement checker
    ("refine", "num-checks"),
    ("refine", "num-inputs-checked"),
    ("refine", "num-deadline-aborts"),
    ("refine", "num-undef-expansion-overflow"),
    # vector (numpy lane-parallel) refinement engine
    ("refine", "num-vector-checks"),
    ("refine", "num-vector-fallbacks"),
    ("refine", "num-cross-checks"),
    ("refine", "num-vector-lanes"),
    ("vector", "num-plans-lowered"),
    ("vector", "num-plan-runs"),
    # pass-guard resilience layer
    ("resilience", "num-bisect-skipped"),
    ("resilience", "num-guard-failures"),
    ("resilience", "num-pass-exceptions"),
    ("resilience", "num-quarantined-passes"),
    ("resilience", "num-recoveries"),
    ("resilience", "num-verify-failures"),
    # lint rules (per-rule counters use the rule id as counter name)
    ("lint", "num-branch-on-maybe-poison"),
    ("lint", "num-ub-sink-reaches-poison"),
    ("lint", "num-redundant-freeze"),
    ("lint", "num-missing-freeze-on-hoist"),
    ("lint", "num-dead-on-poison-flag"),
}

#: Wildcard entries for dynamically named stat families.  The pass (or
#: counter) component is an :mod:`fnmatch` pattern.
STAT_PATTERNS: Set[Tuple[str, str]] = {
    # GuardedPassManager also books failures under the failing pass's
    # own name, whatever it is.
    ("*", "num-guard-failures"),
    # lint rules are pluggable; any rule id is a legal counter.
    ("lint", "num-*"),
    # lint-attack books one counter per (rule, taxonomy verdict).
    ("lint-attack", "num-*"),
    # vector-engine fallbacks book one counter per ineligibility
    # reason slug (see repro.semantics.vector.VectorIneligible).
    ("refine", "num-vector-ineligible-*"),
}

#: First-class (non-stat-derived) metric names the diag layer exports:
#: the validation service front-end's gauges and histogram.
METRIC_CATALOG: Set[str] = {
    "repro_serve_queue_depth",
    "repro_serve_inflight",
    "repro_serve_request_seconds",
}


def is_cataloged(pass_name: str, counter: str) -> bool:
    """Is this stat documented (exactly or via a pattern)?"""
    if (pass_name, counter) in STAT_CATALOG:
        return True
    for pass_pat, counter_pat in STAT_PATTERNS:
        if (fnmatch.fnmatchcase(pass_name, pass_pat)
                and fnmatch.fnmatchcase(counter, counter_pat)):
            return True
    return False


def uncataloged(pairs) -> Set[Tuple[str, str]]:
    """The subset of ``(pass, counter)`` pairs that are not documented."""
    return {(p, c) for p, c in pairs if not is_cataloged(p, c)}


def catalog_prom_names() -> Set[str]:
    """Every documented stat's stable Prometheus name, plus the
    first-class metric names."""
    names = {prom_name(p, c) for p, c in STAT_CATALOG}
    names.update(METRIC_CATALOG)
    return names
