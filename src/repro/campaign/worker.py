"""The per-shard work function: generate → dedup → optimize → check.

:func:`run_shard` is the unit the executor schedules, in-process or in a
persistent worker process.  It is deliberately self-contained and
deterministic: its verdicts, counts and reproducers are a pure function
of ``(spec, shard)``, so a shard produces the same answers whether it
runs first on one worker or last on eight, or in a resumed run — the
property behind the engine's worker-count- and resume-independent
verdict sets.  Two record fields are not: the wall time, and, with more
than one worker, the stats delta's ``perf/num-memo-disk-entries-loaded``,
which counts whatever other workers had appended to the shared memo
when this shard refreshed it, so it depends on scheduling.

The returned record is the JSONL checkpoint schema: shard id, status,
verdict counts, newly discovered ``hash → verdict`` pairs, full
counterexample reproducers, wall time, and a stats-registry delta
covering exactly this shard's work.

With a guarded pipeline (any spec ``policy`` but ``"none"``, or
``"none"`` with verify-each or chaos) the shard
additionally survives buggy passes: a pass crash or a ``verify-each``
rejection rolls the function back and — under the recover/quarantine
policies — the function still concludes normally, with the rollback
counted in the record's ``recoveries`` and its crash bundle attached
under ``bundles``.  A failure the policy does *not* absorb (``strict``,
or a crash in unguarded code) becomes a per-function ``crashes`` entry:
the function gets **no** dedup verdict (so resume retries it), the rest
of the shard keeps running, and the shard reports status ``errored``.

Interpreter fuel exhaustion is *not* a crash: a refinement check that
comes back inconclusive because either side ran out of fuel gets the
terminal ``timeout`` verdict — it enters the dedup log and is never
retried, because re-running a too-slow function can only time out again.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_module
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Tuple

from ..diag import (
    current_collector,
    current_recorder,
    default_registry,
    stats_delta,
    stats_snapshot,
)
from ..ir import parse_function, print_function, print_module, verify_function
from ..opt.resilience import GuardedPassError
from ..opt.resilience.snapshot import copy_function, discard_snapshot
from ..perf import RefinementMemo
from ..refine import DEADLINE_REASON, CrossCheckMismatch, check_refinement
from .canon import DedupCache, canonical_hash
from .sharding import Shard, iter_shard_functions
from .spec import CampaignSpec

#: RefinementResult reasons with this substring are fuel exhaustion —
#: the interpreter's timeout analog, a terminal verdict, not a crash.
FUEL_REASON = "fuel budget"

#: Test hook: comma-separated shard ids that should hard-crash (die
#: without reporting), exercising the executor's lost-worker accounting.
CRASH_ENV = "REPRO_CAMPAIGN_CRASH_SHARDS"

#: Test hook: comma-separated shard ids that should hang (never report),
#: exercising the executor's shard-timeout accounting.
HANG_ENV = "REPRO_CAMPAIGN_HANG_SHARDS"


class MemoScope:
    """The :class:`RefinementMemo` instances of one owner — a persistent
    worker process, or one in-process :meth:`CampaignRunner.run` call —
    keyed by ``(memo context, cache_dir)``.

    A memo loads the disk layer once, for the first shard that asks for
    it; each later shard gets the same memo after an incremental
    :meth:`RefinementMemo.refresh`, which reads only what other
    processes appended since.  A hit replays exactly the verdict a
    fresh check computes, so sharing a memo across shards changes no
    record's verdicts."""

    def __init__(self):
        self._memos: Dict[Tuple[str, Optional[str]], RefinementMemo] = {}

    def memo_for(self, spec: CampaignSpec) -> RefinementMemo:
        key = (spec.memo_context(), spec.cache_dir)
        memo = self._memos.get(key)
        if memo is None:
            memo = self._memos[key] = RefinementMemo(
                key[0], disk_dir=key[1])
        else:
            memo.refresh()
        return memo


#: the memo scope shards of this context run in; None outside any
#: scope, where each shard builds (and loads) a fresh memo.
_MEMO_SCOPE: ContextVar[Optional[MemoScope]] = ContextVar(
    "memo_scope", default=None)


@contextmanager
def memo_scope() -> Iterator[MemoScope]:
    """Share one :class:`MemoScope` among the shards run inside."""
    scope = MemoScope()
    token = _MEMO_SCOPE.set(scope)
    try:
        yield scope
    finally:
        _MEMO_SCOPE.reset(token)


def _maybe_crash(shard_id: int) -> None:
    crash_ids = os.environ.get(CRASH_ENV, "")
    if crash_ids and str(shard_id) in crash_ids.split(","):
        os._exit(17)  # simulate a hard worker death (no cleanup, no report)
    hang_ids = os.environ.get(HANG_ENV, "")
    if hang_ids and str(shard_id) in hang_ids.split(","):
        while True:  # simulate a wedged worker: only a kill ends it
            time.sleep(60)


def check_function(spec: CampaignSpec, fn, h: str,
                   memo: Optional[RefinementMemo] = None,
                   options=None, semantics=None) -> dict:
    """Optimize ``fn`` in place and refinement-check it against a copy
    of itself taken before the pipeline runs — the per-function unit of
    a shard, reusable outside the shard loop (the serve layer batches
    requests through it).  Crash and counterexample records carry
    ``fn``'s module text as it was before the pipeline, printed from
    that copy only when a record needs it.

    Returns an outcome dict: ``status`` is ``"memo-replay"``,
    ``"crashed"``, or ``"checked"`` (with ``verdict``); crash and
    counterexample payloads carry everything but the shard/index
    coordinates, which only the shard loop knows.
    """
    options = spec.check_options() if options is None else options
    semantics = spec.semantics() if semantics is None else semantics
    outcome: dict = {"hash": h, "recoveries": 0, "bundles": []}
    if memo is not None:
        replayed = memo.lookup(h)
        if replayed is not None:
            # Same record a full check would produce (the checker is
            # deterministic), minus the work.
            if replayed == "verified-sampled":
                outcome.update(status="memo-replay", verdict="verified",
                               sampled=True)
            else:
                outcome.update(status="memo-replay", verdict=replayed)
            return outcome

    # The source side of the check: a copy, so each function is parsed
    # at most once.  A guarded pipeline takes it as its first snapshot,
    # so a run that changes nothing clones nothing more.  It shares fn's
    # constants and callees, so it is discarded once checked to keep
    # their use lists from growing.
    before = copy_function(fn, module=fn.module)
    pipeline = spec.make_pipeline()
    try:
        pipeline.run_on_function(fn, pristine=before)
        verify_function(fn)
    except Exception as e:
        source = _source_text(fn, before)
        discard_snapshot(before)
        # A failure the policy did not absorb: GuardedPassError under
        # strict, or a raw crash/verifier rejection from an unguarded
        # pipeline.
        failure = getattr(e, "failure", None)
        recovered, payloads = _harvest(pipeline, fatal=failure)
        outcome.update(
            status="crashed", recoveries=recovered, bundles=payloads,
            crash={
                "hash": h,
                "pass": failure.pass_name if failure else "",
                "kind": failure.kind if failure else "exception",
                "error": repr(e),
                "traceback": traceback_module.format_exc(),
                "source": source,
            })
        return outcome

    recovered, payloads = _harvest(pipeline)
    outcome["recoveries"] = recovered
    outcome["bundles"] = payloads

    try:
        result = check_refinement(before, fn, semantics, options=options)
        source = _source_text(fn, before) if result.failed else None
    except CrossCheckMismatch as e:
        # Engine disagreement under --cross-check: a checker bug, not a
        # pipeline bug.  Record it like a crash — no verdict, retried
        # on resume — so drift can never be silently absorbed.
        outcome.update(
            status="crashed",
            crash={
                "hash": h,
                "pass": "",
                "kind": "cross-check-mismatch",
                "error": repr(e),
                "traceback": traceback_module.format_exc(),
                "source": _source_text(fn, before),
            })
        return outcome
    finally:
        discard_snapshot(before)
    verdict = result.verdict
    deadline_aborted = (verdict == "inconclusive"
                        and DEADLINE_REASON in result.reason)
    if verdict == "inconclusive" and FUEL_REASON in result.reason:
        verdict = "timeout"
    if deadline_aborted:
        # The *request's* clock ran out, not the function's fuel: the
        # same function under a fresh budget may still conclude.  Report
        # it as a timeout for this caller but never memoize it — a
        # cached deadline abort would poison every later request.
        verdict = "timeout"
        outcome["deadline_expired"] = True
    elif memo is not None:
        memo.record(h, "verified-sampled" if result.sampled else verdict)
    outcome.update(status="checked", verdict=verdict,
                   inputs_checked=result.inputs_checked)
    if result.sampled:
        outcome["sampled"] = True
    if result.failed:
        outcome["counterexample"] = {
            "hash": h,
            "source": source,
            "optimized": print_function(fn),
            "counterexample": str(result.counterexample),
            "inputs_checked": result.inputs_checked,
        }
    return outcome


def _source_text(fn, pristine) -> str:
    """``fn``'s module text as it was before the pipeline ran: the
    module printed with the untouched copy ``pristine`` in ``fn``'s
    place (the pipeline changes no other function of the module)."""
    functions = fn.module.functions
    functions[fn.name] = pristine
    try:
        return print_module(fn.module)
    finally:
        functions[fn.name] = fn


def check_source(spec: CampaignSpec, src_text: str,
                 memo: Optional[RefinementMemo] = None,
                 options=None, semantics=None) -> dict:
    """Parse, optimize, and check one textual IR function.

    The serve-layer entry point: identical to what a campaign shard
    does for one corpus function, so service verdicts are byte-for-byte
    the batch CLI's verdicts on the same source."""
    fn = parse_function(src_text)
    return check_function(spec, fn, canonical_hash(fn), memo=memo,
                          options=options, semantics=semantics)


def run_shard(spec: CampaignSpec, shard: Shard,
              known_hashes: Optional[Dict[str, str]] = None) -> dict:
    """Check every function in ``shard``; returns the checkpoint record.

    Structural duplicates within the shard are counted as dedup hits
    and skipped; ``known_hashes`` (hash → verdict) preloads the dedup
    cache for a direct caller.  Campaign runs pass none: shards dedup
    only within themselves, and the memo replays verdicts across shards
    and runs, so a resumed campaign counts what an uninterrupted one
    counts.
    """
    _maybe_crash(shard.shard_id)
    start_time = time.perf_counter()
    stats_before = stats_snapshot()
    # The executor's _call_shard sets up the trace session (span file
    # and flight recorder); a direct call runs untraced and without
    # breadcrumbs.  Tracing must never change a verdict.
    collector = current_collector()
    registry = default_registry()
    tracing = collector.enabled
    if tracing:
        # per-function stat deltas come off the increment journal:
        # O(counters that moved) per function, no snapshot churn
        registry.start_journal()
    try:
        return _run_shard_body(
            spec, shard, known_hashes, start_time, stats_before,
            collector, current_recorder(), registry, tracing)
    finally:
        if tracing:
            registry.stop_journal()


def _run_shard_body(spec: CampaignSpec, shard: Shard,
                    known_hashes: Optional[Dict[str, str]],
                    start_time: float, stats_before, collector,
                    recorder, registry, tracing: bool) -> dict:
    cache = DedupCache(known_hashes)
    # The perf-layer memo replays verdicts for canonical hashes decided
    # by earlier shards/runs of the same context ("failed" is never
    # memoized, so counterexample records always regenerate).
    # Outside any memo scope, a throwaway one builds a fresh memo.
    memo = ((_MEMO_SCOPE.get() or MemoScope()).memo_for(spec)
            if spec.memo_enabled() else None)
    options = spec.check_options()
    semantics = spec.semantics()
    verdicts = {"verified": 0, "failed": 0, "inconclusive": 0,
                "timeout": 0}
    sampled_verified = 0
    new_hashes: Dict[str, str] = {}
    counterexamples = []
    crashes: List[dict] = []
    bundles: List[dict] = []
    recoveries = 0

    with collector.span("shard", cat="campaign") as shard_span:
        for offset, fn in enumerate(iter_shard_functions(spec, shard)):
            index = shard.start + offset
            h = canonical_hash(fn)
            if recorder is not None:
                recorder.record("check-function", shard=shard.shard_id,
                                index=index, fn=fn.name, hash=h)
            mark = registry.journal_mark() if tracing else 0
            with collector.span("check-function", cat="campaign",
                                function=fn.name) as sp:
                try:
                    if cache.lookup(h) is not None:
                        sp.set(outcome="dedup-hit")
                        continue
                    outcome = check_function(spec, fn, h, memo=memo,
                                             options=options,
                                             semantics=semantics)
                    recoveries += outcome["recoveries"]
                    bundles.extend(outcome["bundles"])
                    if outcome["status"] == "crashed":
                        # Record it per-function — no dedup verdict, so
                        # resume retries exactly this function — and keep
                        # the shard alive.  The flight recorder's last
                        # moments ride along for the post-mortem.
                        crashes.append(dict(
                            outcome["crash"],
                            shard_id=shard.shard_id, index=index,
                            flight_recorder=(recorder.dump()
                                             if recorder is not None
                                             else None),
                        ))
                        sp.set(outcome="crashed")
                        continue
                    verdict = outcome["verdict"]
                    verdicts[verdict] = verdicts.get(verdict, 0) + 1
                    if outcome.get("sampled"):
                        # verdicts["verified"] still counts it; this
                        # subtotal keeps evidence distinguishable from
                        # proof in the aggregated report.
                        sampled_verified += 1
                    cache.add(h, verdict)
                    new_hashes[h] = verdict
                    sp.set(outcome=outcome["status"], verdict=verdict)
                    if outcome.get("counterexample"):
                        counterexamples.append(dict(
                            outcome["counterexample"],
                            shard_id=shard.shard_id, index=index,
                        ))
                finally:
                    if tracing:
                        sp.set(index=index, hash=h)
                        sp.stats = registry.journal_delta(mark,
                                                          truncate=True)

        if memo is not None:
            memo.flush()
        shard_span.set(shard=shard.shard_id,
                       checked=sum(verdicts.values()),
                       dedup_hits=cache.hits, crashes=len(crashes))
    record = {
        "shard_id": shard.shard_id,
        "status": "errored" if crashes else "done",
        "start": shard.start,
        "stop": shard.stop,
        "checked": sum(verdicts.values()),
        "dedup_hits": cache.hits,
        "verdicts": verdicts,
        "sampled_verified": sampled_verified,
        "hashes": new_hashes,
        "counterexamples": counterexamples,
        "crashes": crashes,
        "recoveries": recoveries,
        "bundles": bundles,
        "wall_seconds": time.perf_counter() - start_time,
        "stats": stats_delta(stats_before, stats_snapshot()),
    }
    if crashes:
        record["error"] = (
            f"{len(crashes)} function(s) crashed the pipeline "
            f"(first: {crashes[0]['error']})")
    return record


def _harvest(pipeline, fatal=None) -> tuple:
    """Collect (recoveries, bundle payloads) off a guarded pipeline.

    ``fatal`` is the :class:`PassFailure` that escaped as an exception
    (strict policy); it is bundled but not counted as a recovery.
    """
    failures = getattr(pipeline, "failures", None)
    if not failures:
        return 0, []
    payloads = [f.bundle for f in failures if f.bundle]
    recovered = sum(1 for f in failures if f is not fatal)
    return recovered, payloads
