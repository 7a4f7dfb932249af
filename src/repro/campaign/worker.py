"""The per-shard work function: generate → dedup → optimize → check.

:func:`run_shard` is the unit the executor schedules, in-process or in a
child process.  It is deliberately self-contained and deterministic: its
result is a pure function of ``(spec, shard, known_hashes)``, so a shard
produces the same record whether it runs first on one worker or last on
eight — the property behind the engine's worker-count-independent
verdict sets.

The returned record is the JSONL checkpoint schema: shard id, status,
verdict counts, newly discovered ``hash → verdict`` pairs, full
counterexample reproducers, wall time, and a stats-registry delta
covering exactly this shard's work.

With a guarded pipeline (any spec ``policy`` but ``"none"``) the shard
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
from typing import Dict, List, Optional

from ..diag import (
    FlightRecorder,
    MetricsWriter,
    SpanCollector,
    current_collector,
    current_recorder,
    default_registry,
    metrics_snapshot,
    prom_name,
    set_collector,
    set_recorder,
    stats_snapshot,
)
from ..ir import parse_function, print_function, print_module, verify_function
from ..opt.resilience import GuardedPassError
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


def _maybe_crash(shard_id: int) -> None:
    crash_ids = os.environ.get(CRASH_ENV, "")
    if crash_ids and str(shard_id) in crash_ids.split(","):
        os._exit(17)  # simulate a hard worker death (no cleanup, no report)
    hang_ids = os.environ.get(HANG_ENV, "")
    if hang_ids and str(shard_id) in hang_ids.split(","):
        while True:  # simulate a wedged worker: only a kill ends it
            time.sleep(60)


def _shard_metrics(stats_before: Dict[str, Dict[str, int]]) -> dict:
    """A metrics snapshot whose stats are rebased to this shard's start.

    One worker process can run several shards, but each shard flushes to
    its own metrics file and :func:`merge_latest_metrics` *sums* the
    latest stats across files — so the flushed stats must be shard-local
    deltas, not the process registry's cumulative totals.
    """
    snap = metrics_snapshot()
    base = {prom_name(pass_name, name): value
            for pass_name, counters in stats_before.items()
            for name, value in counters.items()}
    snap["stats"] = {
        name: value - base.get(name, 0)
        for name, value in snap["stats"].items()
        if value - base.get(name, 0)
    }
    return snap


def _stats_delta(before: Dict[str, Dict[str, int]],
                 after: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Non-zero counter increments between two registry snapshots."""
    delta: Dict[str, Dict[str, int]] = {}
    for pass_name, counters in after.items():
        for name, value in counters.items():
            diff = value - before.get(pass_name, {}).get(name, 0)
            if diff:
                delta.setdefault(pass_name, {})[name] = diff
    return delta


def check_function(spec: CampaignSpec, fn, src_text: str, h: str,
                   memo: Optional[RefinementMemo] = None,
                   options=None, semantics=None) -> dict:
    """Optimize ``fn`` in place and refinement-check it against its
    source text — the per-function unit of a shard, reusable outside
    the shard loop (the serve layer batches requests through it).

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

    before = parse_function(src_text)
    pipeline = spec.make_pipeline()
    try:
        pipeline.run_on_function(fn)
        verify_function(fn)
    except Exception as e:
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
                "source": src_text,
            })
        return outcome

    recovered, payloads = _harvest(pipeline)
    outcome["recoveries"] = recovered
    outcome["bundles"] = payloads

    try:
        result = check_refinement(before, fn, semantics, options=options)
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
                "source": src_text,
            })
        return outcome
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
            "source": src_text,
            "optimized": print_function(fn),
            "counterexample": str(result.counterexample),
            "inputs_checked": result.inputs_checked,
        }
    return outcome


def check_source(spec: CampaignSpec, src_text: str,
                 memo: Optional[RefinementMemo] = None,
                 options=None, semantics=None) -> dict:
    """Parse, optimize, and check one textual IR function.

    The serve-layer entry point: identical to what a campaign shard
    does for one corpus function, so service verdicts are byte-for-byte
    the batch CLI's verdicts on the same source."""
    fn = parse_function(src_text)
    canonical_src = print_module(fn.module)
    return check_function(spec, fn, canonical_src, canonical_hash(fn),
                          memo=memo, options=options, semantics=semantics)


def run_shard(spec: CampaignSpec, shard: Shard,
              known_hashes: Optional[Dict[str, str]] = None) -> dict:
    """Check every function in ``shard``; returns the checkpoint record.

    ``known_hashes`` preloads the dedup cache (hash → verdict) with
    functions earlier runs already checked; those — and structural
    duplicates within the shard — are counted as dedup hits and skipped.
    """
    _maybe_crash(shard.shard_id)
    start_time = time.perf_counter()
    stats_before = stats_snapshot()

    # -- observability plumbing (must never change a verdict) -----------
    # With spec.trace_dir set, this shard streams spans to its own JSONL
    # file (pid = shard id in the merged trace) and periodic metric
    # snapshots alongside.  A flight recorder runs either way: the
    # executor installs one around us; direct callers get a local one.
    collector = current_collector()
    old_collector = None
    if spec.trace_dir:
        collector = SpanCollector()
        collector.open(
            os.path.join(spec.trace_dir,
                         f"spans-shard{shard.shard_id:04d}.jsonl"),
            pid=shard.shard_id, label=f"shard {shard.shard_id}")
        old_collector = set_collector(collector)
    recorder = current_recorder()
    owns_recorder = recorder is None
    if owns_recorder:
        recorder = FlightRecorder()
        set_recorder(recorder)
        recorder.install(collector=collector)
    elif old_collector is not None:
        # The executor wired the recorder to the (disabled) default
        # collector; mirror completions from the traced one as well.
        collector.on_complete.append(recorder.on_span)
    metrics = None
    if spec.trace_dir:
        metrics = MetricsWriter(
            os.path.join(spec.trace_dir,
                         f"metrics-shard{shard.shard_id:04d}.jsonl"),
            interval=spec.metrics_interval)
    registry = default_registry()
    tracing = collector.enabled
    if tracing:
        # per-function stat deltas come off the increment journal:
        # O(counters that moved) per function, no snapshot churn
        registry.start_journal()
    try:
        return _run_shard_body(
            spec, shard, known_hashes, start_time, stats_before,
            collector, recorder, metrics, registry, tracing)
    finally:
        if tracing:
            registry.stop_journal()
        if owns_recorder:
            recorder.uninstall()
            set_recorder(None)
        elif old_collector is not None:
            collector.on_complete.remove(recorder.on_span)
        if old_collector is not None:
            collector.close()
            set_collector(old_collector)


def _run_shard_body(spec: CampaignSpec, shard: Shard,
                    known_hashes: Optional[Dict[str, str]],
                    start_time: float, stats_before, collector,
                    recorder, metrics, registry, tracing: bool) -> dict:
    cache = DedupCache(known_hashes)
    # The perf-layer memo replays verdicts for canonical hashes decided
    # by earlier shards/runs of the same context ("failed" is never
    # memoized, so counterexample records always regenerate).
    memo = (RefinementMemo(spec.memo_context(), disk_dir=spec.cache_dir)
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
            src_text = print_module(fn.module)
            h = canonical_hash(fn)
            recorder.record("check-function", shard=shard.shard_id,
                            index=index, fn=fn.name, hash=h)
            if metrics is not None:
                # lazy: the registry walk only happens on the calls
                # the flush interval lets through
                metrics.maybe_flush(
                    lambda: _shard_metrics(stats_before),
                    shard=shard.shard_id,
                    checked=sum(verdicts.values()))
            mark = registry.journal_mark() if tracing else 0
            with collector.span("check-function", cat="campaign",
                                function=fn.name) as sp:
                try:
                    if cache.lookup(h) is not None:
                        sp.set(outcome="dedup-hit")
                        continue
                    outcome = check_function(spec, fn, src_text, h,
                                             memo=memo, options=options,
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
                            flight_recorder=recorder.dump(),
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
    if metrics is not None:
        metrics.flush(_shard_metrics(stats_before),
                      shard=shard.shard_id,
                      checked=sum(verdicts.values()), final=True)
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
        "stats": _stats_delta(stats_before, stats_snapshot()),
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
