"""The transport-independent core of the validation service.

:class:`ValidationService` owns everything that outlives a single
request:

* the **warm verdict store** — one :class:`~repro.perf.RefinementMemo`
  per memo context, backed by a shared on-disk JSONL layer
  (``memo_dir``).  Refine requests consult and populate it directly;
  campaign requests run in worker processes whose specs point at the
  same directory, and :meth:`RefinementMemo.refresh` adopts their
  appended entries incrementally — so a verdict computed for any client
  is a cache hit for every later client, across connections and
  process boundaries.  (Per-function plan caches stay scoped to one
  check by construction: execution plans are keyed by ``Function``
  identity and the pipeline under test mutates the functions, so there
  is nothing sound to share across requests.)
* the **process pool** — an :class:`~repro.serve.pool.AsyncShardPool`
  over the campaign engine's shard executor, for campaign requests;
* the **queueing discipline** — a :class:`~repro.serve.queueing.RequestGate`
  for admission/backpressure and a
  :class:`~repro.serve.queueing.Batcher` that groups small refine
  requests sharing a memo context into campaign-style batches.

Requests come in through :meth:`run_request`, which brackets the
handler with admission, a serve-layer span, the request-latency
histogram, and a per-request timeout (``payload["timeout"]`` or the
service default).  Every handler is called as ``handler(payload,
emit, deadline)`` — ungated ops get ``None`` for the deadline.
Handlers stream incremental results by awaiting the ``emit`` callback;
their return value is the terminal ``done`` payload.  Blocking check
work leaves the event loop through one helper, :meth:`_off_loop`,
which holds a check slot for the thread hop.
Failures surface as :class:`ServiceError` with a wire error code —
transports map those to error frames / HTTP statuses, never to a
dropped connection.

Verdict parity: refine requests travel through
:func:`repro.campaign.worker.check_source` — the exact per-function
path a campaign shard runs — so the service's verdict for a source is
byte-for-byte the batch CLI's verdict for the same source and budgets.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Awaitable, Callable, Dict, Optional

from ..campaign.executor import account_records
from ..campaign.report import CampaignSummary
from ..campaign.sharding import plan_shards
from ..campaign.spec import CampaignSpec
from ..campaign.worker import check_source
from ..diag import (
    Statistic,
    default_metrics,
    metrics_snapshot,
    render_prometheus,
    span,
    stats_snapshot,
)
from ..ir import ParseError, parse_module, print_module, verify_module
from ..ir.verifier import VerificationError
from ..lint import lint_module, render_sarif
from ..lint.diagnostics import severity_rank
from ..perf import RefinementMemo
from ..refine import CheckOptions, check_refinement
from ..refine.symbolic import check_refinement_symbolic
from .deadline import validate_timeout
from .pool import AsyncShardPool
from .queueing import Batcher, Draining, QueueFull, RequestGate

NUM_REQUESTS = Statistic(
    "serve", "num-requests", "Requests admitted by the validation service")
NUM_COMPLETED = Statistic(
    "serve", "num-requests-completed",
    "Requests that reached a done frame")
NUM_ERRORS = Statistic(
    "serve", "num-request-errors",
    "Requests that ended in an error frame (any code)")
NUM_TIMEOUTS = Statistic(
    "serve", "num-request-timeouts",
    "Requests that hit their per-request deadline")
NUM_CHUNKS = Statistic(
    "serve", "num-stream-chunks",
    "Incremental result chunks streamed to clients")
NUM_CAMPAIGN_SHARDS = Statistic(
    "serve", "num-campaign-shards",
    "Campaign shards executed on behalf of service requests")
NUM_MEMO_SERVED = Statistic(
    "serve", "num-refines-memo-served",
    "Refine requests answered from the warm cross-request verdict store")
NUM_IDEMPOTENT_REPLAYS = Statistic(
    "serve", "num-idempotent-replays",
    "Requests answered from the idempotency replay cache (a retry of "
    "work already completed)")

#: liveness/observability ops that must answer even when the admission
#: queue is saturated or the server is draining.
UNGATED_OPS = frozenset({"ping", "health", "metrics", "stats"})

_SPEC_FIELDS = frozenset(f.name for f in dataclass_fields(CampaignSpec))

#: spec fields that choose where the server writes files.  The server's
#: own ``--memo-dir`` decides that, so a request naming one, inside
#: ``spec`` or at the top level, is a bad request.
_DEPLOYMENT_FIELDS = frozenset({"trace_dir", "cache_dir"})

#: completed ``done`` payloads remembered per ``(op, idempotency_key)``
#: (LRU); a client retry whose first attempt actually finished is
#: answered from here instead of re-running the work.  Safe because
#: verdicts are deterministic.
IDEMPOTENCY_CACHE = 256


class ServiceError(Exception):
    """A request failure with a wire error code (see protocol.ERROR_CODES)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class ServiceConfig:
    """Tunables of one :class:`ValidationService` instance."""

    #: worker processes for campaign shards.
    workers: int = 2
    #: admission high-water mark (requests in flight before 429).
    high_water: int = 64
    #: default per-request deadline (seconds); a request payload may
    #: lower-or-raise it with ``"timeout"``.
    request_timeout: float = 120.0
    #: per-shard deadline for campaign requests; None = none.
    shard_timeout: Optional[float] = None
    #: directory of the shared on-disk verdict store; None = warm
    #: in-memory caches only (still shared across requests, not runs).
    memo_dir: Optional[str] = None
    #: concurrent in-process check threads (refine/lint/optimize).
    check_threads: int = 2


class ValidationService:
    """Request handlers plus every cache that outlives a request."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.gate = RequestGate(high_water=self.config.high_water)
        self.batcher = Batcher(self._run_refine_batch)
        self.pool = AsyncShardPool(workers=self.config.workers,
                                   shard_timeout=self.config.shard_timeout)
        self.started = time.monotonic()
        #: memo context -> warm RefinementMemo (shared disk layer).
        self._memos: Dict[str, RefinementMemo] = {}
        self._memos_lock = threading.Lock()
        self._check_slots = asyncio.Semaphore(
            max(1, self.config.check_threads))
        #: (op, idempotency_key) -> completed done payload, LRU order.
        self._idempotency: "OrderedDict[tuple, Dict[str, Any]]" = \
            OrderedDict()
        metrics = default_metrics()
        self._latency = metrics.histogram(
            "repro_serve_request_seconds",
            "Wall-clock seconds per service request, admission to "
            "terminal frame")
        self._inflight_gauge = metrics.gauge(
            "repro_serve_inflight",
            "Requests currently executing a handler")
        self._handlers: Dict[str, Callable] = {
            "ping": self._op_ping,
            "health": self._op_ping,
            "metrics": self._op_metrics,
            "stats": self._op_stats,
            "parse": self._op_parse,
            "optimize": self._op_optimize,
            "lint": self._op_lint,
            "refine": self._op_refine,
            "campaign": self._op_campaign,
        }

    # -- lifecycle ---------------------------------------------------------
    def start_drain(self) -> None:
        self.gate.start_drain()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, wait for in-flight requests; True if idle."""
        self.gate.start_drain()
        return await self.gate.wait_idle(timeout)

    async def aclose(self) -> None:
        await self.batcher.aclose()
        self.pool.close()
        for memo in list(self._memos.values()):
            memo.flush()

    # -- the request wrapper ------------------------------------------------
    async def run_request(self, op: str, payload: Dict[str, Any],
                          emit: Callable[[Dict[str, Any]], Awaitable[None]]
                          ) -> Dict[str, Any]:
        """Run one request end to end; returns the ``done`` payload.

        Raises :class:`ServiceError` for every failure mode — admission
        rejections, bad payloads, parse errors, deadlines, crashes —
        so transports can always answer with a structured error frame.
        """
        handler = self._handlers.get(op)
        if handler is None:
            raise ServiceError("unknown-op", f"unknown op {op!r}")
        if op in UNGATED_OPS:
            return await handler(payload, emit, None)
        idem_key = payload.get("idempotency_key")
        if not isinstance(idem_key, str):
            idem_key = None
        if idem_key is not None:
            # A retry of work that already completed: replay the
            # terminal payload (chunks are not replayed — verdicts are
            # deterministic, so the done payload is the whole answer).
            # Checked before admission, so replays cost no queue slot.
            replay = self._idempotency.get((op, idem_key))
            if replay is not None:
                self._idempotency.move_to_end((op, idem_key))
                NUM_IDEMPOTENT_REPLAYS.inc()
                return replay
        try:
            timeout = validate_timeout(
                payload.get("timeout", self.config.request_timeout),
                name='payload field "timeout"')
        except ValueError as e:
            NUM_ERRORS.inc()
            raise ServiceError("bad-payload", str(e))
        try:
            self.gate.try_admit()
        except Draining as e:
            raise ServiceError("draining", str(e))
        except QueueFull as e:
            raise ServiceError("queue-full", str(e))
        NUM_REQUESTS.inc()
        # The request's entire time budget, fixed here and inherited by
        # every layer below (shard pool, checker fuel, solver loops):
        # an absolute time.monotonic() instant.
        deadline = time.monotonic() + timeout
        started = time.perf_counter()
        self._inflight_gauge.inc(1)
        try:
            with span("serve-request", cat="serve") as sp:
                sp.set(op=op)
                try:
                    result = await asyncio.wait_for(
                        handler(payload, self._counted(emit), deadline),
                        timeout=timeout)
                except asyncio.TimeoutError:
                    NUM_TIMEOUTS.inc()
                    raise ServiceError(
                        "timeout",
                        f"request exceeded its {timeout}s deadline")
            NUM_COMPLETED.inc()
            if idem_key is not None:
                self._idempotency[(op, idem_key)] = result
                self._idempotency.move_to_end((op, idem_key))
                while len(self._idempotency) > IDEMPOTENCY_CACHE:
                    self._idempotency.popitem(last=False)
            return result
        except ServiceError:
            NUM_ERRORS.inc()
            raise
        except Draining as e:  # the batcher closed under the request
            NUM_ERRORS.inc()
            raise ServiceError("draining", str(e))
        except (ParseError, VerificationError) as e:
            NUM_ERRORS.inc()
            raise ServiceError("parse-error", str(e))
        except (ValueError, KeyError, TypeError) as e:
            NUM_ERRORS.inc()
            raise ServiceError("bad-request", str(e))
        except Exception as e:  # noqa: BLE001 — structured, never dropped
            NUM_ERRORS.inc()
            raise ServiceError("internal", f"{type(e).__name__}: {e}")
        finally:
            self._inflight_gauge.inc(-1)
            self._latency.observe(time.perf_counter() - started)
            self.gate.release()

    @staticmethod
    def _counted(emit):
        async def counted(chunk: Dict[str, Any]) -> None:
            NUM_CHUNKS.inc()
            await emit(chunk)

        return counted

    async def _off_loop(self, work: Callable[[], Any]) -> Any:
        """Run blocking check work on a thread, holding one check slot."""
        async with self._check_slots:
            return await asyncio.to_thread(work)

    # -- shared-cache plumbing ----------------------------------------------
    def memo_for(self, spec: CampaignSpec) -> Optional[RefinementMemo]:
        if not spec.memo_enabled():
            return None
        context = spec.memo_context()
        with self._memos_lock:
            memo = self._memos.get(context)
            if memo is None:
                memo = RefinementMemo(context,
                                      disk_dir=self.config.memo_dir)
                self._memos[context] = memo
        return memo

    @staticmethod
    def _spec_from(payload: Dict[str, Any],
                   defaults: Optional[Dict[str, Any]] = None) -> CampaignSpec:
        data = dict(defaults or {})
        spec_in = payload.get("spec", payload)
        if not isinstance(spec_in, dict):
            raise ServiceError("bad-request", "spec must be a JSON object")
        named = _DEPLOYMENT_FIELDS & (set(payload) | set(spec_in))
        if named:
            raise ServiceError(
                "bad-request",
                f"fields set by the server, not a request: "
                f"{', '.join(sorted(named))}")
        unknown = set(spec_in) - _SPEC_FIELDS
        if "spec" in payload and unknown:
            raise ServiceError(
                "bad-request",
                f"unknown spec fields: {', '.join(sorted(unknown))}")
        data.update({k: v for k, v in spec_in.items() if k in _SPEC_FIELDS})
        try:
            return CampaignSpec.from_dict(data)
        except (ValueError, TypeError) as e:
            raise ServiceError("bad-request", f"bad spec: {e}")

    # -- ungated ops --------------------------------------------------------
    async def _op_ping(self, payload, emit, deadline) -> Dict[str, Any]:
        with self._memos_lock:
            warm = sum(len(m) for m in self._memos.values())
        return {
            "status": "draining" if self.gate.draining else "ok",
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "inflight": self.gate.inflight,
            "high_water": self.gate.high_water,
            "requests_total": self.gate.admitted_total,
            "warm_verdicts": warm,
            "workers": self.config.workers,
            "supervisor": self.pool.supervisor.report(),
        }

    async def _op_metrics(self, payload, emit, deadline) -> Dict[str, Any]:
        snapshot = metrics_snapshot()
        return {
            "prometheus": render_prometheus(snapshot),
            "snapshot": snapshot,
        }

    async def _op_stats(self, payload, emit, deadline) -> Dict[str, Any]:
        return {"stats": stats_snapshot(nonzero_only=True)}

    # -- in-process ops (parse / optimize / lint) ---------------------------
    async def _op_parse(self, payload, emit, deadline) -> Dict[str, Any]:
        source = _require_source(payload)

        def work():
            module = parse_module(source)
            verify_module(module)
            return {
                "functions": [fn.name for fn in module.definitions()],
                "ir": print_module(module),
            }

        return await self._off_loop(work)

    async def _op_optimize(self, payload, emit, deadline) -> Dict[str, Any]:
        source = _require_source(payload)
        spec = self._spec_from(payload, defaults={
            "pipeline": payload.get("pipeline", "o2"),
            "opt_config": payload.get("opt_config", "fixed"),
            "policy": payload.get("policy", "recover"),
            "verify_each": bool(payload.get("verify_each", False)),
        })

        def work():
            from ..opt.resilience.guard import GuardedPassError

            module = parse_module(source)
            pm = spec.make_pipeline()
            try:
                pm.run(module)
                verify_module(module)
            except GuardedPassError as e:
                raise ServiceError("crashed", f"pipeline crash: {e}")
            result = {"ir": print_module(module),
                      "pipeline": spec.pipeline,
                      "opt_config": spec.opt_config}
            failures = getattr(pm, "failures", None)
            if failures is not None:
                result["recoveries"] = len(failures)
                result["quarantined"] = sorted(
                    getattr(pm, "quarantined", ()))
            return result

        return await self._off_loop(work)

    async def _op_lint(self, payload, emit, deadline) -> Dict[str, Any]:
        source = _require_source(payload)
        rules = payload.get("rules")
        want_sarif = bool(payload.get("sarif", False))
        file_name = payload.get("file", "<request>")

        def work():
            module = parse_module(source)
            return lint_module(module, rules=rules, file=file_name)

        diags = await self._off_loop(work)
        for diag in diags:
            await emit({"finding": diag.as_dict()})
        worst = ""
        if diags:
            worst = max((d.severity for d in diags), key=severity_rank)
        result: Dict[str, Any] = {"findings": len(diags), "worst": worst}
        if want_sarif:
            result["sarif"] = render_sarif(diags)
        return result

    # -- refine -------------------------------------------------------------
    async def _op_refine(self, payload, emit, deadline) -> Dict[str, Any]:
        if "target" in payload:
            return await self._refine_pair(payload, deadline)
        sources = payload.get("functions")
        if sources is None:
            sources = [_require_source(payload)]
        if not isinstance(sources, list) or not sources or not all(
                isinstance(s, str) for s in sources):
            raise ServiceError("bad-request",
                               "functions must be a non-empty list of "
                               "IR source strings")
        spec = self._spec_from(payload, defaults={
            "pipeline": payload.get("pipeline", "o2"),
            "opt_config": payload.get("opt_config", "fixed"),
            "policy": payload.get("policy", "recover"),
        })
        lane = spec.memo_context()
        futures = [
            asyncio.ensure_future(
                self.batcher.submit(lane, (spec, src, deadline)))
            for src in sources
        ]
        counts: Dict[str, int] = {}
        verdicts: Dict[str, str] = {}
        served_warm = 0
        try:
            for index, future in enumerate(futures):
                outcome = await future
                item = _refine_chunk(index, outcome)
                if item["cached"]:
                    served_warm += 1
                verdict = item["verdict"]
                counts[verdict] = counts.get(verdict, 0) + 1
                verdicts.setdefault(item["hash"], verdict)
                await emit(item)
        finally:
            for future in futures:
                future.cancel()
        NUM_MEMO_SERVED.inc(served_warm)
        return {
            "checked": len(sources),
            "verdicts": counts,
            "verdict_lines": [f"{h} {v}"
                              for h, v in sorted(verdicts.items())],
            "cached": served_warm,
        }

    async def _run_refine_batch(self, lane: str, batch) -> None:
        """One micro-batch: a thread hop, a memo refresh, N checks."""

        def work():
            spec = batch[0][0][0]
            memo = self.memo_for(spec)
            if memo is not None:
                memo.refresh()
            outcomes = []
            for (item_spec, source, item_deadline), _future in batch:
                if (item_deadline is not None
                        and time.monotonic() >= item_deadline):
                    # The request is already being answered with a
                    # timeout error; don't burn a check slot on it.
                    outcomes.append(ServiceError(
                        "timeout", "request deadline expired before "
                                   "its refine batch ran"))
                    continue
                options = item_spec.check_options()
                options.deadline = item_deadline
                try:
                    outcomes.append(check_source(
                        item_spec, source, memo=memo,
                        options=options,
                        semantics=item_spec.semantics()))
                except (ParseError, VerificationError) as e:
                    outcomes.append(ServiceError("parse-error", str(e)))
            if memo is not None:
                memo.flush()
            return outcomes

        outcomes = await self._off_loop(work)
        for (_item, future), outcome in zip(batch, outcomes):
            if future.done():
                continue
            if isinstance(outcome, ServiceError):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    async def _refine_pair(self, payload, deadline) -> Dict[str, Any]:
        from ..ir import parse_function

        src_text = _require_source(payload)
        tgt_text = payload.get("target")
        if not isinstance(tgt_text, str):
            raise ServiceError("bad-request", "target must be IR source")
        method = payload.get("method", "exhaustive")
        if method not in ("exhaustive", "symbolic"):
            raise ServiceError("bad-request",
                               f"unknown refine method {method!r}")
        spec = self._spec_from(payload, defaults={
            "opt_config": payload.get("opt_config", "fixed"),
        })

        def work():
            src = parse_function(src_text)
            tgt = parse_function(tgt_text)
            if method == "symbolic":
                result = check_refinement_symbolic(
                    src, tgt, deadline=deadline)
            else:
                options = spec.check_options()
                options.deadline = deadline
                result = check_refinement(src, tgt, spec.semantics(),
                                          options=options)
            out = {
                "verdict": result.verdict,
                "method": method,
                "inputs_checked": getattr(result, "inputs_checked", 0),
                "reason": getattr(result, "reason", "") or "",
            }
            if getattr(result, "sampled", False):
                out["sampled"] = True
            cex = getattr(result, "counterexample", None)
            if cex is not None:
                out["counterexample"] = (
                    cex.as_dict() if hasattr(cex, "as_dict") else str(cex))
            return out

        return await self._off_loop(work)

    # -- campaign -----------------------------------------------------------
    async def _op_campaign(self, payload, emit, deadline) -> Dict[str, Any]:
        spec = self._spec_from(payload)
        if spec.use_cache and self.config.memo_dir:
            # Workers append to the service verdict store, so one
            # client's campaign warms every other client's requests.
            spec = spec.with_(cache_dir=self.config.memo_dir)
        shards = plan_shards(spec)
        if not shards:
            raise ServiceError("bad-request", "campaign covers no corpus")
        futures = [self.pool.submit(spec, shard, deadline=deadline)
                   for shard in shards]
        records: Dict[int, dict] = {}
        try:
            for shard, future in zip(shards, futures):
                record = await future
                if record is None:
                    raise ServiceError("internal",
                                       "shard pool shut down mid-request")
                records[shard.shard_id] = record
                NUM_CAMPAIGN_SHARDS.inc()
                await emit({"shard": _shard_chunk(shard.shard_id, record)})
        finally:
            for future in futures:
                future.cancel()
        summary = CampaignSummary.from_records(spec, records,
                                               shards_total=len(shards))
        account_records(spec, records)
        memo = self.memo_for(spec)
        if memo is not None:
            memo.refresh()  # adopt what the workers just appended
        result = summary.as_dict()
        result.pop("spec", None)
        result.pop("stats", None)
        result["verdict_lines"] = summary.verdict_lines()
        return result


def _require_source(payload: Dict[str, Any]) -> str:
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ServiceError("bad-request",
                           "payload needs a non-empty 'source' string")
    return source


def _refine_chunk(index: int, outcome: dict) -> Dict[str, Any]:
    """One streamed refine result, shaped like a campaign record row."""
    item: Dict[str, Any] = {
        "index": index,
        "hash": outcome.get("hash", ""),
        "verdict": outcome.get("verdict", ""),
        "cached": outcome.get("status") == "memo-replay",
        "inputs_checked": outcome.get("inputs_checked", 0),
    }
    if outcome.get("sampled"):
        # a sampled "verified" is evidence, not an exhaustive proof —
        # the distinction must survive into streamed verdicts
        item["sampled"] = True
    if outcome.get("status") == "crashed":
        item["crash"] = outcome.get("crash")
    if outcome.get("counterexample") is not None:
        item["counterexample"] = outcome["counterexample"]
    if outcome.get("recoveries"):
        item["recoveries"] = outcome["recoveries"]
    return item


def _shard_chunk(shard_id: int, record: dict) -> Dict[str, Any]:
    """The streamed per-shard row: record minus the bulky hash map."""
    slim = {k: v for k, v in record.items()
            if k not in ("hashes", "stats", "flight_recorder")}
    slim["shard_id"] = shard_id
    slim["hashes"] = len(record.get("hashes", {}))
    return slim
