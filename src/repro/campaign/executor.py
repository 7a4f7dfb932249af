"""The campaign coordinator: shard scheduling, crash handling, resume.

:class:`CampaignRunner` drives a shard plan to completion, for every
campaign kind (refine and lint-attack; :func:`_resolve_work` is the one
table of what differs between them):

* **workers = 1** (default) runs shards in-process — no serialization
  overhead, ideal for tests and benchmarks;
* **workers > 1** runs shards on a pool of at most ``workers``
  long-lived child processes (fork where available), each forked once
  and fed shard after shard over its pipe, with optional per-shard wall
  timeouts.  A worker that dies without reporting (segfault analog,
  ``os._exit``, OOM-kill) is restarted by the
  :class:`~repro.campaign.supervisor.WorkerSupervisor`; past its
  restart budget the shard is *accounted*, not lost: its record says
  ``errored`` (quarantined) with the exit code, the campaign completes,
  and a later ``resume`` retries exactly the errored/missing shards.

Every completed shard is appended to the JSONL checkpoint immediately,
so killing the coordinator forfeits at most the shards in flight.
Results integrate with the PR 1 observability layer: aggregate counters
land in the default :class:`StatsRegistry` under the ``campaign`` pass
name, per-shard wall time flows through :class:`PassTiming` (rendered by
``campaign report``), and each refinement failure is emitted as an
optimization remark.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import stat
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..diag import (
    FlightRecorder,
    SpanCollector,
    Statistic,
    default_registry,
    emit_remark,
    set_collector,
    set_recorder,
    span,
)
from ..diag.remarks import REMARK_ANALYSIS
from ..opt.resilience import write_bundle
from .checkpoint import CheckpointStore, load_manifest_payload, save_manifest
from .report import (  # noqa: F401  (counters stay importable here)
    NUM_CHECKED,
    NUM_SHARDS_ERRORED,
    CampaignSummary,
    book_records,
)
from .sharding import Shard, plan_shards
from .spec import CampaignSpec
from .supervisor import WorkerSupervisor
from .worker import memo_scope, run_shard

#: subdirectory of a campaign's out_dir holding crash bundles.
CRASHES_DIR = "crashes"

NUM_SHARDS_SKIPPED = Statistic(
    "campaign", "num-shards-skipped",
    "Shards skipped on resume (already checkpointed as done)")
NUM_WORKERS_STARTED = Statistic(
    "campaign", "num-worker-processes-started",
    "Shard worker processes forked by the executor pool")

#: seconds a stopped worker gets to exit before it is killed.
_STOP_GRACE = 5.0


@dataclass(frozen=True)
class CampaignKind:
    """Everything that differs between the campaign kinds; the run
    loop, checkpointing, crash handling and resume are shared."""

    #: the spec's ``kind``, also the manifest's ``kind`` tag.
    name: str
    spec_class: type
    #: ``(spec, shard) -> record``.
    run_shard: Callable
    #: has a ``from_records(spec, records, ...)`` fold.
    summary_class: type
    #: diag span around a run.
    span: str
    #: default ``cache_dir`` (under ``out_dir``) for specs that use the
    #: memo cache; None for kinds without one.
    memo_dir: Optional[str] = None
    #: books a live run's new records into the diag layer.
    account: Optional[Callable] = None
    #: ``campaign run``/``resume`` exit status when shards errored.
    errored_exit: int = 0


def _resolve_work(kind: str) -> CampaignKind:
    """The one table from a campaign kind to its :class:`CampaignKind`.

    Built per call, so ``run_shard`` is whatever the shard function's
    module attribute holds at that moment (``executor.run_shard`` or
    ``lint_attack.run_attack_shard``: tracers patch those names).  Lazy
    imports keep spawn-start children cheap and break the module cycle
    with :mod:`.lint_attack` (which imports this executor)."""
    if kind == "refine":
        return CampaignKind(
            kind, CampaignSpec, run_shard, CampaignSummary,
            span="campaign-run", memo_dir="memo", account=account_records)
    if kind == "lint-attack":
        from . import lint_attack
        return CampaignKind(
            kind, lint_attack.AttackSpec, lint_attack.run_attack_shard,
            lint_attack.AttackSummary,
            span="lint-attack-run", errored_exit=1)
    raise ValueError(f"unknown campaign kind {kind!r}")


def load_spec(out_dir: str):
    """The spec of a campaign directory's manifest, of whichever kind
    the manifest names (refine manifests may predate the tag)."""
    payload = load_manifest_payload(out_dir)
    kind = _resolve_work(payload.get("kind", "refine"))
    return kind.spec_class.from_dict(payload["spec"])


def load_summary(out_dir: str):
    """A campaign directory's summary, folded from its checkpoint
    records by its kind's ``from_records`` — what ``campaign report``
    shows, and the one copy of its stats."""
    spec = load_spec(out_dir)
    return _resolve_work(spec.kind).summary_class.from_records(
        spec, CheckpointStore(out_dir).load())


def _worker_main(conn, work: str) -> None:
    """Child-process entry: run ``(spec, shard)`` jobs from the pipe,
    one record back per job, until a ``None`` job or EOF.

    One :func:`memo_scope` spans the worker's life: its memo loads the
    disk layer once and then only refreshes."""
    _drop_inherited_sockets(keep=conn.fileno())
    with memo_scope():
        while True:
            try:
                job = conn.recv()
            except (EOFError, KeyboardInterrupt):
                break
            if job is None:
                break
            kind = _resolve_work(work)
            spec_dict, shard_dict = job
            record, interrupt = _call_shard(
                kind, kind.spec_class.from_dict(spec_dict),
                Shard.from_dict(shard_dict))
            conn.send(record)
            if interrupt is not None:
                break  # interrupted: report, then stop serving
    conn.close()


def _drop_inherited_sockets(keep: int) -> None:
    """Point every socket descriptor a fork copied into this worker,
    except ``keep``, at ``/dev/null``.

    A worker outlives many shards, so its copies of the coordinator's
    sockets would outlive them too: a server's listener and client
    connections would stay open after the server closes them, and the
    coordinator's end of each worker pipe would never read EOF when the
    coordinator dies, leaving orphans waiting forever.  ``dup2`` rather
    than ``close`` keeps the descriptor numbers taken, so a stale object
    that closes its descriptor later cannot close a file opened since.
    """
    try:
        fds = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd <= 2 or fd in (keep, devnull):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:
                continue  # e.g. the descriptor listdir itself used
    finally:
        os.close(devnull)


def _call_shard(kind: CampaignKind, spec, shard: Shard
                ) -> Tuple[dict, Optional[BaseException]]:
    """Run one shard in its own trace session: with a ``trace_dir`` on
    the spec, a span collector streaming to
    ``<trace_dir>/spans-shard<id>.jsonl`` (pid = shard id in the merged
    trace), and always a fresh flight recorder wired to the current
    collector (the black box: if the shard dies outside its own
    per-function handling, its last recorded moments still reach the
    record).  Both are restored afterwards.

    Any exception becomes an ``errored`` record carrying the recorder's
    dump.  The second item is the exception when it is not an
    :class:`Exception` (an interrupt or exit), which the caller must not
    swallow."""
    collector = old_collector = None
    trace_dir = getattr(spec, "trace_dir", None)
    if trace_dir:
        collector = SpanCollector(pid=shard.shard_id,
                                  label=f"shard {shard.shard_id}")
        collector.open(os.path.join(
            trace_dir, f"spans-shard{shard.shard_id:04d}.jsonl"))
        old_collector = set_collector(collector)
    recorder = FlightRecorder()
    old_recorder = set_recorder(recorder)
    recorder.install()
    try:
        return kind.run_shard(spec, shard), None
    except BaseException as e:  # report instead of dying silently
        record = _errored_record(shard, repr(e))
        record["flight_recorder"] = recorder.dump()
        return record, None if isinstance(e, Exception) else e
    finally:
        recorder.uninstall()
        set_recorder(old_recorder)
        if collector is not None:
            collector.close()
            set_collector(old_collector)


def _errored_record(shard: Shard, reason: str) -> dict:
    return {"shard_id": shard.shard_id, "status": "errored",
            "error": reason, "checked": 0, "dedup_hits": 0,
            "verdicts": {}, "hashes": {}, "counterexamples": [],
            "crashes": [], "recoveries": 0, "bundles": [],
            "wall_seconds": 0.0}


def merge_worker_stats(record: dict) -> None:
    """Fold a child process's per-shard stats delta into this process's
    registry: the worker's own `StatsRegistry` is private to it, and
    without this merge every refine/memo/pass counter a parallel
    campaign produced would reduce to zero at the coordinator.  Only
    subprocess records merge (in-process shards bump the shared registry
    directly; merging both would double-count)."""
    registry = default_registry()
    for pass_name, counters in (record.get("stats") or {}).items():
        for name, value in counters.items():
            registry.add(pass_name, name, value)


class ShardExecutor:
    """A reusable pool of persistent shard workers: submit shards, poll
    results.

    This is the submission API under both batch campaigns
    (:class:`CampaignRunner`) and the long-running service front-end
    (:mod:`repro.serve`): callers :meth:`submit` any number of
    ``(spec, shard)`` jobs and :meth:`poll` completions as they land,
    instead of handing over control until a whole campaign finishes.

    At most ``workers`` child processes exist at a time.  Each is forked
    on demand, then loops: receive a job over its pipe, run it, send the
    record back, wait for the next.  :meth:`poll` waits on every busy
    worker's pipe and process sentinel at once, so it wakes on the first
    completion and hands that worker the next queued job straight away.

    Crash semantics extend the batch path with *supervision*: a worker
    that dies without reporting, exceeds ``shard_timeout``, or outlives
    its per-job deadline is detected here and discarded, and a
    :class:`~repro.campaign.supervisor.WorkerSupervisor` decides between
    a jittered-backoff restart (the job silently re-enqueues and runs in
    a newly forked worker, never a surviving one; callers just see a
    longer-running job) and final delivery of an ``errored`` record —
    after the restart budget, with ``quarantined: True`` and the full
    attempt history (the poison-pill lane).  Either way a job always
    terminates in exactly one record — never lost, never hung — and
    each subprocess record's stats delta is merged into this process's
    registry.  :meth:`shutdown` reaps every worker, idle or busy.
    """

    def __init__(self, workers: int = 1,
                 shard_timeout: Optional[float] = None,
                 work: str = "refine"):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.shard_timeout = shard_timeout
        #: work kind run by child processes (see :func:`_resolve_work`).
        self.work = work
        self.supervisor = WorkerSupervisor()
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        #: (job_id, spec_dict, shard, not_before, deadline)
        self._queue: deque = deque()
        #: job_id -> (proc, conn, t0, shard, deadline) of busy workers
        self._running: Dict[int, tuple] = {}
        #: (proc, conn) of live workers waiting for a job.
        self._idle: List[tuple] = []
        #: job_id -> its submit-time queue entry (for restarts).
        self._job_inputs: Dict[int, tuple] = {}
        #: restarted jobs, whose next attempt needs a newly forked worker.
        self._restarted: set = set()
        self._next_job = 0

    # -- introspection -----------------------------------------------------
    @property
    def inflight(self) -> int:
        """Jobs currently running in child processes."""
        return len(self._running)

    @property
    def queued(self) -> int:
        """Jobs submitted (or re-enqueued for restart) but not started."""
        return len(self._queue)

    @property
    def idle(self) -> bool:
        return not (self._queue or self._running)

    # -- submission --------------------------------------------------------
    def submit(self, spec: CampaignSpec, shard: Shard,
               deadline: Optional[float] = None) -> int:
        """Enqueue one shard; returns its job id.  Jobs start as pool
        slots free up (at most ``workers`` children at a time).

        ``deadline`` is an absolute :func:`time.monotonic` instant; a
        job that has not finished by then is killed and delivered as an
        ``errored`` record without consuming restart budget."""
        job_id = self._next_job
        self._next_job += 1
        entry = (job_id, spec.as_dict(), shard, 0.0, deadline)
        self._queue.append(entry)
        self._job_inputs[job_id] = entry
        self._start_pending()
        return job_id

    def _start_pending(self) -> None:
        """Start queued jobs whose backoff delay has elapsed."""
        delayed = []
        now = time.monotonic()
        while self._queue and len(self._running) < self.workers:
            entry = self._queue.popleft()
            if entry[3] > now:
                delayed.append(entry)
                continue
            self._dispatch(entry)
        self._queue.extendleft(reversed(delayed))

    def _dispatch(self, entry: tuple) -> None:
        """Send one job to an idle worker, or to a newly forked one."""
        job_id, spec_dict, shard, _, deadline = entry
        fresh = job_id in self._restarted
        self._restarted.discard(job_id)
        while True:
            if self._idle and not fresh:
                proc, conn = self._idle.pop()
            else:
                if (self._idle and len(self._running) + len(self._idle)
                        >= self.workers):
                    # A restart must not inherit a survivor's state: in
                    # a full pool, retire an idle worker to make room
                    # for a fork.
                    self._stop(*self._idle.pop(0))
                proc, conn = self._spawn()
            try:
                conn.send((spec_dict, shard.as_dict()))
                break
            except OSError:
                # The worker died while idle; the job never started.
                self._discard(proc, conn)
        self._running[job_id] = (proc, conn, time.monotonic(), shard,
                                 deadline)

    def _spawn(self) -> tuple:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_main,
                                 args=(child_conn, self.work), daemon=True)
        proc.start()
        child_conn.close()
        NUM_WORKERS_STARTED.inc()
        return proc, parent_conn

    def _stop(self, proc, conn) -> None:
        """Ask a worker to exit after its current job, then reap it."""
        try:
            conn.send(None)
        except OSError:
            pass
        conn.close()
        proc.join(_STOP_GRACE)
        if proc.is_alive():
            proc.kill()
            proc.join()

    @staticmethod
    def _discard(proc, conn) -> None:
        """Kill (if still alive) and reap a worker that failed a job."""
        if proc.is_alive():
            proc.kill()
        proc.join()
        conn.close()

    # -- completion --------------------------------------------------------
    def poll(self, wait: float = 0.01) -> List[tuple]:
        """Reap finished jobs; returns ``[(job_id, shard, record), ...]``.

        Blocks at most ``wait`` seconds, returning as soon as any worker
        reports or dies (or a deadline, timeout or backoff comes due).
        Dead, timed-out, and deadline-overrun workers are discarded and
        their jobs either restart (per the supervisor) or convert to
        ``errored`` records here, with stats deltas merged into the
        coordinator registry."""
        ready = self._wait(wait)
        done: List[tuple] = []
        now = time.monotonic()
        for job_id in list(self._running):
            proc, conn, started, shard, deadline = self._running[job_id]
            record = None
            failure = None
            retryable = True
            if conn in ready or proc.sentinel in ready:
                if proc.sentinel in ready:
                    # An exiting process closes its descriptors one by
                    # one: reap it, so its end of the pipe is closed too
                    # and a missing record reads as EOF.
                    proc.join()
                if conn.poll():
                    try:
                        record = conn.recv()
                    except (EOFError, OSError):
                        record = None
                    if record is None:
                        proc.join()
                        failure = (f"worker died mid-report "
                                   f"(exit code {proc.exitcode})")
                else:
                    failure = (f"worker crashed without reporting "
                               f"(exit code {proc.exitcode})")
            elif deadline is not None and now >= deadline:
                failure = "job exceeded its request deadline"
            elif (self.shard_timeout is not None
                  and now - started > self.shard_timeout):
                failure = (f"shard exceeded its {self.shard_timeout}s "
                           f"timeout")
                # Re-running the same pure shard against the same wall
                # budget deterministically times out again.
                retryable = False
            else:
                continue
            del self._running[job_id]
            if failure is None:
                self._idle.append((proc, conn))
            else:
                self._discard(proc, conn)
                record = self._handle_failure(job_id, shard, failure,
                                              deadline, retryable)
                if record is None:
                    continue  # supervisor re-enqueued the job
            # A healed job's record remembers its restarts (absent on
            # clean runs, so fault-free records stay identical).
            # history.attempts counts failures, and for a job that
            # ultimately reported, every failure became a restart.
            history = self.supervisor.history_for(job_id)
            if history is not None and history.attempts > 0:
                record.setdefault("restarts", history.attempts)
            self.supervisor.forget(job_id)
            self._job_inputs.pop(job_id, None)
            merge_worker_stats(record)
            done.append((job_id, shard, record))
        for proc, conn in list(self._idle):
            if proc.sentinel in ready:  # an idle worker died: drop it
                self._idle.remove((proc, conn))
                self._discard(proc, conn)
        self._start_pending()
        return done

    def _wait(self, wait: float) -> set:
        """Block until a worker pipe or sentinel is ready, or until the
        earliest of ``wait``, a running job's deadline or timeout, and a
        backed-off restart's start time."""
        now = time.monotonic()
        until = now + wait
        for _, _, started, _, deadline in self._running.values():
            if deadline is not None:
                until = min(until, deadline)
            if self.shard_timeout is not None:
                until = min(until, started + self.shard_timeout)
        if self._queue and len(self._running) < self.workers:
            until = min(until, min(entry[3] for entry in self._queue))
        timeout = max(0.0, until - now)
        if not self._running:
            # Nothing can complete; only backed-off restarts are worth
            # sleeping for (idle worker deaths are reaped on dispatch).
            if self._queue and timeout > 0:
                time.sleep(timeout)
            return set()
        handles = [proc.sentinel for proc, _ in self._idle]
        for proc, conn, _, _, _ in self._running.values():
            handles += [conn, proc.sentinel]
        return set(multiprocessing.connection.wait(handles, timeout))

    def _handle_failure(self, job_id: int, shard: Shard, reason: str,
                        deadline: Optional[float],
                        retryable: bool = True) -> Optional[dict]:
        """Supervisor hook: returns the final record, or None on retry."""
        decision = self.supervisor.on_failure(job_id, shard, reason,
                                              deadline=deadline,
                                              retryable=retryable)
        if decision.action == "restart":
            entry = self._job_inputs[job_id]
            # Re-enqueue under the same job id: callers' futures stay
            # pending across the restart, and a successful retry's
            # record is byte-identical (run_shard is a pure function of
            # the re-used (spec, shard) inputs).  The retry runs in a
            # newly forked worker, as the failed attempt's did.
            self._queue.append(entry[:3] + (decision.not_before,
                                            entry[4]))
            self._restarted.add(job_id)
            return None
        history = self.supervisor.history_for(job_id)
        record = _errored_record(shard, decision.reason)
        if history is not None:
            record["restarts"] = max(0, history.attempts - 1)
        if decision.action == "quarantine":
            record["quarantined"] = True
        return record

    def drain(self, wait: float = 0.05):
        """Yield ``(job_id, shard, record)`` until every job completes."""
        while not self.idle:
            for item in self.poll(wait):
                yield item

    def shutdown(self, kill: bool = False) -> None:
        """Drop queued jobs and reap every worker process, idle or busy.

        Busy workers are killed with ``kill``; without it each gets
        ``_STOP_GRACE`` seconds to finish its current job (whose record
        is dropped)."""
        self._queue.clear()
        self._restarted.clear()
        for proc, conn, _, _, _ in self._running.values():
            if kill:
                self._discard(proc, conn)
            else:
                self._stop(proc, conn)
        self._running.clear()
        self._job_inputs.clear()
        while self._idle:
            self._stop(*self._idle.pop())


class CampaignRunner:
    """Run (or resume) one campaign of either kind against an output
    directory.

    The spec's ``kind`` picks the shard function and summary fold (see
    :func:`_resolve_work`); the shard plan, run loop, bundle
    persistence, checkpointing and resume are the same for every kind.
    ``out_dir=None`` runs fully in memory — no manifest, checkpoint, or
    dedup log — which is what the benchmark harness uses.
    """

    def __init__(self, spec: CampaignSpec, out_dir: Optional[str] = None,
                 workers: int = 1, shard_timeout: Optional[float] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        memo_dir = _resolve_work(spec.kind).memo_dir
        if (out_dir is not None and memo_dir is not None and spec.use_cache
                and spec.cache_dir is None):
            # Default the shared on-disk memo layer next to the
            # checkpoint, so shards (and later resumes) of this campaign
            # share verdicts automatically.
            spec = spec.with_(cache_dir=os.path.join(out_dir, memo_dir))
        self.spec = spec
        self.out_dir = out_dir
        self.workers = workers
        self.shard_timeout = shard_timeout
        self.store = CheckpointStore(out_dir) if out_dir else None

    # -- public API --------------------------------------------------------
    def run(self, resume: bool = False, stop_after: Optional[int] = None,
            progress: Optional[Callable[[dict], None]] = None):
        """Execute the shard plan; returns the kind's campaign-wide
        summary.

        ``resume=True`` skips shards already checkpointed as ``done``
        and retries errored/missing ones.  ``stop_after=N`` stops after
        N newly completed shards (a graceful interrupt: the checkpoint
        stays consistent and ``resume`` finishes the rest).
        """
        kind = _resolve_work(self.spec.kind)
        shards = plan_shards(self.spec)
        prior: Dict[int, dict] = {}
        if self.store is not None:
            if resume:
                prior = {
                    sid: record
                    for sid, record in self.store.load().items()
                    if record.get("status") == "done"
                }
            else:
                save_manifest(self.out_dir, self.spec,
                              extra={"kind": kind.name,
                                     "shards": len(shards)})

        pending = [s for s in shards if s.shard_id not in prior]
        if stop_after is not None:
            pending = pending[:stop_after]
        NUM_SHARDS_SKIPPED.inc(len(prior))

        new_records: Dict[int, dict] = {}

        def finalize(shard: Shard, record: dict) -> None:
            self._persist_bundles(record)
            new_records[shard.shard_id] = record
            if self.store is not None:
                self.store.append(record)
                if record.get("hashes"):
                    self.store.append_dedup(record["hashes"])
            if progress is not None:
                progress(record)

        run_processes = self.workers > 1
        with span(kind.span, cat="campaign") as sp:
            if run_processes:
                self._run_subprocess(kind, pending, finalize)
            else:
                self._run_inprocess(kind, pending, finalize)
            sp.set(shards=len(pending), workers=self.workers,
                   processes=run_processes)

        summary = kind.summary_class.from_records(
            self.spec, {**prior, **new_records}, shards_total=len(shards),
            shards_run=len(new_records), shards_skipped=len(prior))
        if kind.account is not None:
            kind.account(self.spec, new_records)
        return summary

    def _persist_bundles(self, record: dict) -> None:
        """Materialize a shard's in-memory crash bundles under
        ``out_dir/crashes/`` and swap the payloads for their paths.

        Bundle ids are content-hashed, so retried shards rewrite the
        same directories instead of accumulating duplicates."""
        payloads = record.get("bundles") or []
        if not payloads:
            return
        if self.out_dir is None:
            record["bundles"] = [p.get("bundle_id", "") for p in payloads]
            return
        root = os.path.join(self.out_dir, CRASHES_DIR)
        record["bundles"] = [write_bundle(root, p) for p in payloads]

    # -- execution strategies ---------------------------------------------
    def _run_inprocess(self, kind: CampaignKind, pending: List[Shard],
                       finalize) -> None:
        # One memo scope per run: shards after the first refresh the
        # memo instead of re-reading the whole disk layer.
        with memo_scope():
            for shard in pending:
                record, interrupt = _call_shard(kind, self.spec, shard)
                if interrupt is not None:
                    raise interrupt
                finalize(shard, record)

    def _run_subprocess(self, kind: CampaignKind, pending: List[Shard],
                        finalize) -> None:
        executor = ShardExecutor(
            workers=self.workers, shard_timeout=self.shard_timeout,
            work=kind.name)
        try:
            for shard in pending:
                executor.submit(self.spec, shard)
            for _job_id, shard, record in executor.drain():
                finalize(shard, record)
        finally:
            executor.shutdown(kill=True)


def account_records(spec: CampaignSpec, records: Dict[int, dict]) -> None:
    """Feed newly finished refine shard records into the diag layer: the
    process-wide ``campaign/*`` counters, plus one remark per pipeline
    crash and per refinement failure."""
    book_records(records, default_registry())
    for sid in sorted(records):
        record = records[sid]
        for crash in record.get("crashes", []):
            emit_remark(
                "campaign",
                f"pipeline crash on corpus function "
                f"#{crash.get('index')} (shard {sid}"
                f"{', pass ' + crash['pass'] if crash.get('pass') else ''}"
                f"): {crash.get('error', '')}",
                kind=REMARK_ANALYSIS, function="f",
            )
        for cex in record.get("counterexamples", []):
            emit_remark(
                "campaign",
                f"refinement failure: {spec.pipeline} "
                f"({spec.opt_config}) miscompiles corpus "
                f"function #{cex['index']} "
                f"(shard {sid}, hash {cex['hash'][:12]})",
                kind=REMARK_ANALYSIS, function="f",
            )


def run_campaign(spec: CampaignSpec, out_dir: Optional[str] = None,
                 workers: int = 1, resume: bool = False,
                 shard_timeout: Optional[float] = None,
                 stop_after: Optional[int] = None):
    """One-call convenience wrapper around :class:`CampaignRunner`."""
    runner = CampaignRunner(spec, out_dir=out_dir, workers=workers,
                            shard_timeout=shard_timeout)
    return runner.run(resume=resume, stop_after=stop_after)
