"""Worker supervision: restart crashed/hung shard workers, quarantine
crash-loopers.

The executor's original failure handling was *accounting*: a worker
that died or overran its timeout produced an ``errored`` record and the
shard was only retried by an explicit ``campaign resume``.  That is the
right floor for a batch CLI, but a long-running service must heal
without an operator: :class:`WorkerSupervisor` sits between the
executor's failure detection and its record delivery and decides, per
failed job, between

* **restart** — re-enqueue the job after a jittered exponential
  backoff delay (crashes are often environmental: OOM pressure, a
  chaos SIGKILL, a transient disk error), bounded by a per-job restart
  budget and a global restart budget;
* **quarantine** — after the budget is spent, the job is declared a
  *poison pill*: the same input crashing the worker on every attempt is
  almost certainly input-triggered, and retrying it forever would wedge
  a pool slot.  The job resolves to an ``errored`` record carrying
  ``quarantined: True`` plus the full attempt history, and the shard's
  coordinates land in the supervisor's poison-pill lane for operators
  (and the campaign summary / service health endpoint) to inspect.

Two failure classes never consume restart budget:

* a job whose **deadline** already expired — there is no time left to
  retry in, so the failure is delivered immediately (the request-level
  timeout machinery owns the error);
* failures while the executor is **shutting down**.

Determinism: backoff jitter is drawn from a :class:`random.Random`
seeded at construction, so tests (and the E14 chaos bench) replay the
same schedule.  Verdict parity is unaffected by construction — a
restarted shard re-runs :func:`~repro.campaign.worker.run_shard`, whose
record is a pure function of ``(spec, shard)``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..diag import Statistic

NUM_RESTARTS = Statistic(
    "supervisor", "num-worker-restarts",
    "Failed shard jobs re-enqueued by the worker supervisor")
NUM_QUARANTINED = Statistic(
    "supervisor", "num-jobs-quarantined",
    "Crash-looping jobs moved to the poison-pill lane")
NUM_BUDGET_EXHAUSTED = Statistic(
    "supervisor", "num-restart-budget-exhausted",
    "Failures delivered because the global restart budget ran dry")


@dataclass
class SupervisorPolicy:
    """Tunables of one supervisor instance."""

    #: restarts allowed per job before it is quarantined.
    max_restarts: int = 2
    #: retry shard-timeout failures too?  Off by default: a shard's
    #: wall-timeout re-runs the same pure function against the same
    #: budget, so the retry deterministically times out again — it goes
    #: straight to the poison-pill lane instead.  Crashes stay
    #: retryable (they are often environmental).
    retry_timeouts: bool = False
    #: restarts allowed across all jobs of this executor's lifetime;
    #: None = unbounded.  A crash storm that blows through this is an
    #: environment problem, not an input problem — stop masking it.
    restart_budget: Optional[int] = 256
    #: backoff delay before restart attempt k is ``base * 2**(k-1)``,
    #: clamped to ``cap``, then jittered by ±``jitter`` (fractional).
    backoff_base: float = 0.1
    backoff_cap: float = 5.0
    jitter: float = 0.5
    #: jitter RNG seed (deterministic schedules for tests/benches).
    seed: int = 0


@dataclass
class JobHistory:
    """What the supervisor knows about one job's failures."""

    attempts: int = 0
    reasons: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"attempts": self.attempts, "reasons": list(self.reasons)}


@dataclass(frozen=True)
class Decision:
    """The supervisor's verdict on one failure."""

    action: str  # "restart" | "quarantine" | "fail"
    #: restart only: earliest monotonic time the retry may start.
    not_before: float = 0.0
    reason: str = ""


class WorkerSupervisor:
    """Restart/quarantine policy plus per-job failure state."""

    def __init__(self, policy: Optional[SupervisorPolicy] = None):
        self.policy = policy or SupervisorPolicy()
        self._rng = random.Random(self.policy.seed)
        self._history: Dict[int, JobHistory] = {}
        #: poison-pill lane: quarantined jobs, for reporting.
        self.poison_pills: List[dict] = []
        self.restarts = 0
        self.quarantined = 0

    # -- the decision point -------------------------------------------------
    def on_failure(self, job_id: int, shard, reason: str,
                   deadline: Optional[float] = None,
                   retryable: bool = True) -> Decision:
        """Record one worker failure and decide what happens next.

        ``deadline`` is the job's absolute monotonic deadline (if any);
        an expired deadline always fails immediately — the time budget
        belongs to the request, not to the supervisor.
        ``retryable=False`` (deterministic failures, e.g. a shard wall
        timeout) skips the restart ladder and quarantines outright.
        """
        history = self._history.setdefault(job_id, JobHistory())
        history.attempts += 1
        history.reasons.append(reason)

        if deadline is not None and time.monotonic() >= deadline:
            return Decision("fail", reason=reason)
        if ((not retryable and not self.policy.retry_timeouts)
                or history.attempts > self.policy.max_restarts):
            return self._quarantine(job_id, shard, history, reason)
        if (self.policy.restart_budget is not None
                and self.restarts >= self.policy.restart_budget):
            NUM_BUDGET_EXHAUSTED.inc()
            return Decision(
                "fail",
                reason=f"{reason} (global restart budget "
                       f"{self.policy.restart_budget} exhausted)")

        delay = self._backoff(history.attempts)
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= delay:
                # Not enough runway for a backed-off retry to help.
                return Decision("fail", reason=reason)
        self.restarts += 1
        NUM_RESTARTS.inc()
        return Decision("restart", not_before=time.monotonic() + delay,
                        reason=reason)

    def _quarantine(self, job_id: int, shard, history: JobHistory,
                    reason: str) -> Decision:
        self.quarantined += 1
        NUM_QUARANTINED.inc()
        pill = {"job_id": job_id, "attempts": history.attempts,
                "reasons": list(history.reasons)}
        if shard is not None:
            pill.update(shard_id=shard.shard_id, start=shard.start,
                        stop=shard.stop)
        self.poison_pills.append(pill)
        return Decision(
            "quarantine",
            reason=f"quarantined after {history.attempts} failed "
                   f"attempts; last: {reason}")

    def _backoff(self, attempt: int) -> float:
        base = min(self.policy.backoff_cap,
                   self.policy.backoff_base * (2 ** (attempt - 1)))
        spread = base * self.policy.jitter
        return max(0.0, base + self._rng.uniform(-spread, spread))

    # -- bookkeeping --------------------------------------------------------
    def history_for(self, job_id: int) -> Optional[JobHistory]:
        return self._history.get(job_id)

    def forget(self, job_id: int) -> None:
        """Drop a completed job's state (success or final failure)."""
        self._history.pop(job_id, None)

    def report(self) -> dict:
        """Snapshot for health endpoints and campaign summaries."""
        return {
            "restarts": self.restarts,
            "quarantined": self.quarantined,
            "poison_pills": [dict(p) for p in self.poison_pills],
        }
