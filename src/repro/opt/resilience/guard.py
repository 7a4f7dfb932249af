"""The guarded pass manager: snapshot, verify, roll back, continue.

LLVM survives buggy passes with CrashRecoveryContext, ``-verify-each``
and ``-opt-bisect-limit``; this module is our analog.
:class:`GuardedPassManager` runs the same pipelines as
:class:`~repro.opt.pass_manager.PassManager` but keeps a snapshot of
the function it is running and treats a raised exception *or* a
``verify-each`` rejection as a recoverable event.  The snapshot is kept
across unchanged applications and taken again after a change: a pass
that reports no change must leave the function untouched
(tests/opt/test_change_honesty.py checks every o2 pass), so one clone
per change replaces one clone per application and the snapshot is
still exactly the pre-application state.  A caller holding an untouched
copy of the function lends it as the first snapshot
(``run_on_function(fn, pristine=copy)``), so a run in which nothing
changes clones nothing.  On a failure:

* the function rolls back to the pre-pass snapshot,
* a ``resilience`` remark and stats (``resilience/num-recoveries`` plus
  a per-pass failure counter) record the event,
* a replayable crash bundle is captured (written to ``crash_dir`` when
  set, always kept in-memory on the :class:`PassFailure` record),

and then the **policy** decides what happens next:

* ``strict``     — re-raise as :class:`GuardedPassError` (the CLI maps
  this to a nonzero exit code);
* ``recover``    — keep running the rest of the pipeline;
* ``quarantine`` — recover, and disable a pass entirely after it fails
  ``quarantine_after`` times.

``bisect_limit`` is the ``-opt-bisect-limit`` analog: a global counter
numbers every pass application and applications beyond the limit are
skipped, which is what the bisection driver binary-searches over.  An
application the fixpoint loop skips because an equal pass already ran
to no change on the same IR still takes its number, so bisect indices
do not depend on the skipping.
"""

from __future__ import annotations

import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...diag import (
    REMARK_ANALYSIS,
    Statistic,
    default_registry,
    emit_remark,
    recorder_dump,
    span,
)
from ...diag.timing import PassTiming
from ...ir.function import Function
from ...ir.verifier import VerificationError, verify_function
from ..pass_manager import FunctionPass, PassManager
from .bundle import make_bundle_payload, write_bundle
from .chaos import ChaosFault
from .snapshot import (
    clone_function,
    discard_snapshot,
    print_standalone,
    restore_function,
    retarget_calls,
)

POLICY_STRICT = "strict"
POLICY_RECOVER = "recover"
POLICY_QUARANTINE = "quarantine"
POLICIES = (POLICY_STRICT, POLICY_RECOVER, POLICY_QUARANTINE)

NUM_RECOVERIES = Statistic(
    "resilience", "num-recoveries",
    "Pass failures rolled back with the pipeline continuing")
NUM_GUARD_FAILURES = Statistic(
    "resilience", "num-guard-failures",
    "Guarded pass applications that raised or failed verification")
NUM_PASS_EXCEPTIONS = Statistic(
    "resilience", "num-pass-exceptions",
    "Guarded pass applications that raised an exception")
NUM_VERIFY_FAILURES = Statistic(
    "resilience", "num-verify-failures",
    "Guarded pass applications rejected by --verify-each")
NUM_QUARANTINED = Statistic(
    "resilience", "num-quarantined-passes",
    "Passes disabled after repeated failures (quarantine policy)")
NUM_BISECT_SKIPPED = Statistic(
    "resilience", "num-bisect-skipped",
    "Pass applications skipped beyond the opt-bisect limit")


@dataclass
class PassFailure:
    """One recovered (or re-raised) guarded pass failure."""

    pass_name: str
    function: str
    #: "exception" (the pass raised) or "verify" (--verify-each rejected
    #: the transformed IR).
    kind: str
    error: str
    traceback: str
    #: the global 1-based pass-application index (the bisect counter).
    application: int
    #: chaos fault kind when the failure was injected, else None.
    injected_action: Optional[str] = None
    #: the full crash-bundle payload (always built).
    bundle: dict = field(default_factory=dict)
    #: on-disk bundle path when the manager has a ``crash_dir``.
    bundle_path: Optional[str] = None

    @property
    def injected(self) -> bool:
        return self.injected_action is not None


class GuardedPassError(Exception):
    """Raised under the ``strict`` policy; carries the failure record
    (the function has already been rolled back when this propagates)."""

    def __init__(self, failure: PassFailure):
        super().__init__(
            f"pass {failure.pass_name!r} failed on @{failure.function} "
            f"(application #{failure.application}, {failure.kind}): "
            f"{failure.error}")
        self.failure = failure


class GuardedPassManager(PassManager):
    """A :class:`PassManager` with crash recovery, verify-each gating,
    an opt-bisect counter, and crash-bundle capture."""

    def __init__(self, passes: List[FunctionPass], max_iterations: int = 3,
                 timing: Optional[PassTiming] = None, *,
                 policy: str = POLICY_RECOVER,
                 verify_each: bool = False,
                 forbid_undef: bool = False,
                 quarantine_after: int = 3,
                 bisect_limit: Optional[int] = None,
                 crash_dir: Optional[str] = None,
                 seed: Optional[int] = None):
        super().__init__(passes, max_iterations=max_iterations,
                         timing=timing)
        if policy not in POLICIES:
            raise ValueError(f"unknown recovery policy {policy!r}")
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.policy = policy
        self.verify_each = verify_each
        self.forbid_undef = forbid_undef
        self.quarantine_after = quarantine_after
        self.bisect_limit = bisect_limit
        self.crash_dir = crash_dir
        self.seed = seed
        #: global pass-application counter (the -opt-bisect-limit analog).
        self.pass_counter = 0
        #: every counted application: (index, pass name, function name).
        self.applications: List[Tuple[int, str, str]] = []
        self.failures: List[PassFailure] = []
        self.quarantined: Set[str] = set()
        self._failure_counts: Dict[str, int] = {}
        #: the pre-application state of the function being run; kept
        #: across applications that report no change.
        self._snapshot: Optional[Function] = None
        #: the caller's untouched copy lent for this run, if any: it may
        #: be the snapshot, but is never consumed or discarded.
        self._lent: Optional[Function] = None

    # -- queries -----------------------------------------------------------
    @property
    def num_recoveries(self) -> int:
        return len(self.failures)

    def application(self, index: int) -> Tuple[int, str, str]:
        """The (index, pass, function) triple of application ``index``."""
        return self.applications[index - 1]

    # -- execution ---------------------------------------------------------
    def run_on_function(self, fn: Function, *,
                        pristine: Optional[Function] = None) -> bool:
        self._snapshot = self._lent = pristine
        try:
            return super().run_on_function(fn)
        finally:
            self._drop_snapshot()
            self._lent = None

    def _drop_snapshot(self) -> None:
        snapshot, self._snapshot = self._snapshot, None
        if snapshot is not None and snapshot is not self._lent:
            discard_snapshot(snapshot)

    def _rollback_source(self, fn: Function) -> Function:
        """A snapshot for :func:`restore_function` to consume.  A lent
        copy is cloned, with its recursive calls pointed back at ``fn``,
        and stays the snapshot: the rollback returns ``fn`` to it."""
        snapshot = self._snapshot
        if snapshot is self._lent:
            return retarget_calls(clone_function(snapshot), snapshot, fn)
        self._snapshot = None
        return snapshot

    def _apply(self, p: FunctionPass, fn: Function,
               skip: bool) -> Optional[bool]:
        self.pass_counter += 1
        index = self.pass_counter
        self.applications.append((index, p.name, fn.name))
        if self.bisect_limit is not None and index > self.bisect_limit:
            NUM_BISECT_SKIPPED.inc()
            return None
        if p.name in self.quarantined:
            return None
        if skip:
            return False

        # An application that reports no change leaves the function as
        # it found it, so the snapshot stays exact until one does.
        if self._snapshot is None:
            self._snapshot = clone_function(fn)
        with span(p.name, cat="pass", function=fn.name) as sp:
            try:
                with self.timing.measure(p.name, fn.name) as m:
                    m.changed = p.run_on_function(fn)
                if self.verify_each:
                    verify_function(fn, forbid_undef=self.forbid_undef)
            except Exception as e:
                sp.set(failed=True)
                snapshot = self._rollback_source(fn)
                self._handle_failure(p, fn, snapshot, e, index)
                return None
            sp.set(changed=m.changed)
            if m.changed:
                self._drop_snapshot()
            return bool(m.changed)

    # -- failure handling --------------------------------------------------
    def _handle_failure(self, p: FunctionPass, fn: Function,
                        snapshot: Function, error: Exception,
                        index: int) -> None:
        kind = "verify" if isinstance(error, VerificationError) else "exception"
        injected_action = None
        if isinstance(error, ChaosFault):
            injected_action = "raise"
        elif getattr(p, "last_action", None) == "corrupt":
            injected_action = "corrupt"
        error_text = f"{type(error).__name__}: {error}"
        tb = traceback_module.format_exc()
        pre_ir = print_standalone(snapshot)
        restore_function(fn, snapshot)

        NUM_GUARD_FAILURES.inc()
        (NUM_VERIFY_FAILURES if kind == "verify"
         else NUM_PASS_EXCEPTIONS).inc()
        default_registry().add(p.name, "num-guard-failures")

        payload = make_bundle_payload(
            pre_ir=pre_ir, pass_name=p.name, application=index,
            kind=kind, error=error_text, traceback_text=tb,
            config=getattr(p, "config", None), function=fn.name,
            seed=self.seed, injected_action=injected_action,
            policy=self.policy, flight_recorder=recorder_dump(),
        )
        failure = PassFailure(
            pass_name=p.name, function=fn.name, kind=kind,
            error=error_text, traceback=tb, application=index,
            injected_action=injected_action, bundle=payload,
        )
        if self.crash_dir is not None:
            failure.bundle_path = write_bundle(self.crash_dir, payload)
        self.failures.append(failure)

        first_line = error_text.splitlines()[0] if error_text else kind
        emit_remark(
            "resilience",
            f"rolled back {p.name} on @{fn.name} "
            f"(application #{index}, {kind}"
            f"{', chaos-injected' if injected_action else ''}): "
            f"{first_line}",
            kind=REMARK_ANALYSIS, function=fn.name,
        )

        if self.policy == POLICY_STRICT:
            raise GuardedPassError(failure) from error
        NUM_RECOVERIES.inc()
        if self.policy == POLICY_QUARANTINE:
            count = self._failure_counts.get(p.name, 0) + 1
            self._failure_counts[p.name] = count
            if count >= self.quarantine_after and p.name not in self.quarantined:
                self.quarantined.add(p.name)
                NUM_QUARANTINED.inc()
                emit_remark(
                    "resilience",
                    f"quarantined {p.name} after {count} failure(s); "
                    f"the pass is disabled for the rest of this pipeline",
                    kind=REMARK_ANALYSIS, function=fn.name,
                )

    # -- reporting ---------------------------------------------------------
    def resilience_report(self) -> dict:
        """Machine-readable summary for the CLI's ``resilience`` section."""
        return {
            "policy": self.policy,
            "verify_each": self.verify_each,
            "applications": self.pass_counter,
            "failures": len(self.failures),
            "recoveries": (len(self.failures)
                           if self.policy != POLICY_STRICT else 0),
            "quarantined": sorted(self.quarantined),
            "bisect_limit": self.bisect_limit,
            "bundles": [f.bundle_path for f in self.failures
                        if f.bundle_path],
            "failed_passes": sorted(
                {f"{f.pass_name}@{f.function}#{f.application}"
                 for f in self.failures}),
        }
