"""Fault injection: prove the resilience machinery works.

A :class:`ChaosEngine` decides, deterministically from a seed, which
pass applications fault and how; :class:`ChaosPass` wraps a real pass
and consults the engine on every run.  Two fault kinds:

* ``raise``   — the wrapped pass application raises :class:`ChaosFault`
  before the inner pass runs (a crashing pass);
* ``corrupt`` — the inner pass runs normally, then the function is
  structurally corrupted in a verifier-detectable way (a silently
  miscompiling pass — the bug class ``--verify-each`` exists to catch).

Determinism is the load-bearing property: the engine numbers executed
applications 1, 2, 3, … and derives each decision from
``(seed, application index)`` alone.  Re-running the same pipeline with
the same seed replays the identical fault schedule, which is what lets
the bisection driver pinpoint an injected fault and lets campaign
records stay independent of worker count.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import time
from typing import Iterable, List, Optional, Tuple

from ...diag import Statistic
from ...ir.function import Function
from ...ir.instructions import PhiInst
from ..pass_manager import FunctionPass

CHAOS_RAISE = "raise"
CHAOS_CORRUPT = "corrupt"
CHAOS_MIXED = "mixed"
CHAOS_MODES = (CHAOS_RAISE, CHAOS_CORRUPT, CHAOS_MIXED)

NUM_FAULTS = Statistic(
    "chaos", "num-faults-injected",
    "Total faults injected by chaos mode")
NUM_RAISE_FAULTS = Statistic(
    "chaos", "num-raise-faults",
    "Injected exceptions (crashing-pass simulation)")
NUM_CORRUPT_FAULTS = Statistic(
    "chaos", "num-corrupt-faults",
    "Injected IR corruptions (silently-buggy-pass simulation)")
NUM_KILL_FAULTS = Statistic(
    "chaos", "num-kill-faults",
    "Worker processes SIGKILLed mid-shard by service chaos")
NUM_IO_FAULTS = Statistic(
    "chaos", "num-io-faults",
    "Injected I/O faults (corrupted memo records, dropped/stalled "
    "connections)")


class ChaosFault(RuntimeError):
    """The exception a ``raise`` fault throws; marks itself injected so
    the guard can label the failure (and its crash bundle) as chaos."""

    injected = True


class ChaosEngine:
    """Seeded fault schedule over executed pass applications."""

    def __init__(self, seed: int = 0, rate: float = 0.05,
                 mode: str = CHAOS_MIXED,
                 fail_at: Iterable[int] = ()):
        if mode not in CHAOS_MODES:
            raise ValueError(f"unknown chaos mode {mode!r}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError("chaos rate must be in [0, 1]")
        self.seed = seed
        self.rate = rate
        self.mode = mode
        #: explicit injection points (1-based executed-application
        #: indices); when non-empty, ``rate`` is ignored.
        self.fail_at = frozenset(fail_at)
        self.count = 0
        self.injected = 0

    def _rng(self, index: int) -> random.Random:
        return random.Random(f"chaos:{self.seed}:{index}")

    def plan(self, index: int) -> Optional[str]:
        """The fault (if any) for executed application ``index``."""
        rng = self._rng(index)
        if self.fail_at:
            if index not in self.fail_at:
                return None
        elif rng.random() >= self.rate:
            return None
        if self.mode == CHAOS_MIXED:
            return rng.choice((CHAOS_RAISE, CHAOS_CORRUPT))
        return self.mode

    def next_event(self) -> Tuple[int, Optional[str]]:
        """Number the next executed application and plan its fault."""
        self.count += 1
        action = self.plan(self.count)
        if action is not None:
            self.injected += 1
            NUM_FAULTS.inc()
            (NUM_RAISE_FAULTS if action == CHAOS_RAISE
             else NUM_CORRUPT_FAULTS).inc()
        return self.count, action

    def corrupt(self, fn: Function, index: int) -> str:
        """Deterministically corrupt ``fn``; returns a description."""
        return inject_corruption(fn, self._rng(index))

    def as_dict(self) -> dict:
        return {"seed": self.seed, "rate": self.rate, "mode": self.mode,
                "fail_at": sorted(self.fail_at)}


def inject_corruption(fn: Function, rng: random.Random) -> str:
    """Apply one verifier-detectable structural corruption to ``fn``.

    Every corruption keeps use lists consistent (no dangling ``Use``
    entries on shared values), so a later rollback leaves the world
    clean.
    """
    choices = []
    blocks_with_term = [b for b in fn.blocks if b.terminator is not None]
    if blocks_with_term:
        choices.append("drop-terminator")
        if any(len(b) > 1 for b in blocks_with_term):
            choices.append("misplace-instruction")
    phis = [i for i in fn.instructions()
            if isinstance(i, PhiInst) and i.incoming_blocks]
    if phis:
        choices.append("duplicate-phi-incoming")
    if not choices:
        return "no corruption applicable"

    kind = rng.choice(choices)
    if kind == "drop-terminator":
        block = rng.choice(blocks_with_term)
        term = block.instructions.pop()
        term.drop_all_operands()
        term.parent = None
        return f"dropped terminator of %{block.name}"
    if kind == "misplace-instruction":
        block = rng.choice([b for b in blocks_with_term if len(b) > 1])
        # Move a non-terminator after the terminator: "terminator in the
        # middle of the block".
        inst = block.instructions.pop(len(block.instructions) - 2)
        block.instructions.append(inst)
        return f"moved {inst.opcode.value} past the terminator of %{block.name}"
    phi = rng.choice(phis)
    pick = rng.randrange(len(phi.incoming_blocks))
    phi.add_incoming(phi.incoming[pick][0], phi.incoming_blocks[pick])
    return f"duplicated a phi incoming edge in %{phi.parent.name}"


class ChaosPass(FunctionPass):
    """Wraps a real pass; injects faults per the shared engine.

    The wrapper reports the inner pass's name so stats, remarks, timing,
    and bundles attribute failures to the pass under test, not to the
    harness.
    """

    def __init__(self, inner: FunctionPass, engine: ChaosEngine):
        super().__init__(inner.config)
        self.inner = inner
        self.engine = engine
        self.name = inner.name
        #: the fault injected by the most recent run (None = clean) —
        #: read by the guard to mark failures as chaos-injected.
        self.last_action: Optional[str] = None

    def run_on_function(self, fn: Function) -> bool:
        index, action = self.engine.next_event()
        # last_action is only set once the fault actually lands, so a
        # genuine inner-pass crash is never mislabeled as injected.
        self.last_action = None
        if action == CHAOS_RAISE:
            self.last_action = CHAOS_RAISE
            raise ChaosFault(
                f"injected exception at pass application #{index} "
                f"({self.inner.name} on @{fn.name})")
        changed = self.inner.run_on_function(fn)
        if action == CHAOS_CORRUPT:
            what = self.engine.corrupt(fn, index)
            self.last_action = CHAOS_CORRUPT
            self.remark(f"chaos: {what} (application #{index})", fn=fn)
            return True
        return changed

    def memo_key(self) -> None:
        # Every run draws the next event from the engine's schedule, so
        # two runs on the same IR need not behave alike.
        return None

    def __repr__(self) -> str:
        return f"<ChaosPass {self.inner!r}>"


def wrap_with_chaos(passes, engine: ChaosEngine):
    """Wrap every pass in a pipeline's pass list with one shared engine."""
    return [ChaosPass(p, engine) for p in passes]


class ServiceChaos:
    """Process- and I/O-level faults against a live validation service.

    Where :class:`ChaosEngine` faults *pass applications inside* a
    worker, this faults the *environment around* the service — the
    three failure families the self-healing machinery exists to
    contain:

    * :meth:`kill_worker` — SIGKILL a shard worker mid-run (the
      supervisor must respawn it and re-run the shard, verdicts
      unchanged);
    * :meth:`corrupt_memo_record` — flip one byte inside a complete
      record of an on-disk memo file (the checksum layer must
      quarantine exactly that record and keep serving the rest);
    * :meth:`drop_connection` / :meth:`stall_connection` — abandon a
      request socket mid-frame, or hold one open half-written (the
      server must shrug both off without failing other clients).

    Deterministic from its seed, like the engine: every byte position
    and file choice comes from one seeded RNG, and every injected fault
    is appended to :attr:`events` for the bench report.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(f"service-chaos:{seed}")
        self.events: List[dict] = []

    def _record(self, kind: str, **detail) -> None:
        self.events.append({"kind": kind, **detail})
        NUM_FAULTS.inc()
        (NUM_KILL_FAULTS if kind == "kill-worker" else NUM_IO_FAULTS).inc()

    # -- process faults ------------------------------------------------------
    def kill_worker(self, executor) -> Optional[int]:
        """SIGKILL one live shard worker of a
        :class:`~repro.campaign.executor.ShardExecutor`; returns the
        pid, or None when nothing was running."""
        running = getattr(executor, "_running", {})
        for job_id, entry in sorted(running.items()):
            proc = entry[0]
            pid = getattr(proc, "pid", None)
            if pid is None or not proc.is_alive():
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                continue
            self._record("kill-worker", pid=pid, job_id=job_id)
            return pid
        return None

    def kill_worker_when_busy(self, executor, timeout: float = 10.0,
                              poll: float = 0.01) -> Optional[int]:
        """Wait until the executor has a live worker, then kill it."""
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            pid = self.kill_worker(executor)
            if pid is not None:
                return pid
            time.sleep(poll)
        return None

    # -- I/O faults ----------------------------------------------------------
    def corrupt_memo_record(self, memo_dir: str) -> Optional[str]:
        """Flip one byte inside one complete record line of one
        ``memo-*.jsonl`` under ``memo_dir``; returns a description, or
        None when no complete record exists to corrupt."""
        candidates = []
        try:
            names = sorted(os.listdir(memo_dir))
        except OSError:
            return None
        for name in names:
            if not (name.startswith("memo-") and name.endswith(".jsonl")):
                continue
            path = os.path.join(memo_dir, name)
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                continue
            # only complete (newline-terminated) lines are fair game —
            # a torn tail is the *writer's* fault family, not bit rot.
            end = data.rfind(b"\n")
            if end > 0:
                candidates.append((path, data, end))
        if not candidates:
            return None
        path, data, end = candidates[
            self._rng.randrange(len(candidates))]
        lines = data[:end].split(b"\n")
        idx = self._rng.randrange(len(lines))
        line = lines[idx]
        if not line:
            return None
        pos = self._rng.randrange(len(line))
        old = line[pos]
        new = old ^ 0x20 if 0x21 <= (old ^ 0x20) <= 0x7E else 0x21
        if new == old:
            new = 0x23
        lines[idx] = line[:pos] + bytes([new]) + line[pos + 1:]
        patched = b"\n".join(lines) + data[end:]
        try:
            with open(path, "wb") as fh:
                fh.write(patched)
        except OSError:
            return None
        what = (f"flipped byte {pos} of record {idx} in "
                f"{os.path.basename(path)}")
        self._record("corrupt-memo", file=os.path.basename(path),
                     record=idx, byte=pos)
        return what

    def drop_connection(self, host: str, port: int) -> bool:
        """Connect, send half a request frame, vanish (RST via
        SO_LINGER 0 where supported, plain close otherwise)."""
        try:
            sock = socket.create_connection((host, port), timeout=5)
            try:
                sock.sendall(b'{"op": "ping", "id": "chaos-dr')
                try:
                    import struct
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
                except OSError:
                    pass
            finally:
                sock.close()
        except OSError:
            return False
        self._record("drop-connection", host=host, port=port)
        return True

    def stall_connection(self, host: str, port: int,
                         hold: float = 0.25) -> bool:
        """Hold a half-written frame open for ``hold`` seconds, then
        close without ever completing it."""
        try:
            sock = socket.create_connection((host, port), timeout=5)
            try:
                sock.sendall(b'{"op": "lint", "payload": {"sou')
                time.sleep(hold)
            finally:
                sock.close()
        except OSError:
            return False
        self._record("stall-connection", host=host, port=port,
                     hold=hold)
        return True

    def report(self) -> dict:
        kinds: dict = {}
        for event in self.events:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        return {"seed": self.seed, "events": len(self.events),
                "by_kind": kinds}
