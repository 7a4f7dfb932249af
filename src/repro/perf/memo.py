"""Behavior-set memoization for the validation hot path.

A campaign checks enormous numbers of functions that are identical
modulo register/block renaming; :mod:`repro.campaign.canon` already
collapses those onto one canonical hash.  :class:`RefinementMemo`
extends the collapse across *shards and runs*: a refinement verdict is a
pure function of (canonical source function, pipeline under test,
semantics configuration, checker budgets), so once any worker has
decided a hash under a given *context* (the hash of those non-function
inputs — see ``CampaignSpec.memo_context``), every later worker can
reuse the verdict without re-optimizing or re-enumerating anything.

Two layers:

* an in-memory table, always on;
* an optional on-disk layer: JSONL files under ``disk_dir``.  Each
  process appends its fresh entries to its own ``memo-<pid>.jsonl``
  (append-only, one writer per file — no locking needed), and loads
  every ``memo-*.jsonl`` at construction, so concurrent campaign shards
  share verdicts across process and run boundaries.

Concurrent-reader hardening (the serve layer keeps one memo warm for
the lifetime of the server, with worker processes appending underneath
it and request threads querying it in parallel):

* lookups/records/flushes are thread-safe (one lock, held only around
  table mutation — never around I/O of other processes);
* :meth:`refresh` re-reads the disk layer *incrementally*: per-file
  byte offsets mean each call only parses what other processes appended
  since the last call;
* a **torn final line** — a writer's partial append that does not yet
  end in a newline — is never consumed: the reader stops its offset
  *before* the torn tail, so the entry is picked up whole by a later
  refresh once the writer finishes the line.  (Torn lines that do end
  in a newline, e.g. from a writer killed mid-``write``, fail JSON
  parsing and are skipped, exactly like campaign checkpoints.)

Integrity hardening (chaos runs SIGKILL workers mid-append and corrupt
records in place, and the store must stay trustworthy through both):

* every record carries a CRC32 **checksum** over its semantic fields;
  a record that parses as JSON but fails its checksum (bit rot, an
  interleaved write, deliberate corruption) is **quarantined**: skipped,
  counted per file and in ``perf/num-memo-quarantined``, and never
  adopted into the table.  Records written before checksums existed
  (no ``"s"`` field) are accepted as legacy.
* disk I/O failures never take the service down: a flush that cannot
  write re-queues its entries and counts ``perf/num-memo-disk-errors``;
  after :data:`_MAX_FLUSH_FAILURES` consecutive failures the memo goes
  **degraded** — a pure in-memory cache, cold across restarts but warm
  within the process.
* ``python -m repro memo fsck|compact`` (see :func:`fsck`,
  :func:`compact`) audit and rebuild the store offline: fsck reports
  per-file valid/legacy/corrupt/torn counts; compact rewrites every
  surviving record, checksummed and deduplicated, into one file.

Soundness rules:

* the context string must capture everything besides the function that
  the verdict depends on — two campaigns with different pipelines or
  budgets never share entries;
* ``"failed"`` verdicts are **never** memoized: a failure must re-run so
  its counterexample record (witness behavior, reproducer IR) is
  regenerated identically with the cache on or off;
* entries only short-circuit work, never change answers: the checker is
  deterministic, so a memo hit returns exactly the verdict a fresh
  check would compute.  Campaign verdict sets are byte-identical with
  the cache on and off (a property test holds this).
"""

from __future__ import annotations

import json
import logging
import os
import threading
import zlib
from typing import Dict, List, Optional, Tuple

from ..diag import Statistic, span

logger = logging.getLogger(__name__)

MEMO_HITS = Statistic(
    "perf", "num-memo-hits",
    "Refinement checks answered from the behavior-set memo cache")
MEMO_MISSES = Statistic(
    "perf", "num-memo-misses",
    "Refinement checks that missed the memo cache and ran in full")
MEMO_DISK_LOADED = Statistic(
    "perf", "num-memo-disk-entries-loaded",
    "Memo entries loaded from the shared on-disk layer")
MEMO_QUARANTINED = Statistic(
    "perf", "num-memo-quarantined",
    "On-disk memo records rejected by checksum or parse failure")
MEMO_DISK_ERRORS = Statistic(
    "perf", "num-memo-disk-errors",
    "Memo disk operations (flush/load) that failed with an OS error")

#: verdicts that are pure functions of (function, context) and safe to
#: replay.  "failed" is deliberately absent (see module docstring).
#: "verified-sampled" keeps sampled verifications distinguishable on
#: replay — the context hash already separates sampled campaigns
#: (``sample_inputs`` is part of the memo context), but the *verdict
#: string* must round-trip the distinction too, or a replay would
#: upgrade evidence into proof in the reports.
_CACHEABLE = ("verified", "verified-sampled", "inconclusive", "timeout")

#: consecutive flush failures before the memo stops touching disk.
_MAX_FLUSH_FAILURES = 3


def _checksum(context: str, key: str, verdict: str) -> str:
    """CRC32 (hex) over the semantic fields of one record."""
    blob = f"{context}\x00{key}\x00{verdict}".encode("utf-8")
    return f"{zlib.crc32(blob) & 0xFFFFFFFF:08x}"


def _encode_record(context: str, key: str, verdict: str) -> bytes:
    return json.dumps(
        {"c": context, "k": key, "v": verdict,
         "s": _checksum(context, key, verdict)}).encode("ascii") + b"\n"


def _classify(line: bytes) -> Tuple[str, Optional[dict]]:
    """One complete JSONL line -> ("valid"|"legacy"|"corrupt", entry).

    "valid" records carry a matching checksum; "legacy" records predate
    checksums (no ``"s"`` field) and are accepted; everything else —
    unparsable JSON, non-object JSON, missing fields, checksum
    mismatch — is "corrupt" and must be quarantined."""
    try:
        entry = json.loads(line)
    except json.JSONDecodeError:
        return "corrupt", None
    if not isinstance(entry, dict):
        return "corrupt", None
    context, key, verdict = (entry.get("c"), entry.get("k"),
                             entry.get("v"))
    if not (isinstance(context, str) and isinstance(key, str)
            and isinstance(verdict, str)):
        return "corrupt", None
    stamp = entry.get("s")
    if stamp is None:
        return "legacy", entry
    if stamp != _checksum(context, key, verdict):
        return "corrupt", None
    return "valid", entry


class RefinementMemo:
    """Verdict memo keyed by canonical function hash, scoped to one
    context string."""

    def __init__(self, context: str, disk_dir: Optional[str] = None):
        self.context = context
        self.disk_dir = disk_dir
        self._table: Dict[str, str] = {}
        self._fresh: List[Tuple[str, str]] = []
        #: per-file byte offset of the next unread disk entry.
        self._offsets: Dict[str, int] = {}
        #: per-file count of records quarantined by checksum/parse.
        self._corrupt: Dict[str, int] = {}
        self._flush_failures = 0
        #: True once the disk layer is abandoned after repeated I/O
        #: errors; the memo keeps serving warm in-memory hits.
        self.degraded = False
        self._lock = threading.Lock()
        if disk_dir:
            self._load_disk(disk_dir)

    def __len__(self) -> int:
        return len(self._table)

    # -- queries -----------------------------------------------------------
    def lookup(self, key: str) -> Optional[str]:
        """The memoized verdict for canonical hash ``key``, or None."""
        with self._lock:
            verdict = self._table.get(key)
        if verdict is None:
            MEMO_MISSES.inc()
        else:
            MEMO_HITS.inc()
        return verdict

    def record(self, key: str, verdict: str) -> None:
        """Memoize a freshly computed verdict (no-op for "failed")."""
        if verdict not in _CACHEABLE:
            return
        with self._lock:
            if key in self._table:
                return
            self._table[key] = verdict
            self._fresh.append((key, verdict))

    def quarantined(self) -> Dict[str, int]:
        """Per-file counts of records this memo has quarantined."""
        with self._lock:
            return dict(self._corrupt)

    # -- the on-disk layer -------------------------------------------------
    def flush(self) -> int:
        """Append this process's fresh entries to its own JSONL file.

        Returns the number of entries written.  Call at natural
        boundaries (end of a shard, end of a request batch); append-only
        writes by one process per file keep concurrent workers safe
        without locking.

        A write failure is contained, not fatal: the entries go back on
        the fresh queue (still served from memory), the error is
        counted, and after :data:`_MAX_FLUSH_FAILURES` consecutive
        failures the memo goes :attr:`degraded` and stops touching
        disk."""
        with self._lock:
            fresh, self._fresh = self._fresh, []
        if not self.disk_dir or self.degraded or not fresh:
            return len(fresh)
        try:
            with span("memo-flush", cat="perf") as sp:
                os.makedirs(self.disk_dir, exist_ok=True)
                path = os.path.join(self.disk_dir,
                                    f"memo-{os.getpid()}.jsonl")
                blob = b"".join(
                    _encode_record(self.context, key, verdict)
                    for key, verdict in fresh)
                with open(path, "ab") as fh:
                    start = fh.tell()
                    fh.write(blob)
                with self._lock:
                    if self._offsets.get(path, 0) == start:
                        # Our own append, already in the table: the next
                        # refresh need not parse it back.
                        self._offsets[path] = start + len(blob)
                sp.set(entries=len(fresh))
        except OSError as e:
            MEMO_DISK_ERRORS.inc()
            with self._lock:
                # Preserve order: the failed batch precedes anything
                # recorded while the write was in flight.
                self._fresh[:0] = fresh
                self._flush_failures += 1
                if self._flush_failures >= _MAX_FLUSH_FAILURES:
                    self.degraded = True
            if self.degraded:
                logger.error(
                    "memo disk layer degraded after %d consecutive "
                    "flush failures (last: %s); continuing in-memory "
                    "only", self._flush_failures, e)
            else:
                logger.warning("memo flush to %s failed: %s",
                               self.disk_dir, e)
            return 0
        with self._lock:
            self._flush_failures = 0
        return len(fresh)

    def refresh(self) -> int:
        """Incrementally pick up entries other processes appended since
        construction (or the last refresh).  Returns entries adopted.

        Safe to call from any thread at any time; cheap when nothing
        changed (one ``listdir`` + one ``stat``-sized read per file)."""
        if not self.disk_dir:
            return 0
        loaded = self._load_disk_files(self.disk_dir)
        MEMO_DISK_LOADED.inc(loaded)
        return loaded

    def _load_disk(self, disk_dir: str) -> None:
        if not os.path.isdir(disk_dir):
            return
        with span("memo-load-disk", cat="perf") as sp:
            loaded = self._load_disk_files(disk_dir)
            sp.set(entries=loaded)
        MEMO_DISK_LOADED.inc(loaded)

    def _load_disk_files(self, disk_dir: str) -> int:
        if not os.path.isdir(disk_dir):
            return 0
        loaded = 0
        for name in sorted(os.listdir(disk_dir)):
            if not (name.startswith("memo-") and name.endswith(".jsonl")):
                continue
            path = os.path.join(disk_dir, name)
            try:
                loaded += self._load_one_file(path)
            except OSError:
                MEMO_DISK_ERRORS.inc()
                continue
        return loaded

    def _load_one_file(self, path: str) -> int:
        """Parse complete lines from ``path`` past the remembered
        offset; a torn final line (no trailing newline yet) stays
        unread until its writer completes it."""
        offset = self._offsets.get(path, 0)
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
        if not data:
            return 0
        end = data.rfind(b"\n")
        if end < 0:
            return 0  # only a torn tail so far; retry next refresh
        complete, consumed = data[:end + 1], offset + end + 1
        loaded = quarantined = 0
        with self._lock:
            self._offsets[path] = consumed
            for line in complete.splitlines():
                line = line.strip()
                if not line:
                    continue
                kind, entry = _classify(line)
                if kind == "corrupt":
                    # Checksum mismatch or unparsable write: quarantine
                    # the record (skip + count), never adopt it.
                    quarantined += 1
                    self._corrupt[path] = self._corrupt.get(path, 0) + 1
                    continue
                if entry.get("c") != self.context:
                    continue
                verdict = entry.get("v")
                key = entry.get("k")
                if key and verdict in _CACHEABLE:
                    if key not in self._table:
                        self._table[key] = verdict
                        loaded += 1
        if quarantined:
            MEMO_QUARANTINED.inc(quarantined)
            logger.warning("memo: quarantined %d corrupt record(s) in "
                           "%s", quarantined, path)
        return loaded


# -- offline maintenance: fsck and compact -----------------------------------
def _memo_files(disk_dir: str) -> List[str]:
    return sorted(
        os.path.join(disk_dir, name)
        for name in os.listdir(disk_dir)
        if name.startswith("memo-") and name.endswith(".jsonl"))


def fsck(disk_dir: str) -> dict:
    """Audit every memo file under ``disk_dir`` without mutating it.

    Returns a report dict: per-file ``valid``/``legacy``/``corrupt``
    record counts plus whether the file ends in a torn (unterminated)
    tail, and store-wide totals.  ``ok`` is True iff no corruption and
    no read errors were found (torn tails are not corruption — they are
    an append in progress)."""
    report: dict = {"dir": disk_dir, "files": [], "ok": True,
                    "valid": 0, "legacy": 0, "corrupt": 0,
                    "torn_tails": 0, "read_errors": 0}
    if not os.path.isdir(disk_dir):
        return report
    for path in _memo_files(disk_dir):
        entry = {"file": os.path.basename(path), "valid": 0,
                 "legacy": 0, "corrupt": 0, "torn_tail": False}
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as e:
            MEMO_DISK_ERRORS.inc()
            entry["error"] = str(e)
            report["read_errors"] += 1
            report["ok"] = False
            report["files"].append(entry)
            continue
        if data and not data.endswith(b"\n"):
            entry["torn_tail"] = True
            report["torn_tails"] += 1
            data = data[:data.rfind(b"\n") + 1] if b"\n" in data else b""
        for line in data.splitlines():
            line = line.strip()
            if not line:
                continue
            kind, _ = _classify(line)
            entry[kind] += 1
            report[kind] += 1
        if entry["corrupt"]:
            report["ok"] = False
        report["files"].append(entry)
    return report


def compact(disk_dir: str) -> dict:
    """Rewrite the store as one deduplicated, fully checksummed file.

    Reads every ``memo-*.jsonl``, keeps valid and legacy records (first
    occurrence of each ``(context, key)`` wins — matching reader
    adoption order), drops corrupt records and torn tails, writes the
    survivors (with fresh checksums, legacy included) to
    ``memo-compacted.jsonl`` via a temp file + atomic rename, then
    removes the input files.  Offline maintenance only: run it while no
    writer is appending."""
    report = fsck(disk_dir)
    result = {"dir": disk_dir, "kept": 0,
              "dropped_corrupt": report["corrupt"],
              "dropped_duplicates": 0,
              "files_removed": 0, "ok": report["read_errors"] == 0}
    if not os.path.isdir(disk_dir):
        return result
    survivors: Dict[Tuple[str, str], str] = {}
    inputs = []
    for path in _memo_files(disk_dir):
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            MEMO_DISK_ERRORS.inc()
            continue
        inputs.append(path)
        if data and not data.endswith(b"\n"):
            data = data[:data.rfind(b"\n") + 1] if b"\n" in data else b""
        for line in data.splitlines():
            line = line.strip()
            if not line:
                continue
            kind, entry = _classify(line)
            if kind == "corrupt":
                continue
            pair = (entry["c"], entry["k"])
            if pair in survivors:
                result["dropped_duplicates"] += 1
                continue
            survivors[pair] = entry["v"]
    out = os.path.join(disk_dir, "memo-compacted.jsonl")
    tmp = out + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(
                _encode_record(context, key, verdict)
                for (context, key), verdict in sorted(survivors.items())))
        os.replace(tmp, out)
        for path in inputs:
            if path != out:
                os.unlink(path)
                result["files_removed"] += 1
    except OSError as e:
        MEMO_DISK_ERRORS.inc()
        result["ok"] = False
        result["error"] = str(e)
        return result
    result["kept"] = len(survivors)
    return result
