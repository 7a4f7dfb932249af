"""Campaign summaries: one fold from shard records to totals.

:meth:`ShardSummary.from_records` folds what every campaign kind's
records share; each kind's summary adds its own totals in ``add``.
:meth:`CampaignSummary.from_records` is the only place a refine
campaign's shard records become totals, whichever surface asks: a live
``campaign run`` or ``resume``, ``campaign report`` (text and
``--json``, rebuilt purely from the on-disk checkpoint, no
re-execution), and the serve ``campaign`` op.  :func:`book_records` is
the only booking of shard records into the ``campaign/*`` counters —
into the process-wide registry for a live run, into a private
:class:`StatsRegistry` for ``campaign report``, which renders it with
the same formatters the compiler CLI uses: the classic ``-stats`` table
and the ``-time-passes`` table, one row per shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional

from ..diag import PassStats, PassTiming, Statistic, StatsRegistry
from .sharding import plan_shards

NUM_CHECKED = Statistic(
    "campaign", "num-functions-checked",
    "Functions optimized and refinement-checked by campaign shards")
NUM_DEDUP_HITS = Statistic(
    "campaign", "num-dedup-hits",
    "Functions skipped because their canonical hash was already checked")
NUM_FAILURES = Statistic(
    "campaign", "num-refinement-failures",
    "Refinement failures (miscompilations) found by campaigns")
NUM_SHARDS_DONE = Statistic(
    "campaign", "num-shards-done", "Shards that completed successfully")
NUM_SHARDS_ERRORED = Statistic(
    "campaign", "num-shards-errored",
    "Shards whose worker crashed or timed out")
NUM_PASS_RECOVERIES = Statistic(
    "campaign", "num-pass-recoveries",
    "Guarded pass failures rolled back inside campaign shards")
NUM_PASS_CRASHES = Statistic(
    "campaign", "num-pass-crashes",
    "Per-function pipeline crashes recorded by campaign shards")
NUM_TIMEOUTS = Statistic(
    "campaign", "num-timeout-verdicts",
    "Functions whose refinement check exhausted its fuel budget")


def book_records(records: Dict[int, dict], registry: StatsRegistry) -> None:
    """Book shard records into ``registry``'s ``campaign/*`` counters."""
    for record in records.values():
        verdicts = record.get("verdicts", {})
        errored = record.get("status") == "errored"
        for stat, n in (
                (NUM_SHARDS_ERRORED if errored else NUM_SHARDS_DONE, 1),
                (NUM_CHECKED, record.get("checked", 0)),
                (NUM_DEDUP_HITS, record.get("dedup_hits", 0)),
                (NUM_FAILURES, verdicts.get("failed", 0)),
                (NUM_TIMEOUTS, verdicts.get("timeout", 0)),
                (NUM_PASS_RECOVERIES, record.get("recoveries", 0)),
                (NUM_PASS_CRASHES, len(record.get("crashes", [])))):
            registry.add(stat.pass_name, stat.name, n)


@dataclass
class ShardSummary:
    """What every campaign kind's summary folds alike: shard accounting,
    supervisor activity, bundles, wall time, merged stats deltas and
    per-shard timing.  Each kind adds its own totals in :meth:`add`."""

    spec: Any
    shards_total: int
    shards_run: int
    shards_skipped: int
    shards_errored: List[int]
    #: supervisor activity: worker restarts behind delivered records,
    #: and shards quarantined as poison pills after the restart budget.
    worker_restarts: int = 0
    shards_quarantined: List[int] = field(default_factory=list)
    #: crash-bundle paths written under ``out_dir/crashes/``.
    bundle_paths: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: merged worker stats deltas (``{pass: {counter: n}}``) — the full
    #: registry view across every shard, process-local or not.
    stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    timing: PassTiming = field(default_factory=PassTiming, repr=False)
    records: Dict[int, dict] = field(default_factory=dict, repr=False)

    #: the :class:`PassTiming` row of the per-shard wall times.
    timing_row: ClassVar[str] = "campaign-shard"

    @classmethod
    def from_records(cls, spec, records: Dict[int, dict], *,
                     shards_total: Optional[int] = None,
                     shards_run: Optional[int] = None,
                     shards_skipped: int = 0):
        """Fold shard records (one per shard id) into campaign totals,
        in shard-id order.

        ``shards_total`` defaults to the spec's shard plan and
        ``shards_run`` to every record, which is the report's view."""
        summary = cls(
            spec=spec,
            shards_total=(len(plan_shards(spec)) if shards_total is None
                          else shards_total),
            shards_run=len(records) if shards_run is None else shards_run,
            shards_skipped=shards_skipped,
            shards_errored=[],
            records=records,
        )
        for sid in sorted(records):
            record = records[sid]
            if record.get("status") == "errored":
                # Still aggregate: a guarded shard that hit per-function
                # crashes reports partial results (everything that did
                # conclude) instead of losing the whole shard.
                summary.shards_errored.append(sid)
            summary.worker_restarts += record.get("restarts", 0)
            if record.get("quarantined"):
                summary.shards_quarantined.append(sid)
            summary.bundle_paths.extend(record.get("bundles", []))
            summary.wall_seconds += record.get("wall_seconds", 0.0)
            for pass_name, counters in (record.get("stats") or {}).items():
                dest = summary.stats.setdefault(pass_name, {})
                for name, value in counters.items():
                    dest[name] = dest.get(name, 0) + value
            summary.timing.passes.setdefault(
                cls.timing_row, PassStats()
            ).record(f"shard{sid}", record.get("wall_seconds", 0.0),
                     changed=summary.add(record))
        return summary

    def add(self, record: dict) -> bool:
        """Fold one record into this kind's own totals; returns whether
        the shard found something (its timing row's "changed")."""
        raise NotImplementedError

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "shards_total": self.shards_total,
            "shards_run": self.shards_run,
            "shards_skipped": self.shards_skipped,
            "shards_errored": list(self.shards_errored),
            "worker_restarts": self.worker_restarts,
            "shards_quarantined": list(self.shards_quarantined),
            "bundles": self.bundle_paths,
            "wall_seconds": self.wall_seconds,
            "stats": self.stats,
        }


@dataclass
class CampaignSummary(ShardSummary):
    """Aggregate view over every checkpointed shard of a campaign."""

    checked: int = 0
    dedup_hits: int = 0
    verified: int = 0
    failed: int = 0
    inconclusive: int = 0
    timeout: int = 0
    #: subset of ``verified`` whose verdict came from input sampling
    #: (``spec.sample_inputs``) — evidence, not exhaustive proof.
    sampled_verified: int = 0
    #: guarded pass failures rolled back inside shards (the pipeline
    #: survived; the functions still concluded).
    recoveries: int = 0
    #: per-function pipeline crashes (strict policy or unguarded code);
    #: these functions have no verdict and are retried on resume.
    crashes: List[dict] = field(default_factory=list)
    counterexamples: List[dict] = field(default_factory=list)
    #: canonical hash → verdict, merged across shards in shard-id order
    #: (first occurrence wins), so the set is schedule-independent.
    verdicts: Dict[str, str] = field(default_factory=dict)

    def add(self, record: dict) -> bool:
        self.checked += record.get("checked", 0)
        self.dedup_hits += record.get("dedup_hits", 0)
        verdicts = record.get("verdicts", {})
        self.verified += verdicts.get("verified", 0)
        self.failed += verdicts.get("failed", 0)
        self.inconclusive += verdicts.get("inconclusive", 0)
        self.timeout += verdicts.get("timeout", 0)
        self.sampled_verified += record.get("sampled_verified", 0)
        self.recoveries += record.get("recoveries", 0)
        self.crashes.extend(record.get("crashes", []))
        self.counterexamples.extend(record.get("counterexamples", []))
        # First occurrence (lowest shard id) wins: the merged verdict
        # set is independent of worker count and scheduling order.
        for h, v in sorted(record.get("hashes", {}).items()):
            self.verdicts.setdefault(h, v)
        return bool(verdicts.get("failed"))

    @property
    def dedup_hit_rate(self) -> float:
        total = self.checked + self.dedup_hits
        return self.dedup_hits / total if total else 0.0

    def verdict_lines(self) -> List[str]:
        """Sorted ``"<hash> <verdict>"`` lines — the canonical,
        worker-count-independent result of a campaign."""
        return [f"{h} {v}" for h, v in sorted(self.verdicts.items())]

    def as_dict(self) -> dict:
        return dict(
            super().as_dict(),
            checked=self.checked,
            dedup_hits=self.dedup_hits,
            dedup_hit_rate=self.dedup_hit_rate,
            verified=self.verified,
            sampled_verified=self.sampled_verified,
            failed=self.failed,
            inconclusive=self.inconclusive,
            timeout=self.timeout,
            recoveries=self.recoveries,
            crashes=self.crashes,
            counterexamples=self.counterexamples,
        )

    def report_dict(self) -> dict:
        """:meth:`as_dict` plus the report-only views: each errored
        shard's error, the merged verdict map, per-rule lint fire counts
        and per-reason counts of checks the vector engine declined."""
        ineligible = "num-vector-ineligible-"
        data = self.as_dict()
        data.update(
            shards_done=len(self.records) - len(self.shards_errored),
            shards_errored=[
                {"shard_id": sid,
                 "error": self.records[sid].get("error", "")}
                for sid in self.shards_errored],
            verdicts=dict(self.verdicts),
            lint_findings={
                name[len("num-"):] if name.startswith("num-") else name: n
                for name, n in self.stats.get("lint", {}).items()
                if name != "num-functions-linted"},
            vector_ineligible={
                name[len(ineligible):]: n
                for name, n in self.stats.get("refine", {}).items()
                if name.startswith(ineligible)},
        )
        return data

    def render(self) -> str:
        """The ``campaign run``/``resume`` summary lines."""
        sampled = (f" ({self.sampled_verified} sampled)"
                   if self.sampled_verified else "")
        lines = [
            f"campaign: {self.shards_run} shard(s) run, "
            f"{self.shards_skipped} skipped (already done), "
            f"{len(self.shards_errored)} errored",
            f"  {self.checked} functions checked, "
            f"{self.dedup_hits} dedup hits "
            f"({self.dedup_hit_rate * 100:.1f}%)",
            f"  verdicts: {self.verified} verified{sampled}, "
            f"{self.failed} failed, {self.inconclusive} inconclusive, "
            f"{self.timeout} timeout",
        ]
        if self.recoveries or self.crashes:
            lines.append(
                f"  resilience: {self.recoveries} pass failure(s) "
                f"recovered, {len(self.crashes)} function(s) crashed"
                + (f", {len(self.bundle_paths)} crash bundle(s)"
                   if self.bundle_paths else ""))
        if self.failed:
            lines.append(f"  {len(self.counterexamples)} counterexample(s) "
                         f"recorded; run `campaign reduce` to shrink them")
        if self.shards_errored:
            lines.append(f"  errored shards (will retry on resume): "
                         f"{self.shards_errored}")
        return "\n".join(lines)

    def render_report(self) -> str:
        """The human-readable ``campaign report`` body."""
        spec = self.spec
        report = self.report_dict()
        registry = StatsRegistry()
        book_records(self.records, registry)
        for pass_name, counters in self.stats.items():
            for name, value in counters.items():
                registry.add(pass_name, name, value)

        corpus = (f"enumerate x{spec.num_instructions} i{spec.width}"
                  if spec.mode == "enumerate"
                  else f"random({spec.count}) x{spec.num_instructions} "
                       f"i{spec.width} seed={spec.seed}")
        lines: List[str] = [
            f"campaign: {spec.pipeline} pipeline, {spec.opt_config} "
            f"config, {corpus}",
            f"  shards:       {report['shards_done']} done, "
            f"{len(self.shards_errored)} errored",
            f"  functions:    {self.checked} checked, "
            f"{self.dedup_hits} dedup hits "
            f"({self.dedup_hit_rate * 100:.1f}%)",
            f"  verdicts:     {self.verified} verified"
            + (f" ({self.sampled_verified} sampled)"
               if self.sampled_verified else "")
            + f", {self.failed} failed, {self.inconclusive} inconclusive, "
            f"{self.timeout} timeout",
            f"  shard wall:   {self.wall_seconds:.3f}s total",
        ]
        if self.recoveries or self.crashes:
            lines.append(
                f"  resilience:   {self.recoveries} pass failure(s) "
                f"recovered, {len(self.crashes)} function(s) crashed")
        if self.worker_restarts or self.shards_quarantined:
            lines.append(
                f"  supervisor:   {self.worker_restarts} worker "
                f"restart(s), {len(self.shards_quarantined)} shard(s) "
                f"quarantined {self.shards_quarantined}")
        if report["lint_findings"]:
            findings = ", ".join(
                f"{rule}: {n}"
                for rule, n in sorted(report["lint_findings"].items()))
            lines.append(f"  lint fires:   {findings}")
        if report["vector_ineligible"]:
            reasons = ", ".join(
                f"{reason}: {n}"
                for reason, n in sorted(report["vector_ineligible"].items()))
            lines.append(f"  vector decl.: {reasons} "
                         f"(checks routed to the scalar engine)")
        for bundle in self.bundle_paths:
            lines.append(f"  crash bundle: {bundle}")
        for err in report["shards_errored"]:
            lines.append(f"  errored shard {err['shard_id']}: "
                         f"{err['error']}")
        if self.counterexamples:
            lines.append("")
            lines.append(f"  {len(self.counterexamples)} refinement "
                         f"failure(s); first:")
            first = self.counterexamples[0]
            for text_line in first["source"].strip().splitlines():
                lines.append(f"    {text_line}")
            witness = first["counterexample"].strip().splitlines()[0]
            lines.append(f"    -- {witness.strip()}")
        lines.append("")
        lines.append(self.timing.report(per_function=True,
                                        title="Campaign shard timing"))
        lines.append("")
        lines.append(registry.format_text())
        return "\n".join(lines)

