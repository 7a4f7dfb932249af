"""``campaign lint-attack``: adversarial validation of the checker stack.

The campaign under this mode inverts the usual arrangement: the *lint
engine and poison-flow analyzer* are the system under test, and the
exact behavior enumerator is the oracle.  Each shard walks a sampled
slice of the opt-fuzz corpus, applies every selected mutator from
:mod:`repro.mutate` to each seed, and classifies every (mutant, rule,
site) observation into the FN/FP/TP/TN taxonomy via
:func:`repro.mutate.classify_mutation`.  Every disagreement (a false
negative or false positive) is reduced to the site's backward slice and
recorded as a replayable ``lint-attack-soundness`` crash bundle.

One runner, one planner, one fold.  The
:class:`~repro.campaign.executor.CampaignRunner` that runs ``campaign
run`` runs these shards too: the spec's ``kind`` selects the shard
function and summary.  Sharding is a pure function of the frozen,
JSON-serializable :class:`AttackSpec` and its seed corpus
(:mod:`repro.campaign.corpus`); checkpoints are fsync'd JSONL with
last-record-per-shard-id-wins semantics; the manifest is tagged
``"kind": "lint-attack"``.  :meth:`AttackSummary.from_records` (the
shared :class:`~repro.campaign.report.ShardSummary` fold plus
:meth:`AttackSummary.add`) is the only fold of attack records, used by
a live run, ``campaign resume`` and ``campaign report``.  Shard
records are pure functions of ``(spec, shard)``, so the merged taxonomy
is byte-identical across worker counts and resume boundaries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

from ..diag import Statistic, span, stats_delta, stats_snapshot
from ..mutate import (
    VERDICTS,
    ClassifyOptions,
    all_mutator_names,
    classify_mutation,
    mutate_function,
)
from ..opt.resilience.bundle import make_bundle_payload
from ..semantics.config import NEW, OLD
from .corpus import CorpusSpec
from .executor import CampaignRunner
from .report import ShardSummary
from .sharding import Shard, plan_shards
from .worker import _maybe_crash

#: campaign kind of an :class:`AttackSpec`, also its manifest tag.
MANIFEST_KIND = "lint-attack"

#: crash-bundle kind for recorded disagreements.
BUNDLE_KIND = "lint-attack-soundness"

NUM_SEEDS = Statistic(
    "lint-attack", "num-seeds-attacked",
    "Corpus seed functions run through the mutator library")
NUM_MUTANTS = Statistic(
    "lint-attack", "num-mutants",
    "Mutants generated and classified against ground truth")
NUM_OBSERVATIONS = Statistic(
    "lint-attack", "num-observations",
    "Scored (mutant, rule, site) taxonomy observations")
NUM_ORACLE_EVENTS = Statistic(
    "lint-attack", "num-oracle-events",
    "Raw observation-call events recorded by the exact oracle")
NUM_DISAGREEMENTS = Statistic(
    "lint-attack", "num-disagreements",
    "False-negative/false-positive observations (checker bugs found)")
NUM_UNCLASSIFIED = Statistic(
    "lint-attack", "num-unclassified",
    "Observations the oracle could not classify within budget")

#: (rule, verdict) -> Statistic, created on first booking so the stats
#: namespace only carries rules the campaign actually scored.
_VERDICT_STATS: Dict[Tuple[str, str], Statistic] = {}


def _verdict_stat(rule: str, verdict: str) -> Statistic:
    key = (rule, verdict)
    stat = _VERDICT_STATS.get(key)
    if stat is None:
        stat = _VERDICT_STATS[key] = Statistic(
            "lint-attack", f"num-{rule}-{verdict}",
            f"{verdict} observations for the {rule} rule")
    return stat


@dataclass(frozen=True)
class AttackSpec(CorpusSpec):
    """Everything needed to reproduce a lint-attack campaign."""

    kind: ClassVar[str] = MANIFEST_KIND
    #: shards address corpus positions (see
    #: :func:`repro.campaign.sharding.plan_shards`).
    index_shards: ClassVar[bool] = False

    width: int = 2
    num_instructions: int = 2
    num_args: int = 2
    #: opcode names; empty = the exhaustive default set (see
    #: :mod:`repro.campaign.corpus`).
    opcodes: Tuple[str, ...] = ()
    include_flags: bool = True
    include_deferred: bool = True
    #: cap on sampled seeds (positions, after striding).
    limit: Optional[int] = 32
    #: first corpus index to sample.
    start: int = 0
    #: sample every Nth corpus index (spreads a bounded limit over the
    #: whole enumeration space, which orders variants systematically).
    stride: int = 1
    #: mutator names; empty = every registered mutator.
    mutators: Tuple[str, ...] = ()
    #: rule IDs to score; empty = every registered rule.
    rules: Tuple[str, ...] = ()
    #: sampled seed positions per shard.
    shard_size: int = 8
    #: oracle budgets (per mutant).
    max_inputs: int = 4096
    max_paths: int = 512
    max_choices: int = 16
    fuel: int = 4000
    #: semantics the lint engine and the oracle agree on.
    semantics_name: str = "new"

    def __post_init__(self):
        from ..lint.rules import RULES
        from ..mutate import MUTATORS

        if self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if self.semantics_name not in ("new", "old"):
            raise ValueError(
                f"unknown semantics {self.semantics_name!r}")
        self.corpus  # raises ValueError on a bad stride or opcode name
        for name in self.mutators:
            if name not in MUTATORS:
                raise ValueError(f"unknown mutator {name!r}")
        for name in self.rules:
            if name not in RULES:
                raise ValueError(f"unknown lint rule {name!r}")

    # -- resolution --------------------------------------------------------
    def semantics(self):
        return NEW if self.semantics_name == "new" else OLD

    def resolved_mutators(self) -> List[str]:
        return list(self.mutators) if self.mutators else all_mutator_names()

    def resolved_rules(self) -> Optional[List[str]]:
        return list(self.rules) if self.rules else None

    def classify_options(self) -> ClassifyOptions:
        return ClassifyOptions(
            max_inputs=self.max_inputs, max_paths=self.max_paths,
            max_choices=self.max_choices, fuel=self.fuel)

    # -- corpus addressing -------------------------------------------------
    def corpus_window(self) -> Dict:
        return {"start": self.start, "limit": self.limit,
                "stride": self.stride}

    def enumeration_size(self) -> int:
        return self.corpus.space_size

    def corpus_index(self, position: int) -> int:
        """Map a sampled position to its raw corpus index."""
        return self.corpus.index_at(position)

    def seed_at(self, position: int):
        return self.corpus.function_at(position)


#: one planner serves both campaign kinds; the name stays importable.
plan_attack_shards = plan_shards


def run_attack_shard(spec: AttackSpec, shard: Shard,
                     known_hashes: Optional[Dict[str, str]] = None) -> dict:
    """Attack one shard's seeds; a pure function of ``(spec, shard)``.

    ``known_hashes`` is accepted for the signature
    :func:`~repro.campaign.worker.run_shard` has, and ignored (attack
    shards have no cross-shard dedup: every scored observation is
    wanted, per-rule).
    """
    _maybe_crash(shard.shard_id)
    stats_before = stats_snapshot()
    t0 = time.monotonic()
    semantics = spec.semantics()
    opts = spec.classify_options()
    mutators = spec.resolved_mutators()
    rules = spec.resolved_rules()

    taxonomy: Dict[str, Dict[str, int]] = {}
    disagreements: List[dict] = []
    bundles: List[dict] = []
    seeds = mutants = observations = oracle_events = 0
    with span("attack-shard", cat="campaign") as sp:
        sp.set(shard=shard.shard_id)
        for position in range(shard.start, shard.stop):
            index = spec.corpus_index(position)
            fn = spec.seed_at(position)
            seeds += 1
            NUM_SEEDS.inc()
            for mutation in mutate_function(fn, mutators):
                mutants += 1
                NUM_MUTANTS.inc()
                scored, events = classify_mutation(
                    mutation, semantics, opts, rules=rules)
                oracle_events += events
                NUM_ORACLE_EVENTS.inc(events)
                for obs in scored:
                    observations += 1
                    NUM_OBSERVATIONS.inc()
                    bucket = taxonomy.setdefault(
                        obs.rule, {v: 0 for v in VERDICTS})
                    bucket[obs.verdict] += 1
                    _verdict_stat(obs.rule, obs.verdict).inc()
                    if obs.verdict == "unclassified":
                        NUM_UNCLASSIFIED.inc()
                    if not obs.is_disagreement:
                        continue
                    NUM_DISAGREEMENTS.inc()
                    payload = make_bundle_payload(
                        pre_ir=obs.reduced_ir,
                        pass_name="poison-flow",
                        application=index,
                        kind=BUNDLE_KIND,
                        error=(f"{obs.rule} {obs.verdict} at {obs.site} "
                               f"(mutator {obs.mutator}): {obs.detail}"),
                        traceback_text="",
                        function=f"{mutation.seed}+{mutation.mutator}",
                    )
                    bundles.append(payload)
                    entry = obs.as_dict()
                    entry["index"] = index
                    entry["bundle_id"] = payload.get("bundle_id", "")
                    disagreements.append(entry)

    return {
        "shard_id": shard.shard_id,
        "status": "done",
        "start": shard.start,
        "stop": shard.stop,
        "seeds": seeds,
        "mutants": mutants,
        "observations": observations,
        "oracle_events": oracle_events,
        "taxonomy": taxonomy,
        "disagreements": disagreements,
        "crashes": [],
        "bundles": bundles,
        "wall_seconds": time.monotonic() - t0,
        "stats": stats_delta(stats_before, stats_snapshot()),
    }


@dataclass
class AttackSummary(ShardSummary):
    """Aggregate view over every checkpointed shard of an attack."""

    seeds: int = 0
    mutants: int = 0
    observations: int = 0
    oracle_events: int = 0
    #: rule -> verdict -> count, merged in shard-id order.
    taxonomy: Dict[str, Dict[str, int]] = field(default_factory=dict)
    disagreements: List[dict] = field(default_factory=list)

    timing_row: ClassVar[str] = "attack-shard"

    def add(self, record: dict) -> bool:
        self.seeds += record.get("seeds", 0)
        self.mutants += record.get("mutants", 0)
        self.observations += record.get("observations", 0)
        self.oracle_events += record.get("oracle_events", 0)
        for rule, bucket in (record.get("taxonomy") or {}).items():
            dest = self.taxonomy.setdefault(rule, {v: 0 for v in VERDICTS})
            for verdict, n in bucket.items():
                dest[verdict] = dest.get(verdict, 0) + n
        self.disagreements.extend(record.get("disagreements", []))
        return bool(record.get("disagreements"))

    @property
    def unclassified(self) -> int:
        return sum(bucket.get("unclassified", 0)
                   for bucket in self.taxonomy.values())

    @property
    def classified(self) -> int:
        return self.observations - self.unclassified

    @property
    def mutants_per_second(self) -> float:
        return self.mutants / self.wall_seconds if self.wall_seconds else 0.0

    def taxonomy_lines(self) -> List[str]:
        """Canonical, worker-count-independent result lines."""
        lines = []
        for rule in sorted(self.taxonomy):
            bucket = self.taxonomy[rule]
            lines.append(
                f"{rule} " + " ".join(
                    f"{v}={bucket.get(v, 0)}" for v in VERDICTS))
        lines.extend(sorted(
            f"disagree {d['rule']} {d['verdict']} seed#{d['index']} "
            f"{d['mutator']} {d['site']}"
            for d in self.disagreements))
        return lines

    def as_dict(self) -> dict:
        return dict(
            super().as_dict(),
            kind=MANIFEST_KIND,
            seeds=self.seeds,
            mutants=self.mutants,
            observations=self.observations,
            oracle_events=self.oracle_events,
            classified=self.classified,
            unclassified=self.unclassified,
            taxonomy=self.taxonomy,
            disagreements=self.disagreements,
            mutants_per_second=self.mutants_per_second,
        )

    #: ``campaign report --json`` shows what a run shows.
    report_dict = as_dict

    def render_report(self) -> str:
        """Human-readable attack report (see DESIGN, "Adversarial
        validation", for how to read it)."""
        spec = self.spec
        lines = [
            (f"lint-attack: width={spec.width} "
             f"instructions={spec.num_instructions} "
             f"seeds sampled={spec.total_functions()} "
             f"stride={spec.stride}"),
            (f"  shards: {len(self.records)}/{self.shards_total} recorded, "
             f"{len(self.shards_errored)} errored"),
            (f"  {self.seeds} seed(s) -> {self.mutants} mutant(s), "
             f"{self.observations} observation(s) "
             f"({self.oracle_events} oracle events)"),
            (f"  classified: {self.classified}, "
             f"unclassified: {self.unclassified}"),
            "",
            "  rule                           tp    fp    fn    tn  uncl",
        ]
        for rule in sorted(self.taxonomy):
            b = self.taxonomy[rule]
            lines.append(
                f"  {rule:<28} {b.get('tp', 0):>5} {b.get('fp', 0):>5} "
                f"{b.get('fn', 0):>5} {b.get('tn', 0):>5} "
                f"{b.get('unclassified', 0):>5}")
        if self.disagreements:
            lines.append("")
            lines.append(f"  {len(self.disagreements)} disagreement(s) "
                         f"— checker bugs, bundled for replay:")
            for d in self.disagreements[:10]:
                lines.append(f"    {d['rule']} {d['verdict']} on "
                             f"seed#{d['index']} via {d['mutator']} at "
                             f"{d['site']}")
            if len(self.disagreements) > 10:
                lines.append(
                    f"    ... {len(self.disagreements) - 10} more")
        else:
            lines.append("  no disagreements: every fired/silent verdict "
                         "consistent with the exact semantics")
        if self.shards_errored:
            lines.append(f"  errored shards (will retry on resume): "
                         f"{self.shards_errored}")
        return "\n".join(lines)

    def render(self) -> str:
        """The ``campaign lint-attack``/``resume`` summary."""
        text = self.render_report()
        if self.bundle_paths:
            text += (f"\n  {len(self.bundle_paths)} disagreement bundle(s) "
                     f"written; replay with `repro crash replay <bundle>`")
        return text


#: :class:`CampaignRunner` runs every campaign kind; this name is for
#: callers that run lint-attack specs.
AttackRunner = CampaignRunner
