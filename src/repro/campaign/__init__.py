"""Validation campaign engine (Section 6 at scale).

Turns the E5 methodology — opt-fuzz corpus generation × Alive-style
refinement checking — into a scalable, resumable subsystem: sharded
corpora, a parallel executor with crash accounting, a canonical-hash
dedup cache, JSONL checkpoint/resume, a counterexample reducer, and a
CLI (``python -m repro campaign run|resume|reduce|report``) integrated
with the observability layer.
"""

from .canon import DedupCache, canonical_hash, canonical_text
from .checkpoint import (
    CheckpointStore,
    load_manifest,
    load_manifest_payload,
    manifest_kind,
    save_manifest,
)
from .cli import campaign_main
from .corpus import Corpus
from .executor import (
    CampaignRunner,
    ShardExecutor,
    account_records,
    load_spec,
    load_summary,
    merge_worker_stats,
    run_campaign,
)
from .lint_attack import (
    AttackRunner,
    AttackSpec,
    AttackSummary,
    plan_attack_shards,
    run_attack_shard,
)
from .reduce import (
    ReductionResult,
    make_failure_oracle,
    reduce_counterexamples,
    reduce_failure,
)
from .report import (
    CampaignSummary,
    aggregate_records,
    book_records,
    render_report,
)
from .sharding import Shard, iter_shard_functions, plan_shards, shard_stream_seed
from .spec import CampaignSpec
from .supervisor import SupervisorPolicy, WorkerSupervisor
from .worker import run_shard

__all__ = [
    "AttackRunner", "AttackSpec", "AttackSummary",
    "CampaignRunner", "CampaignSpec", "CampaignSummary", "CheckpointStore",
    "Corpus",
    "DedupCache", "ReductionResult", "Shard", "ShardExecutor",
    "SupervisorPolicy", "WorkerSupervisor", "account_records",
    "aggregate_records", "book_records", "merge_worker_stats",
    "campaign_main", "canonical_hash", "canonical_text",
    "iter_shard_functions", "load_manifest",
    "load_manifest_payload", "load_spec", "load_summary",
    "make_failure_oracle",
    "manifest_kind", "plan_attack_shards", "plan_shards",
    "reduce_counterexamples", "reduce_failure", "render_report",
    "run_attack_shard", "run_campaign", "run_shard",
    "save_manifest", "shard_stream_seed",
]
