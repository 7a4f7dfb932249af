"""Durable campaign state: manifest, shard checkpoint, dedup log.

Everything is append-only JSONL (plus one JSON manifest), chosen so a
mid-run kill can at worst truncate the final line — the loader skips
unparseable trailing garbage instead of failing, and ``resume`` simply
re-runs the shard whose record was lost.

* ``manifest.json``  — the :class:`~repro.campaign.spec.CampaignSpec`
  and the shard plan's vital statistics; ``campaign resume`` rebuilds
  the exact shard plan from it.
* ``checkpoint.jsonl`` — one record per *completed* shard (``done`` or
  ``errored``): verdict counts, counterexamples, dedup hits, wall time,
  and a stats-registry delta.  The last record for a shard id wins, so
  a retried shard simply appends its new outcome.
* ``dedup.jsonl``     — one ``{"hash": ..., "verdict": ...}`` line per
  newly checked canonical hash, a record of what the run checked.
  Resume does not read it back: shards dedup only within themselves,
  and the memo replays verdicts across shards and runs, so a resumed
  campaign counts what an uninterrupted one counts.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Optional, Tuple

from ..diag.jsonl import load_jsonl
from .spec import CampaignSpec

MANIFEST_NAME = "manifest.json"
CHECKPOINT_NAME = "checkpoint.jsonl"
DEDUP_NAME = "dedup.jsonl"
REDUCED_NAME = "reduced.jsonl"

#: spec keys that older manifests carry and no spec has any more;
#: the loader drops them so those campaigns still resume and report.
RETIRED_SPEC_KEYS = ("metrics_interval",)


def _append_jsonl(path: str, records: Iterable[dict]) -> None:
    with open(path, "a", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")
        f.flush()
        os.fsync(f.fileno())


class CheckpointStore:
    """The per-shard completion log of one campaign directory."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, CHECKPOINT_NAME)
        self.dedup_path = os.path.join(out_dir, DEDUP_NAME)

    # -- shard records -----------------------------------------------------
    def append(self, record: dict) -> None:
        _append_jsonl(self.path, [record])

    def load(self) -> Dict[int, dict]:
        """All shard records, last-record-per-shard-id wins."""
        records: Dict[int, dict] = {}
        for record in load_jsonl(self.path):
            if "shard_id" in record:
                records[int(record["shard_id"])] = record
        return records

    def done_ids(self) -> frozenset:
        """Shards that finished successfully (``errored`` shards are
        *not* done: resume retries them)."""
        return frozenset(
            sid for sid, record in self.load().items()
            if record.get("status") == "done"
        )

    # -- dedup log ---------------------------------------------------------
    def append_dedup(self, verdicts: Dict[str, str]) -> None:
        _append_jsonl(
            self.dedup_path,
            ({"hash": h, "verdict": v} for h, v in sorted(verdicts.items())),
        )

    def load_dedup(self) -> Dict[str, str]:
        known: Dict[str, str] = {}
        for record in load_jsonl(self.dedup_path):
            if "hash" in record:
                known[record["hash"]] = record.get("verdict", "")
        return known

    # -- reduced counterexamples ------------------------------------------
    def append_reduced(self, records: Iterable[dict]) -> None:
        _append_jsonl(os.path.join(self.out_dir, REDUCED_NAME), records)

    def load_reduced(self) -> list:
        return load_jsonl(os.path.join(self.out_dir, REDUCED_NAME))


def save_manifest(out_dir: str, spec: CampaignSpec,
                  extra: Optional[dict] = None) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, MANIFEST_NAME)
    payload = {"spec": spec.as_dict(),
               "total_functions": spec.total_functions()}
    payload.update(extra or {})
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)
    return path


def load_manifest_payload(out_dir: str) -> dict:
    """The raw manifest dict, minus :data:`RETIRED_SPEC_KEYS`; callers
    dispatch on ``payload["kind"]`` before committing to a spec class
    (refine campaigns predate the tag, so a missing kind means
    refine)."""
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    for key in RETIRED_SPEC_KEYS:
        payload.get("spec", {}).pop(key, None)
    return payload


def manifest_kind(out_dir: str) -> str:
    return load_manifest_payload(out_dir).get("kind", "refine")


def load_manifest(out_dir: str) -> Tuple[CampaignSpec, dict]:
    payload = load_manifest_payload(out_dir)
    kind = payload.get("kind", "refine")
    if kind != "refine":
        raise ValueError(
            f"manifest in {out_dir} is a {kind!r} campaign, not refine")
    return CampaignSpec.from_dict(payload["spec"]), payload
