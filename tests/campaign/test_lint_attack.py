"""Adversarial lint-attack campaigns: determinism, resume, taxonomy
completeness, disagreement bundling, and CLI dispatch."""

import json
import os
from unittest import mock

import pytest

from repro.campaign import campaign_main, manifest_kind
from repro.campaign.checkpoint import load_manifest
from repro.campaign.lint_attack import (
    AttackRunner,
    AttackSpec,
    plan_attack_shards,
    run_attack_shard,
)
from repro.campaign.sharding import Shard
from repro.lint import RULES
from repro.mutate import VERDICTS

# Small but representative slice: striding spreads 4 seeds across the
# whole flag-carrying enumeration space, which covers every rule.
SPEC = AttackSpec(limit=4, stride=156816, shard_size=2,
                  max_inputs=512, max_paths=256)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("attack-base"))
    summary = AttackRunner(SPEC, out_dir=out, workers=1).run()
    return out, summary


# ---------------------------------------------------------------------------
# spec


def test_spec_round_trips():
    spec = SPEC.with_(mutators=("add-nsw",), rules=("dead-on-poison-flag",))
    assert AttackSpec.from_dict(spec.as_dict()) == spec


def test_spec_validation():
    with pytest.raises(ValueError, match="shard_size"):
        AttackSpec(shard_size=0)
    with pytest.raises(ValueError, match="stride"):
        AttackSpec(stride=0)
    with pytest.raises(ValueError, match="unknown mutator"):
        AttackSpec(mutators=("bogus",))
    with pytest.raises(ValueError, match="unknown lint rule"):
        AttackSpec(rules=("bogus",))
    with pytest.raises(ValueError, match="semantics"):
        AttackSpec(semantics_name="weird")


def test_plan_partitions_positions():
    shards = plan_attack_shards(SPEC)
    assert [s.shard_id for s in shards] == list(range(len(shards)))
    covered = [p for s in shards for p in range(s.start, s.stop)]
    assert covered == list(range(SPEC.total_functions()))


# ---------------------------------------------------------------------------
# taxonomy over a healthy checker


def test_healthy_checker_has_no_disagreements(baseline):
    _, summary = baseline
    assert summary.mutants > 0
    assert summary.unclassified == 0
    assert summary.disagreements == []
    assert summary.bundle_paths == []
    # every registered rule received at least one classified observation
    assert set(summary.taxonomy) == set(RULES)
    for rule, bucket in summary.taxonomy.items():
        classified = sum(bucket.get(v, 0) for v in VERDICTS
                         if v != "unclassified")
        assert classified >= 1, rule


def test_taxonomy_byte_identical_across_worker_counts(baseline, tmp_path):
    _, summary = baseline
    multi = AttackRunner(SPEC, out_dir=str(tmp_path), workers=2).run()
    assert multi.taxonomy_lines() == summary.taxonomy_lines()


def test_interrupt_and_resume_matches_uninterrupted(baseline, tmp_path):
    _, summary = baseline
    out = str(tmp_path)
    partial = AttackRunner(SPEC, out_dir=out, workers=1).run(stop_after=1)
    assert partial.shards_run == 1
    resumed = AttackRunner(SPEC, out_dir=out, workers=1).run(resume=True)
    assert resumed.shards_skipped == 1
    assert resumed.taxonomy_lines() == summary.taxonomy_lines()


def test_shard_records_are_pure_functions_of_inputs():
    shard = plan_attack_shards(SPEC)[0]
    a = run_attack_shard(SPEC, shard)
    b = run_attack_shard(SPEC, shard)
    for key in ("seeds", "mutants", "observations", "taxonomy",
                "disagreements"):
        assert a[key] == b[key]


# ---------------------------------------------------------------------------
# disagreements: a deliberately broken rule is caught, reduced, bundled


def _silence(rule_id):
    orig = RULES[rule_id]
    return type(orig)(
        rule_id=orig.rule_id, severity=orig.severity,
        description=orig.description, check=lambda *a, **k: [],
        polarity=orig.polarity, attacked_by=orig.attacked_by,
        origin_gated=orig.origin_gated)


def test_silenced_soundness_rule_yields_bundled_fns(tmp_path):
    spec = SPEC.with_(limit=2, rules=("ub-sink-reaches-poison",))
    broken = {"ub-sink-reaches-poison":
              _silence("ub-sink-reaches-poison")}
    with mock.patch.dict(RULES, broken):
        summary = AttackRunner(spec, out_dir=str(tmp_path),
                               workers=1).run()
    fns = [d for d in summary.disagreements if d["verdict"] == "fn"]
    assert fns, "silenced soundness rule must produce false negatives"
    assert summary.unclassified == 0
    assert len(summary.bundle_paths) == len(summary.disagreements)
    for entry in summary.disagreements:
        assert entry["rule"] == "ub-sink-reaches-poison"
        assert entry["reduced_ir"].lstrip().startswith(("declare",
                                                        "define"))


def test_disagreement_bundles_replay(tmp_path):
    from repro.opt.resilience import load_bundle, replay_bundle

    spec = SPEC.with_(limit=1, rules=("ub-sink-reaches-poison",))
    broken = {"ub-sink-reaches-poison":
              _silence("ub-sink-reaches-poison")}
    with mock.patch.dict(RULES, broken):
        summary = AttackRunner(spec, out_dir=str(tmp_path),
                               workers=1).run()
    assert summary.bundle_paths
    path = summary.bundle_paths[0]
    bundle = load_bundle(path)
    assert bundle["kind"] == "lint-attack-soundness"
    assert bundle["pass"] == "poison-flow"
    # the bundle replays through the registered poison-flow check
    # (the disagreement is semantic, so the pass itself runs clean)
    result = replay_bundle(path)
    assert result.pass_name == "poison-flow"


# ---------------------------------------------------------------------------
# CLI integration


def test_cli_run_resume_report_dispatch(tmp_path, capsys):
    out = str(tmp_path / "atk")
    argv = ["lint-attack", "--limit", "2", "--stride", "156816",
            "--shard-size", "1", "--max-inputs", "512",
            "--max-paths", "256", "--out", out]
    assert campaign_main(argv + ["--stop-after", "1"]) == 0
    assert manifest_kind(out) == "lint-attack"
    with pytest.raises(ValueError, match="lint-attack"):
        load_manifest(out)  # refine loaders refuse attack manifests
    assert campaign_main(["resume", "--out", out]) == 0
    capsys.readouterr()
    assert campaign_main(["report", "--out", out, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "lint-attack"
    assert report["unclassified"] == 0
    assert report["shards_total"] == 2
    assert campaign_main(["reduce", "--out", out]) == 1
    capsys.readouterr()


def test_cli_list_mutators(capsys):
    assert campaign_main(["lint-attack", "--list-mutators"]) == 0
    out = capsys.readouterr().out
    assert "add-nsw" in out
    assert "insert-freeze" in out
    assert "attacks:" in out


def test_stats_flow_into_record():
    shard = Shard(0, 0, 1)
    record = run_attack_shard(SPEC, shard)
    attack_stats = record["stats"].get("lint-attack", {})
    assert attack_stats.get("num-seeds-attacked") == 1
    assert attack_stats.get("num-mutants") == record["mutants"]
    # lint fire counters ride along for campaign report (satellite b)
    assert "lint" in record["stats"]


# ---------------------------------------------------------------------------
# satellite: refine-campaign report surfaces lint + vector breakdowns


def test_campaign_report_surfaces_lint_and_vector_stats():
    from repro.campaign.report import CampaignSummary
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec()
    records = {0: {
        "shard_id": 0, "status": "done", "checked": 4,
        "stats": {
            "lint": {"num-functions-linted": 4,
                     "num-branch-on-maybe-poison": 2},
            "refine": {"num-vector-ineligible-has-loop": 3,
                       "num-checks": 9},
        },
    }}
    summary = CampaignSummary.from_records(spec, records)
    agg = summary.report_dict()
    assert agg["lint_findings"] == {"branch-on-maybe-poison": 2}
    assert agg["vector_ineligible"] == {"has-loop": 3}
    text = summary.render_report()
    assert "branch-on-maybe-poison: 2" in text
    assert "has-loop: 3" in text
