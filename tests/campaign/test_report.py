"""One fold per summary kind: ``campaign report`` (text and ``--json``)
summarizes a checkpoint exactly as the live run and resume did."""

import json
import os

import pytest

from repro.campaign import (
    CampaignSpec,
    CheckpointStore,
    campaign_main,
    save_manifest,
)

#: 128 legacy-instcombine functions in 4 shards, some of them miscompiled.
REFINE_ARGS = ["--instructions", "1", "--opcodes", "mul,shl",
               "--pipeline", "instcombine", "--opt-config", "legacy",
               "--shard-size", "32"]

#: 4 seeds in 4 shards, spread over the flag-carrying corpus.
ATTACK_ARGS = ["--limit", "4", "--stride", "156816", "--shard-size", "1",
               "--max-inputs", "512", "--max-paths", "256"]


def cli_json(capsys, *argv):
    assert campaign_main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def run_resume_report(capsys, out, command, args):
    """Start a 2-worker campaign, stop it after 2 shards, resume it, and
    return the resume summary and the report, both as JSON."""
    first = cli_json(capsys, command, "--out", out, "--workers", "2",
                     "--stop-after", "2", "--json", *args)
    assert first["shards_run"] == 2
    resumed = cli_json(capsys, "resume", "--out", out, "--workers", "2",
                       "--json")
    assert resumed["shards_skipped"] == 2
    assert resumed["shards_run"] == resumed["shards_total"] - 2
    return resumed, cli_json(capsys, "report", "--out", out, "--json")


def test_refine_report_matches_resume(tmp_path, capsys):
    resumed, report = run_resume_report(capsys, str(tmp_path), "run",
                                        REFINE_ARGS)
    assert resumed["failed"] > 0, "legacy instcombine must miscompile"
    for key in ("checked", "dedup_hits", "failed", "counterexamples",
                "worker_restarts", "shards_total"):
        assert report[key] == resumed[key], key
    assert report["shards_done"] == resumed["shards_total"]


def test_attack_report_matches_resume(tmp_path, capsys):
    resumed, report = run_resume_report(capsys, str(tmp_path),
                                        "lint-attack", ATTACK_ARGS)
    assert resumed["mutants"] > 0
    for key in ("taxonomy", "disagreements", "mutants", "observations",
                "worker_restarts", "shards_total"):
        assert report[key] == resumed[key], key


@pytest.mark.parametrize("command, args, keys", [
    ("run", REFINE_ARGS,
     ("checked", "dedup_hits", "failed", "counterexamples")),
    ("lint-attack", ATTACK_ARGS,
     ("taxonomy", "disagreements", "mutants", "observations")),
])
def test_manifest_with_a_retired_key_resumes(tmp_path, capsys, command,
                                             args, keys):
    # manifests once carried the spec field `metrics_interval`; such a
    # campaign still resumes and reports the uninterrupted totals
    whole = cli_json(capsys, command, "--out", str(tmp_path / "whole"),
                     "--json", *args)
    out = str(tmp_path / "old")
    cli_json(capsys, command, "--out", out, "--stop-after", "2", "--json",
             *args)
    path = os.path.join(out, "manifest.json")
    with open(path) as f:
        payload = json.load(f)
    payload["spec"]["metrics_interval"] = 5.0
    with open(path, "w") as f:
        json.dump(payload, f)

    resumed = cli_json(capsys, "resume", "--out", out, "--json")
    assert resumed["shards_skipped"] == 2
    report = cli_json(capsys, "report", "--out", out, "--json")
    for key in keys:
        assert resumed[key] == whole[key] == report[key], key


def test_report_shows_supervisor_activity(tmp_path, capsys):
    out = str(tmp_path)
    spec = CampaignSpec(num_instructions=1, opcodes=("mul",),
                        shard_size=64)
    save_manifest(out, spec, extra={"shards": 2})
    store = CheckpointStore(out)
    store.append({"shard_id": 0, "status": "done", "checked": 3,
                  "verdicts": {"verified": 3}, "restarts": 1,
                  "wall_seconds": 0.1})
    store.append({"shard_id": 1, "status": "errored", "checked": 0,
                  "error": "worker crashed without reporting",
                  "verdicts": {}, "restarts": 2, "quarantined": True,
                  "wall_seconds": 0.0})

    report = cli_json(capsys, "report", "--out", out, "--json")
    assert report["worker_restarts"] == 3
    assert report["shards_quarantined"] == [1]
    assert report["shards_errored"] == [
        {"shard_id": 1, "error": "worker crashed without reporting"}]

    assert campaign_main(["report", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "3 worker restart(s), 1 shard(s) quarantined [1]" in text
    assert "errored shard 1: worker crashed without reporting" in text
