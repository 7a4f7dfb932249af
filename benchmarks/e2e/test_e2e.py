"""Tests for the end-to-end benchmark's own logic.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

import json
import os

import pytest

import compare
import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- compare rules -------------------------------------------------------------
BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_win_needs_nine_of_ten_pairs_and_a_gap_beyond_the_noise():
    faster = [v * 1.10 for v in BASE]
    assert compare.judge(BASE, faster, "higher", 0.05) == "improved"
    # the same gain on a lower-is-better metric reads as a regression
    assert compare.judge(BASE, faster, "lower", 0.05) == "worse"


def test_noise_is_unchanged():
    shuffled = BASE[5:] + BASE[:5]
    assert compare.judge(BASE, shuffled, "higher", 0.05) == "unchanged"


def test_eight_of_ten_pairs_is_not_a_gain():
    mixed = [v * 1.10 for v in BASE[:8]] + [v * 0.99 for v in BASE[8:]]
    assert compare.judge(BASE, mixed, "higher", 0.2) == "unchanged"


def test_regression_beyond_the_bound():
    slower = [v * 0.90 for v in BASE]
    assert compare.judge(BASE, slower, "higher", 0.05) == "worse"
    assert compare.judge(BASE, slower, "higher", 0.15) == "unchanged"


NOISY = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]


def test_spread_beyond_the_bound_is_unresolved():
    assert compare.judge(BASE, NOISY, "higher", 0.05) == "unresolved"


def test_wide_spread_still_resolves_when_every_new_run_is_better():
    old = [100.0, 60.0, 80.0, 90.0]
    new = [200.0, 150.0, 300.0, 250.0]
    assert compare.judge(old, new, "higher", 0.05) != "unresolved"


def test_noise_does_not_hide_a_regression_beyond_the_bound():
    # the NEW spread is wider than the bound, but its median lost 30%
    slower = [v * 0.7 for v in NOISY]
    assert compare.judge(BASE, slower, "higher", 0.24) == "worse"
    longer = [v * 1.3 for v in NOISY]
    assert compare.judge(BASE, longer, "lower", 0.24) == "worse"


def test_exact_metrics_regress_on_any_increase():
    zeros = [0.0] * 10
    assert compare.judge_exact(zeros, zeros) == "unchanged"
    assert compare.judge_exact(zeros, [0.0] * 9 + [0.01]) == "worse"
    # varying values: worse once a NEW run reads above every OLD run
    old = [0.0, 0.002, 0.0, 0.001, 0.0]
    assert compare.judge_exact(old, [0.001, 0.0, 0.002, 0.0, 0.0]) == \
        "unchanged"
    assert compare.judge_exact(old, [0.0, 0.0, 0.003, 0.0, 0.0]) == "worse"


def test_a_rising_undecided_ratio_fails_the_comparison(tmp_path, capsys):
    def results(name, undecided):
        document = {"workloads": {"w": {
            "end_to_end": {metric: 1.0 for metric in run.E2E_UNITS},
            "attempted": 100, "failed": 0,
            "extra": {"error_ratio": 0.0, "undecided_ratio": undecided}}}}
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    old = results("old.json", 0.0)
    assert compare.main([old, results("same.json", 0.0)]) == 0
    assert compare.main([old, results("new.json", 0.01)]) == 1
    assert "undecided_ratio" in capsys.readouterr().out


def _result(workload, values, failed=0):
    return {"workloads": {workload: {
        "end_to_end": dict(values), "attempted": 100, "failed": failed,
        "extra": {"error_ratio": failed / 100, "undecided_ratio": 0.0}}}}


def test_compare_flags_a_higher_failure_share():
    metrics = [{"name": "items_per_s", "better": "higher", "bound": 0.05}]
    old = [_result("w", {"items_per_s": v}) for v in BASE]
    new = [_result("w", {"items_per_s": v}, failed=1) for v in BASE]
    rows, failing = compare.compare(old, new, metrics)
    assert failing == ["w"]
    verdicts = {name: verdict for _, name, _, _, _, verdict in rows}
    assert verdicts["items_per_s"] == "unchanged"
    assert verdicts["error_ratio"] == "worse"


def test_failed_items_count_an_errored_shards_crashes_once():
    records = {0: {"status": "ok", "crashes": [{}, {}]},
               1: {"status": "errored", "crashes": [{}]},
               2: {"status": "ok"}}
    assert workloads._failed_items(records, {0: 64, 1: 64, 2: 64}) == 66


# -- self-time arithmetic -----------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_boundaries(tmp_path):
    clock = FakeClock()
    tracer = tracing.Tracer(str(tmp_path), clock=clock)

    def at(t, action, *args):
        clock.now = t
        action(*args)

    # A (a span) [0, 10] holds B [1, 5] with C [2, 4], then B [6, 7]
    at(0, tracer.enter, "A", True)
    at(1, tracer.enter, "B")
    at(2, tracer.enter, "C")
    at(4, tracer.exit)
    at(5, tracer.exit)
    at(6, tracer.enter, "B")
    at(7, tracer.exit)
    at(10, tracer.exit)

    layers = tracer._state().layers
    assert layers["A"] == [1, 10.0, 5.0]
    assert layers["B"] == [2, 5.0, 3.0]
    assert layers["C"] == [1, 2.0, 2.0]
    # nested self times land in the enclosing span's phase table, so the
    # span's own self time is its duration minus what they cover
    span = tracer._state().collector.spans[0]
    assert span.phases == {"B": [2, 3.0], "C": [1, 2.0]}

    tracer.dump()
    loaded = tracing.load_round(str(tmp_path))
    assert loaded["layers"]["B"] == [2, 5.0, 3.0]
    from repro.diag.trace_export import build_profile, merge_trace

    profile = build_profile(merge_trace(str(tmp_path / "spans")))
    assert profile["A"]["count"] == 1
    assert profile["A/B"]["count"] == 2
    assert profile["A/C"]["total_us"] == pytest.approx(2e6)


def test_installed_wrappers_time_a_campaign_and_uninstall(tmp_path):
    from repro.campaign import worker
    from repro.campaign.executor import CampaignRunner
    from repro.campaign.spec import CampaignSpec

    original = worker.canonical_hash
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    try:
        spec = CampaignSpec(mode="random", num_instructions=2, count=8,
                            seed=3, shard_size=4)
        summary = CampaignRunner(spec).run()
    finally:
        tracer.uninstall()
    assert worker.canonical_hash is original
    layers = tracing.load_round(str(tmp_path))["layers"]
    functions = summary.checked + summary.dedup_hits
    assert layers["campaign.shard"][0] == 2
    assert layers["fuzz.generate"][0] >= functions
    assert layers["campaign.canon"][0] == functions
    assert layers["campaign.worker"][0] == summary.checked
    assert layers["opt.pipeline"][0] == summary.checked
    assert layers["refine"][0] == summary.checked
    metrics = tracing.layer_metrics(layers, functions)
    assert metrics["campaign.canon.calls"] == 1.0


# -- the benchmark definition matches the code --------------------------------
def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.layer_units()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_digests_cover_the_first_rounds_of_every_workload():
    with open(run.DIGESTS) as f:
        digests = json.load(f)
    for mode in ("full", "smoke"):
        assert sorted(digests[mode]) == sorted(run.WORKLOADS)
        for workload in run.WORKLOADS:
            assert len(digests[mode][workload]) == run.DIGEST_ROUNDS
