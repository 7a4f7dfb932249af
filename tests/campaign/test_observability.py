"""Campaign observability: cross-process span tracing, worker→runner
stats merging, Prometheus text from the checkpoint, and the flight
recorder in failure records.

The tentpole guarantees under test:

* a parallel (multi-process) campaign run with ``trace_dir`` set
  streams per-shard span files (and nothing else) that merge into one
  Perfetto-loadable ``trace.json`` covering every worker;
* worker-process statistics are no longer lost: the campaign summary
  (and the parent process registry) see nonzero ``refine/*`` and
  ``perf/*`` counters after a parallel run;
* tracing never changes verdicts;
* crashed functions carry the worker's black-box flight recorder.
"""

import glob
import json
import os

from repro.campaign import CampaignSpec, run_campaign
from repro.cli import main as repro_main
from repro.diag import default_registry
from repro.diag.metrics import prom_stats, render_prometheus
from repro.diag.metrics_catalog import uncataloged
from repro.diag.trace_export import build_profile, merge_trace, render_top

#: the E5-style smoke corpus: 128 functions, single-pass pipeline.
SPEC = CampaignSpec(
    mode="enumerate", num_instructions=1, opcodes=("mul", "shl"),
    pipeline="instcombine", opt_config="legacy", shard_size=32,
)


def _traced_spec(tmp_path):
    return SPEC.with_(trace_dir=str(tmp_path / "spans"))


class TestWorkerStatsMerge:
    def test_parallel_run_reports_worker_stats(self, tmp_path):
        # Satellite #1: before this layer, stats bumped inside worker
        # *processes* never reached the campaign report.
        summary = run_campaign(SPEC, out_dir=str(tmp_path), workers=2)
        assert summary.stats["refine"]["num-checks"] == summary.checked
        assert summary.stats["refine"]["num-inputs-checked"] > 0
        assert summary.stats["perf"]["num-memo-misses"] > 0

    def test_parent_registry_absorbs_subprocess_deltas(self, tmp_path):
        registry = default_registry()
        before = registry.get("refine", "num-checks")
        summary = run_campaign(SPEC, out_dir=str(tmp_path), workers=2)
        gained = registry.get("refine", "num-checks") - before
        assert gained == summary.checked

    def test_summary_stats_serialize(self, tmp_path):
        summary = run_campaign(SPEC, out_dir=str(tmp_path), workers=2)
        d = summary.as_dict()
        assert d["stats"]["refine"]["num-checks"] == summary.checked
        json.dumps(d)

    def test_reported_stats_are_cataloged(self, tmp_path):
        summary = run_campaign(SPEC, out_dir=str(tmp_path), workers=2)
        pairs = [(p, n) for p, counters in summary.stats.items()
                 for n in counters]
        assert not uncataloged(pairs)


class TestSpanTracing:
    def test_traced_parallel_run_produces_a_merged_trace(self, tmp_path):
        spec = _traced_spec(tmp_path)
        summary = run_campaign(spec, out_dir=str(tmp_path), workers=2)
        assert summary.checked == 128

        span_files = sorted(glob.glob(str(tmp_path / "spans" /
                                          "spans-*.jsonl")))
        assert len(span_files) == 4  # one per shard
        # the checkpoint is the only per-shard copy of the stats
        assert sorted(os.listdir(tmp_path / "spans")) == [
            os.path.basename(p) for p in span_files]

        trace = merge_trace(str(tmp_path / "spans"),
                            str(tmp_path / "trace.json"))
        xs = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        pids = {e["pid"] for e in xs}
        assert len(pids) >= 2  # spans from at least two workers
        names = {e["name"] for e in xs}
        # the instrumented layers all show up in one trace
        assert {"shard", "check-function", "refine-check",
                "instcombine"} <= names

        check_spans = [e for e in xs if e["name"] == "check-function"]
        assert len(check_spans) == 128
        verdicts = [e["args"]["attrs"].get("verdict")
                    for e in check_spans]
        assert verdicts.count("verified") == summary.verified

    def test_diag_top_renders_from_the_trace(self, tmp_path):
        # the per-input phase tier is the scalar engine's; the vector
        # engine decides these legacy checks without it
        spec = _traced_spec(tmp_path).with_(engine="scalar")
        run_campaign(spec, out_dir=str(tmp_path), workers=2)
        trace = merge_trace(str(tmp_path / "spans"))
        profile = build_profile(trace)
        assert profile["refine-check"]["count"] == 128
        # the phase cheap tier aggregated per-input enumeration work
        assert profile["refine-check/enumerate-src"]["count"] > 128
        text = render_top(profile, sort="total")
        assert "refine-check" in text and "check-function" in text

    def test_span_stat_deltas_cover_the_checks(self, tmp_path):
        spec = _traced_spec(tmp_path)
        run_campaign(spec, out_dir=str(tmp_path), workers=2)
        trace = merge_trace(str(tmp_path / "spans"))
        profile = build_profile(trace)
        stats = profile["check-function"]["stats"]
        assert stats.get("refine/num-checks") == 128

    def test_tracing_does_not_change_verdicts(self, tmp_path):
        traced = run_campaign(_traced_spec(tmp_path),
                              out_dir=str(tmp_path / "traced"),
                              workers=2)
        plain = run_campaign(SPEC, out_dir=str(tmp_path / "plain"),
                             workers=2)
        assert traced.verdict_lines() == plain.verdict_lines()

    def test_untraced_run_writes_no_span_files(self, tmp_path):
        run_campaign(SPEC, out_dir=str(tmp_path), workers=2)
        assert not glob.glob(str(tmp_path / "spans" / "*.jsonl"))


class TestMetricsSeries:
    def test_shard_metrics_merge_to_campaign_totals(self, tmp_path,
                                                    capsys):
        # `diag prom OUT` renders the stats the checkpoint records
        # carry, summed per counter across shards, even when one worker
        # process ran several of them
        spec = _traced_spec(tmp_path)
        summary = run_campaign(spec, out_dir=str(tmp_path), workers=2)
        capsys.readouterr()
        assert repro_main(["diag", "prom", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert text == render_prometheus(
            {"stats": prom_stats(summary.stats)})
        assert f"repro_refine_num_checks_total {summary.checked}\n" in text
        # the span directory is no campaign: no manifest, exit 1
        assert repro_main(["diag", "prom", str(tmp_path / "spans")]) == 1
        assert "no campaign manifest" in capsys.readouterr().err


class TestFlightRecorderInRecords:
    def test_crashed_functions_carry_the_black_box(self, tmp_path):
        # Satellite #6: strict policy + chaos crashes every function;
        # each crash record must carry the worker's flight recorder
        # with the doomed function as the latest breadcrumb.
        spec = SPEC.with_(pipeline="o2", opt_config="fixed",
                          policy="strict", chaos_seed=11,
                          chaos_rate=0.02, shard_size=64)
        summary = run_campaign(spec, out_dir=str(tmp_path), workers=2)
        assert summary.crashes
        for crash in summary.crashes:
            recorder = crash["flight_recorder"]
            assert recorder["events"], crash["error"]
            breadcrumbs = [e for e in recorder["events"]
                           if e["kind"] == "check-function"]
            assert breadcrumbs[-1]["hash"] == crash["hash"]

    def test_bundles_store_the_recorder_dump(self, tmp_path):
        spec = SPEC.with_(pipeline="o2", opt_config="fixed",
                          policy="recover", chaos_seed=11,
                          chaos_rate=0.02)
        summary = run_campaign(spec, out_dir=str(tmp_path), workers=2)
        assert summary.bundle_paths
        with open(os.path.join(summary.bundle_paths[0],
                               "bundle.json")) as f:
            bundle = json.load(f)
        assert bundle["flight_recorder"] is not None
        assert bundle["flight_recorder"]["events"]
