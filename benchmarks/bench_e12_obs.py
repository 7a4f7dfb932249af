"""E12 — observability overhead and trace-validity gates.

Measures the span/flight-recorder layer against the E5 smoke
campaign (complete 1-instruction i2 corpus through fixed-config
InstCombine) and writes a ``BENCH_e12.json`` trajectory that later PRs
are held to:

* **tracing-off cost**: ns/call of ``span()`` / ``phase()`` on a
  disabled collector — the fast path every hot loop pays when no one
  is watching (must stay the shared ``NULL_SPAN`` no-op);
* **tracing-on overhead**: best-of-N process CPU time of the smoke
  campaign with ``trace_dir`` streaming spans vs the
  identical untraced run, as a ratio.  The A/B runs in-process
  (workers=1) and gates on ``time.process_time`` rather than wall
  clock: tracing overhead is pure CPU, and CPU time is immune to the
  scheduler/pool-startup noise that dwarfs a sub-second campaign on a
  busy box (wall times are reported alongside, informationally);
* **verdict invariance**: the traced and untraced runs must produce
  byte-identical verdict sets (observability must never perturb the
  checker);
* **trace validity**: a separate 2-worker-process traced run must
  stream per-shard span files that merge into a Chrome trace spanning
  at least two OS processes with all instrumented layers present, the
  profile report must render, and the stats rendered from the
  campaign's checkpoint records must count every corpus function.

The script is also the CI gate: it exits nonzero if verdicts differ,
if the disabled fast path stops being the ``NULL_SPAN`` singleton, if
the merged trace is missing workers or layers, or — in full mode — if
the tracing-on CPU overhead exceeds 10%.  The record is stamped with
the git sha, mode and core count.

Usage::

    PYTHONPATH=src python benchmarks/bench_e12_obs.py [--quick] \
        [--out BENCH_e12.json]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import tempfile
import time

from provenance import stamp
from repro.campaign import CampaignSpec, CampaignRunner, load_summary
from repro.diag.metrics import prom_stats, render_prometheus
from repro.diag.spans import NULL_SPAN, SpanCollector
from repro.diag.trace_export import (
    build_profile,
    load_span_file,
    merge_trace,
    render_top,
)

#: tracing-on / tracing-off CPU-time ratio the full run must stay
#: under (acceptance criterion: <10% overhead).
OVERHEAD_GATE = 1.10

#: span names every merged smoke trace must contain — one per
#: instrumented layer (executor, worker, checker, pass manager).
REQUIRED_LAYERS = {"shard", "check-function", "refine-check",
                   "instcombine"}


def _smoke_spec(trace_dir=None, limit=None) -> CampaignSpec:
    """The E5 smoke campaign with the memo cache off, so traced and
    untraced runs do identical work and verdicts must match
    byte-for-byte."""
    return CampaignSpec(
        mode="enumerate", num_instructions=1, shard_size=64,
        pipeline="instcombine", opt_config="fixed",
        max_choices=20, fuel=600, limit=limit,
        use_cache=False, trace_dir=trace_dir,
    )


def _run_campaign(spec: CampaignSpec, workers: int = 1, out_dir=None):
    """Run one campaign, returning (wall seconds, CPU seconds,
    summary).  CPU covers this process only — meaningful for the
    in-process workers=1 A/B the overhead gate uses."""
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    summary = CampaignRunner(spec, out_dir=out_dir, workers=workers).run()
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    assert not summary.shards_errored, summary.shards_errored
    return wall, cpu, summary


def bench_disabled_fast_path(quick: bool) -> dict:
    """ns/call of span()/phase() when tracing is off, vs an empty
    context manager — the price every instrumented hot loop pays."""
    iters = 100_000 if quick else 400_000
    sc = SpanCollector()  # disabled: no sink, no keep

    start = time.perf_counter()
    for _ in range(iters):
        with sc.span("check-function", cat="campaign"):
            pass
    span_wall = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(iters):
        with sc.phase("enumerate-src"):
            pass
    phase_wall = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(iters):
        with memoryview(b""):  # a trivial stdlib context manager
            pass
    baseline_wall = time.perf_counter() - start

    return {
        "iterations": iters,
        "span_ns_per_call": round(span_wall / iters * 1e9, 1),
        "phase_ns_per_call": round(phase_wall / iters * 1e9, 1),
        "baseline_ctx_ns_per_call": round(baseline_wall / iters * 1e9, 1),
        "returns_null_span_singleton": (
            sc.span("x").__enter__() is NULL_SPAN
            and sc.phase("y") is NULL_SPAN),
    }


def bench_tracing_overhead(quick: bool) -> dict:
    """Interleaved best-of-N in-process campaigns traced vs untraced,
    gated on process CPU time."""
    limit = 192 if quick else None
    repeats = 1 if quick else 5

    off_cpu, off_wall, on_cpu, on_wall = [], [], [], []
    off_summary = on_summary = None
    try:
        spans_dir = None
        for _ in range(repeats):
            wall, cpu, off_summary = _run_campaign(
                _smoke_spec(limit=limit))
            off_wall.append(wall)
            off_cpu.append(cpu)

            if spans_dir:
                shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir = tempfile.mkdtemp(prefix="bench-e12-spans-")
            wall, cpu, on_summary = _run_campaign(
                _smoke_spec(trace_dir=spans_dir, limit=limit))
            on_wall.append(wall)
            on_cpu.append(cpu)
    finally:
        if spans_dir:
            shutil.rmtree(spans_dir, ignore_errors=True)

    checked = on_summary.checked + on_summary.dedup_hits
    best_off, best_on = min(off_cpu), min(on_cpu)
    return {
        "corpus_functions": checked,
        "repeats": repeats,
        "verdicts_identical": (off_summary.verdict_lines()
                               == on_summary.verdict_lines()),
        "verdicts": {
            "verified": on_summary.verified,
            "failed": on_summary.failed,
            "inconclusive": on_summary.inconclusive,
            "timeout": on_summary.timeout,
        },
        "runs": {
            "tracing_off": {"cpu_seconds": round(best_off, 4),
                            "wall_seconds": round(min(off_wall), 4)},
            "tracing_on": {"cpu_seconds": round(best_on, 4),
                           "wall_seconds": round(min(on_wall), 4)},
        },
        "overhead_ratio": (round(best_on / best_off, 4)
                           if best_off else 0.0),
    }


def bench_parallel_trace(quick: bool) -> dict:
    """One traced 2-worker-process campaign: the merged trace must
    span multiple OS processes and every instrumented layer, and the
    stats ``repro diag prom`` renders from the checkpoint records must
    count every corpus function."""
    limit = 192 if quick else None
    out_dir = tempfile.mkdtemp(prefix="bench-e12-par-")
    spans_dir = os.path.join(out_dir, "spans")
    try:
        _, _, summary = _run_campaign(
            _smoke_spec(trace_dir=spans_dir, limit=limit), workers=2,
            out_dir=out_dir)
        checked = summary.checked + summary.dedup_hits

        span_files = sorted(glob.glob(
            os.path.join(spans_dir, "spans-*.jsonl")))
        os_pids = set()
        for path in span_files:
            os_pids.update(r["os_pid"] for r in load_span_file(path)
                           if r.get("kind") == "meta")

        trace = merge_trace(spans_dir,
                            os.path.join(out_dir, "trace.json"))
        xs = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        names = {e["name"] for e in xs}
        profile = build_profile(trace)
        top_renders = bool(render_top(profile, sort="self"))

        stats = prom_stats(load_summary(out_dir).stats)
        prom = render_prometheus({"stats": stats})
        metrics_checks = stats.get("repro_refine_num_checks_total", 0)
        stray_files = sorted(set(os.listdir(spans_dir)) - {
            os.path.basename(p) for p in span_files})
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    return {
        "corpus_functions": checked,
        "span_files": len(span_files),
        "span_events": len(xs),
        "worker_os_pids": len(os_pids),
        "shard_pids": sorted({e["pid"] for e in xs}),
        "layers_present": sorted(REQUIRED_LAYERS & names),
        "layers_missing": sorted(REQUIRED_LAYERS - names),
        "check_function_spans": sum(
            1 for e in xs if e["name"] == "check-function"),
        "top_renders": top_renders,
        "stray_span_dir_files": stray_files,
        "metrics": {
            "checkpoint_num_checks": metrics_checks,
            "prometheus_renders": "repro_refine_num_checks_total" in prom,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (smaller corpus, single "
                             "repeat; the overhead gate is "
                             "informational only)")
    parser.add_argument("--out", default="BENCH_e12.json",
                        help="output JSON path (default: BENCH_e12.json)")
    args = parser.parse_args(argv)

    report = {
        "experiment": "E12",
        **stamp(args.quick),
        "disabled_fast_path": bench_disabled_fast_path(args.quick),
        "tracing": bench_tracing_overhead(args.quick),
        "parallel_trace": bench_parallel_trace(args.quick),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    fast = report["disabled_fast_path"]
    tracing = report["tracing"]
    par = report["parallel_trace"]
    print(f"E12 observability ({'quick' if args.quick else 'full'}):")
    print(f"  disabled span(): {fast['span_ns_per_call']} ns/call, "
          f"phase(): {fast['phase_ns_per_call']} ns/call "
          f"(empty ctx manager: {fast['baseline_ctx_ns_per_call']} ns)")
    print(f"  smoke campaign cpu: "
          f"off {tracing['runs']['tracing_off']['cpu_seconds']}s, "
          f"on {tracing['runs']['tracing_on']['cpu_seconds']}s "
          f"-> {tracing['overhead_ratio']}x "
          f"(best of {tracing['repeats']}, wall "
          f"{tracing['runs']['tracing_off']['wall_seconds']}s / "
          f"{tracing['runs']['tracing_on']['wall_seconds']}s)")
    print(f"  parallel trace: {par['span_events']} spans from "
          f"{par['worker_os_pids']} worker processes / "
          f"{par['span_files']} shards; checkpoint stats count "
          f"{par['metrics']['checkpoint_num_checks']} checks")
    print(f"  wrote {args.out}")

    failures = []
    if not tracing["verdicts_identical"]:
        failures.append("tracing changed the verdict set")
    if not fast["returns_null_span_singleton"]:
        failures.append("disabled collector no longer returns the "
                        "NULL_SPAN no-op singleton")
    if par["worker_os_pids"] < 2:
        failures.append("merged trace covers fewer than 2 worker "
                        "processes")
    if par["layers_missing"]:
        failures.append("trace missing instrumented layers: "
                        f"{par['layers_missing']}")
    if par["check_function_spans"] != par["corpus_functions"]:
        failures.append(f"trace has {par['check_function_spans']} "
                        "check-function spans for "
                        f"{par['corpus_functions']} functions")
    if not par["top_renders"]:
        failures.append("diag top rendered nothing from the trace")
    if par["stray_span_dir_files"]:
        failures.append("the span directory holds more than span files: "
                        f"{par['stray_span_dir_files']}")
    if par["metrics"]["checkpoint_num_checks"] != par["corpus_functions"]:
        failures.append("checkpoint stats count "
                        f"{par['metrics']['checkpoint_num_checks']} "
                        f"checks, expected {par['corpus_functions']}")
    if not args.quick and tracing["overhead_ratio"] > OVERHEAD_GATE:
        failures.append(
            f"tracing CPU overhead {tracing['overhead_ratio']}x over "
            f"the {OVERHEAD_GATE}x gate")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
