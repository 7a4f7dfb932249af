"""E10 — validation hot-path performance baseline.

Measures the perf layer introduced for the campaign engine and writes a
``BENCH_e10.json`` trajectory that later PRs are held to:

* **checks/sec** for the E5 smoke campaign (complete 1-instruction i2
  corpus through InstCombine, workers=1) with the behavior-set memo
  cache off, cold (populating the on-disk layer), and warm (replaying
  it) — plus the warm-vs-off wall-clock speedup;
* **cache hit rate** of the warm run, from the ``perf`` stats registry;
* **interpreter steps/sec** of the plan-compiled interpreter over a
  seeded corpus sample.

The script is also the CI gate: it exits nonzero if the warm hit rate
is 0 (cache wired but dead), if verdict sets are not byte-identical
across cache modes, or — in full mode — if the warm speedup falls under
3x.

Usage::

    PYTHONPATH=src python benchmarks/bench_e10_perf.py [--quick] \
        [--out BENCH_e10.json]
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
import tempfile
import time

from provenance import stamp
from repro.campaign import CampaignSpec, CampaignRunner
from repro.diag import stats_snapshot
from repro.fuzz import random_functions
from repro.semantics import NEW
from repro.semantics.interp import run_once

#: warm-vs-off speedup the full run must clear (acceptance criterion).
SPEEDUP_GATE = 3.0


def _smoke_spec(use_cache: bool, cache_dir=None, limit=None) -> CampaignSpec:
    """The E5 smoke campaign: complete 1-instruction i2 corpus through
    fixed-config InstCombine."""
    return CampaignSpec(
        mode="enumerate", num_instructions=1, shard_size=64,
        pipeline="instcombine", opt_config="fixed",
        max_choices=20, fuel=600, limit=limit,
        use_cache=use_cache, cache_dir=cache_dir,
    )


def _run_campaign(spec: CampaignSpec):
    start = time.perf_counter()
    summary = CampaignRunner(spec, out_dir=None, workers=1).run()
    wall = time.perf_counter() - start
    assert not summary.shards_errored, summary.shards_errored
    return wall, summary


def bench_memo_campaign(quick: bool) -> dict:
    limit = 192 if quick else None
    cache_dir = tempfile.mkdtemp(prefix="bench-e10-memo-")
    try:
        off_wall, off = _run_campaign(_smoke_spec(False, limit=limit))
        cold_wall, cold = _run_campaign(
            _smoke_spec(True, cache_dir=cache_dir, limit=limit))

        before = stats_snapshot().get("perf", {})
        warm_wall, warm = _run_campaign(
            _smoke_spec(True, cache_dir=cache_dir, limit=limit))
        after = stats_snapshot().get("perf", {})
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    hits = after.get("num-memo-hits", 0) - before.get("num-memo-hits", 0)
    misses = (after.get("num-memo-misses", 0)
              - before.get("num-memo-misses", 0))
    lookups = hits + misses
    identical = (off.verdict_lines() == cold.verdict_lines()
                 == warm.verdict_lines())
    checked = off.checked + off.dedup_hits

    def rate(wall):
        return round(checked / wall, 1) if wall else 0.0

    return {
        "corpus_functions": checked,
        "verdicts_identical_across_cache_modes": identical,
        "verdicts": {
            "verified": off.verified, "failed": off.failed,
            "inconclusive": off.inconclusive, "timeout": off.timeout,
        },
        "runs": {
            "cache_off": {"wall_seconds": round(off_wall, 4),
                          "checks_per_sec": rate(off_wall)},
            "cache_cold": {"wall_seconds": round(cold_wall, 4),
                           "checks_per_sec": rate(cold_wall)},
            "cache_warm": {"wall_seconds": round(warm_wall, 4),
                           "checks_per_sec": rate(warm_wall)},
        },
        "warm_memo_hits": hits,
        "warm_memo_lookups": lookups,
        "cache_hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        "speedup_warm_vs_off": (round(off_wall / warm_wall, 2)
                                if warm_wall else 0.0),
    }


def bench_interpreter(quick: bool) -> dict:
    """Steps/sec of the plan-compiled interpreter: every concrete input
    of a seeded corpus sample, executed on the all-zeros oracle path."""
    count = 40 if quick else 160
    fns = list(random_functions(count, seed=3))
    steps = 0
    executions = 0
    start = time.perf_counter()
    for fn in fns:
        spaces = [range(1 << a.type.bits) for a in fn.args]
        for args in itertools.product(*spaces):
            behavior = run_once(fn, list(args), NEW, fuel=600)
            if behavior.trace is not None:
                steps += behavior.trace.steps
            executions += 1
    wall = time.perf_counter() - start
    return {
        "functions": len(fns),
        "executions": executions,
        "steps": steps,
        "wall_seconds": round(wall, 4),
        "steps_per_sec": round(steps / wall, 1) if wall else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (smaller corpus; the "
                             "speedup gate is informational only)")
    parser.add_argument("--out", default="BENCH_e10.json",
                        help="output JSON path (default: BENCH_e10.json)")
    args = parser.parse_args(argv)

    report = {
        "experiment": "E10",
        **stamp(args.quick),
        "workers": 1,
        "memo_campaign": bench_memo_campaign(args.quick),
        "interpreter": bench_interpreter(args.quick),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    memo = report["memo_campaign"]
    print(f"E10 perf baseline ({'quick' if args.quick else 'full'}):")
    print(f"  campaign checks/sec: "
          f"off {memo['runs']['cache_off']['checks_per_sec']}, "
          f"cold {memo['runs']['cache_cold']['checks_per_sec']}, "
          f"warm {memo['runs']['cache_warm']['checks_per_sec']}")
    print(f"  warm speedup vs cache-off: {memo['speedup_warm_vs_off']}x "
          f"(hit rate {memo['cache_hit_rate']:.1%})")
    print(f"  interpreter: {report['interpreter']['steps_per_sec']:,.0f} "
          f"steps/sec over {report['interpreter']['executions']} "
          f"executions")
    print(f"  wrote {args.out}")

    failures = []
    if not memo["verdicts_identical_across_cache_modes"]:
        failures.append("verdict sets differ across cache modes")
    if memo["cache_hit_rate"] == 0:
        failures.append("memo cache hit rate is 0 (cache wired but dead)")
    if not args.quick and memo["speedup_warm_vs_off"] < SPEEDUP_GATE:
        failures.append(
            f"warm speedup {memo['speedup_warm_vs_off']}x under the "
            f"{SPEEDUP_GATE}x gate")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
