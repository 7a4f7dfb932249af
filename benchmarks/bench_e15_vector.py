"""E15 — vector (numpy lane-parallel) refinement engine throughput.

The paper's validation method is exhaustive checking over tiny
bitwidths; raw checks/sec is the scaling axis.  This benchmark measures
the ``repro.refine.vector`` engine against the scalar interpreter on
the corpus shape it exists for — loop-free small-bitwidth functions
whose whole input space fits in one set of numpy lanes — and writes a
``BENCH_e15.json`` trajectory.

Sections:

* **engine throughput** — the same (source, InstCombine'd) pairs
  checked by both engines with the memo cache off, each engine's
  fastest of three alternating passes; reports wall time, checks/sec,
  the speedup, and the per-pair verdict byte-identity the speedup is
  gated on (a fast wrong engine is worthless);
* **OLD-semantics throughput** — the same measurement for random
  3-instruction i2 functions (undef literals and all) through *legacy*
  InstCombine, checked under OLD semantics, where every undef use forks
  lanes; gated on byte-identity and on the vector engine deciding every
  pair;
* **campaign drift** — the E5 smoke campaign (complete 1-instruction
  i2 corpus through fixed InstCombine, memo off) run under
  ``engine="scalar"`` and ``engine="vector"``, gated on byte-identical
  verdict sets;
* **cross-check campaign** — the same campaign under
  ``engine="vector", cross_check=True``: every eligible check runs both
  engines and any drift becomes a per-function crash, gated on zero.

CI gates (exit nonzero): verdict byte-identity in every section, zero
cross-check mismatches, every OLD-semantics pair vector-decided, and —
full mode only — vector >= 10x scalar checks/sec on both throughput
corpora.  The record is stamped with the git sha, mode and core count.

Usage::

    PYTHONPATH=src python benchmarks/bench_e15_vector.py [--quick] \
        [--out BENCH_e15.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from provenance import stamp
from repro.campaign import CampaignRunner, CampaignSpec
from repro.diag import stats_snapshot
from repro.fuzz import random_functions
from repro.ir import parse_function, print_module
from repro.refine import CheckOptions, check_refinement
from repro.semantics import NEW, OLD, numpy_available
from repro.opt import OptConfig, single_pass_pipeline

#: vector-vs-scalar speedup the full run must clear on each throughput
#: corpus (the order-of-magnitude ask the engine was built for).
SPEEDUP_GATE = 10.0
#: timed passes per engine in each throughput section
TIMED_PASSES = 3


def _corpus(quick: bool):
    """(source text, optimized function) pairs over the vectorizable
    small-bitwidth shape: straight-line i4 functions, two arguments,
    so each check enumerates 17 x 17 = 289 input lanes."""
    count = 60 if quick else 200
    config = OptConfig.fixed(NEW)
    pairs = []
    for fn in random_functions(count, num_instructions=3, width=4,
                               num_args=2, seed=1509):
        src_text = print_module(fn.module)
        single_pass_pipeline("instcombine", config).run_on_function(fn)
        pairs.append((src_text, fn))
    return pairs


def _legacy_corpus(quick: bool):
    """(source text, optimized function) pairs under OLD semantics:
    random 3-instruction i2 functions, two arguments (6 x 6 = 36 input
    lanes before forking), through legacy InstCombine."""
    count = 60 if quick else 400
    config = OptConfig.legacy()
    pairs = []
    for fn in random_functions(count, num_instructions=3, width=2,
                               num_args=2, seed=1510):
        src_text = print_module(fn.module)
        single_pass_pipeline("instcombine", config).run_on_function(fn)
        pairs.append((src_text, fn))
    return pairs


def _check_all(pairs, engine: str, semantics=NEW):
    options = CheckOptions(engine=engine)
    results = []
    start = time.perf_counter()
    for src_text, fn in pairs:
        before = parse_function(src_text)
        result = check_refinement(before, fn, semantics, options=options)
        results.append(
            f"{result.verdict}|{result.inputs_checked}|{result}")
    wall = time.perf_counter() - start
    return wall, results


def _throughput(pairs, semantics) -> dict:
    # Alternate the engines and keep each one's fastest pass: the host's
    # speed drifts between passes, and a vector pass lasts ~0.1 s.
    before = stats_snapshot().get("refine", {})
    scalar_walls, vector_walls = [], []
    for _ in range(TIMED_PASSES):
        wall, scalar_results = _check_all(pairs, "scalar", semantics)
        scalar_walls.append(wall)
        wall, vector_results = _check_all(pairs, "vector", semantics)
        vector_walls.append(wall)
    after = stats_snapshot().get("refine", {})
    scalar_wall, vector_wall = min(scalar_walls), min(vector_walls)

    def rate(wall):
        return round(len(pairs) / wall, 1) if wall else 0.0

    return {
        "corpus_pairs": len(pairs),
        "verdicts_identical": scalar_results == vector_results,
        "verdicts": {v: sum(r.startswith(v + "|") for r in scalar_results)
                     for v in ("verified", "failed", "inconclusive")},
        "timed_passes": TIMED_PASSES,
        "vector_decided": (after.get("num-vector-checks", 0)
                           - before.get("num-vector-checks", 0))
        // TIMED_PASSES,
        "vector_fallbacks": (after.get("num-vector-fallbacks", 0)
                             - before.get("num-vector-fallbacks", 0))
        // TIMED_PASSES,
        "runs": {
            "scalar": {"wall_seconds": round(scalar_wall, 4),
                       "checks_per_sec": rate(scalar_wall)},
            "vector": {"wall_seconds": round(vector_wall, 4),
                       "checks_per_sec": rate(vector_wall)},
        },
        "speedup_vector_vs_scalar": (round(scalar_wall / vector_wall, 2)
                                     if vector_wall else 0.0),
    }


def bench_engine_throughput(quick: bool) -> dict:
    return {"lanes_per_check": 17 * 17,
            **_throughput(_corpus(quick), NEW)}


def bench_old_semantics(quick: bool) -> dict:
    return {"input_lanes_per_check": 6 * 6,
            **_throughput(_legacy_corpus(quick), OLD)}


def _smoke_spec(engine: str, cross_check: bool = False,
                limit=None) -> CampaignSpec:
    """The E5 smoke campaign, memo off so both engines do real work."""
    return CampaignSpec(
        mode="enumerate", num_instructions=1, shard_size=64,
        pipeline="instcombine", opt_config="fixed",
        max_choices=20, fuel=600, limit=limit,
        use_cache=False, engine=engine, cross_check=cross_check,
    )


def _run_campaign(spec: CampaignSpec):
    start = time.perf_counter()
    summary = CampaignRunner(spec, out_dir=None, workers=1).run()
    wall = time.perf_counter() - start
    return wall, summary


def bench_campaign_drift(quick: bool) -> dict:
    limit = 192 if quick else None
    scalar_wall, scalar = _run_campaign(_smoke_spec("scalar", limit=limit))
    vector_wall, vector = _run_campaign(_smoke_spec("vector", limit=limit))
    cross_wall, cross = _run_campaign(
        _smoke_spec("vector", cross_check=True, limit=limit))
    return {
        "corpus_functions": scalar.checked + scalar.dedup_hits,
        "verdicts_identical": (scalar.verdict_lines()
                               == vector.verdict_lines()),
        "verdicts": {
            "verified": scalar.verified, "failed": scalar.failed,
            "inconclusive": scalar.inconclusive,
            "timeout": scalar.timeout,
        },
        "runs": {
            "scalar": {"wall_seconds": round(scalar_wall, 4)},
            "vector": {"wall_seconds": round(vector_wall, 4)},
            "cross_check": {"wall_seconds": round(cross_wall, 4)},
        },
        "cross_check_verdicts_identical": (cross.verdict_lines()
                                           == scalar.verdict_lines()),
        "cross_check_mismatches": len([
            c for c in cross.crashes
            if c.get("kind") == "cross-check-mismatch"]),
        "cross_check_crashes": len(cross.crashes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller corpus (the 10x speedup gate is "
                             "informational only)")
    parser.add_argument("--out", default="BENCH_e15.json",
                        help="output JSON path (default: BENCH_e15.json)")
    args = parser.parse_args(argv)

    if not numpy_available():
        # The scalar fallback keeps every workflow green without numpy,
        # but this benchmark *measures the vector engine*; report the
        # absence instead of gating a fallback-vs-itself comparison.
        print("E15: numpy unavailable — vector engine cannot be "
              "benchmarked (install the [vector] extra)")
        report = {"experiment": "E15", **stamp(args.quick),
                  "numpy_available": False}
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        return 0

    report = {
        "experiment": "E15",
        **stamp(args.quick),
        "numpy_available": True,
        "throughput": bench_engine_throughput(args.quick),
        "old_semantics": bench_old_semantics(args.quick),
        "campaign": bench_campaign_drift(args.quick),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    thr = report["throughput"]
    old = report["old_semantics"]
    camp = report["campaign"]
    print(f"E15 vector engine ({'quick' if args.quick else 'full'}):")
    print(f"  corpus: {thr['corpus_pairs']} pairs, "
          f"{thr['lanes_per_check']} lanes/check, "
          f"{thr['vector_decided']} vector-decided, "
          f"{thr['vector_fallbacks']} fallbacks")
    print(f"  scalar: {thr['runs']['scalar']['checks_per_sec']} "
          f"checks/sec   vector: "
          f"{thr['runs']['vector']['checks_per_sec']} checks/sec   "
          f"speedup: {thr['speedup_vector_vs_scalar']}x")
    print(f"  verdicts identical (pairs): {thr['verdicts_identical']}")
    print(f"  OLD semantics: {old['corpus_pairs']} legacy pairs "
          f"({old['verdicts']['failed']} failed), "
          f"{old['vector_decided']} vector-decided, "
          f"{old['vector_fallbacks']} fallbacks; scalar "
          f"{old['runs']['scalar']['checks_per_sec']} checks/sec   "
          f"vector {old['runs']['vector']['checks_per_sec']} checks/sec   "
          f"speedup: {old['speedup_vector_vs_scalar']}x   "
          f"identical: {old['verdicts_identical']}")
    print(f"  E5 smoke drift: scalar==vector "
          f"{camp['verdicts_identical']}, cross-check mismatches "
          f"{camp['cross_check_mismatches']}")
    print(f"  wrote {args.out}")

    failures = []
    if not thr["verdicts_identical"]:
        failures.append("vector verdicts differ from scalar oracle "
                        "on the throughput corpus")
    if not camp["verdicts_identical"]:
        failures.append("E5 smoke campaign verdicts drifted between "
                        "engines")
    if not camp["cross_check_verdicts_identical"]:
        failures.append("cross-check campaign verdicts drifted")
    if camp["cross_check_mismatches"]:
        failures.append(f"{camp['cross_check_mismatches']} cross-check "
                        f"mismatch(es)")
    if thr["vector_decided"] == 0:
        failures.append("vector engine decided 0 checks (wired but dead)")
    if not old["verdicts_identical"]:
        failures.append("vector verdicts differ from scalar oracle "
                        "under OLD semantics")
    if old["vector_decided"] != old["corpus_pairs"]:
        failures.append(f"{old['vector_fallbacks']} OLD-semantics "
                        f"pair(s) fell back to the scalar engine")
    for name, section in (("NEW", thr), ("OLD", old)):
        speedup = section["speedup_vector_vs_scalar"]
        if not args.quick and speedup < SPEEDUP_GATE:
            failures.append(f"{name}-semantics vector speedup {speedup}x "
                            f"under the {SPEEDUP_GATE}x gate")
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
