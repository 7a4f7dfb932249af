"""E11 — poison dataflow analyzer and lint baseline.

Measures the static-analysis layer and writes a ``BENCH_e11.json``
trajectory later PRs are held to:

* **analyzer throughput**: functions/sec and fixpoint iterations per
  function for ``analyze_poison_flow`` over a strided opt-fuzz corpus
  sample and over every example .ll in the repo;
* **flow vs shallow freeze elimination**: freezes removed by FreezeOpts
  with the fixpoint on vs off over a workload of guarded-freeze
  functions — the fixpoint must remove *strictly more*, and every
  flow-powered transform must keep a byte-identical refinement verdict;
* **lint throughput** over the corpus, with findings per rule;
* **lint-audit soundness**: a strided differential audit of the
  analyzer's MustNotPoison/MustPoison claims against the executable
  semantics — the contradiction count must be zero.

The script is the CI gate for the analysis layer: it exits nonzero if
the audit finds any contradiction or leaves a function unaudited, if
flow-powered FreezeOpts fails to beat the shallow walk, or if any
flow-powered transform is not a refinement.

Usage::

    PYTHONPATH=src python benchmarks/bench_e11_lint.py [--quick] \
        [--out BENCH_e11.json]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

from provenance import stamp
from repro.analysis.poison_flow import analyze_poison_flow
from repro.campaign.lint_audit import run_lint_audit
from repro.diag import default_registry, reset_stats
from repro.fuzz.optfuzz import enumeration_size, function_at_index
from repro.ir import Opcode, parse_function, parse_module, print_function
from repro.lint import lint_function
from repro.opt import OptConfig
from repro.opt.freeze_opts import FreezeOpts
from repro.refine import check_refinement
from repro.semantics import NEW

_OPS = tuple(Opcode(o) for o in ("add", "mul", "udiv", "shl"))

#: guarded-freeze workload: the shallow walk keeps every freeze (the
#: guarded value is an argument), the fixpoint's dominating-branch
#: refinement removes them all.
GUARDED_FREEZE = """
define i8 @g{n}(i8 %x) {{
entry:
  %c = icmp eq i8 %x, {n}
  br i1 %c, label %t, label %e
t:
  %f = freeze i8 %x
  %r = add i8 %f, {n}
  ret i8 %r
e:
  ret i8 0
}}"""


def _corpus(count: int):
    total = enumeration_size(2, width=2, opcodes=_OPS, include_flags=True)
    stride = max(1, total // count)
    for idx in range(0, total, stride):
        yield function_at_index(idx, 2, width=2, opcodes=_OPS,
                                include_flags=True)


def bench_analyzer(quick: bool) -> dict:
    count = 200 if quick else 2000
    fns = list(_corpus(count))
    for path in glob.glob(os.path.join(os.path.dirname(__file__),
                                       os.pardir, "examples", "*.ll")):
        with open(path) as f:
            fns.extend(parse_module(f.read()).definitions())
    reset_stats()
    start = time.perf_counter()
    for fn in fns:
        analyze_poison_flow(fn, NEW)
    wall = time.perf_counter() - start
    stats = default_registry().snapshot(nonzero_only=True)
    iters = stats.get("poison-flow", {}).get("num-fixpoint-iterations", 0)
    return {
        "functions": len(fns),
        "wall_sec": round(wall, 4),
        "functions_per_sec": round(len(fns) / wall) if wall else 0,
        "fixpoint_iterations": iters,
        "iterations_per_function": round(iters / len(fns), 3),
    }


def bench_freeze_elimination(quick: bool) -> dict:
    n_fns = 8 if quick else 32
    sources = [GUARDED_FREEZE.format(n=n) for n in range(1, n_fns + 1)]

    def removed_with(use_flow: bool) -> int:
        total = 0
        for src in sources:
            fn = parse_function(src)
            fp = FreezeOpts(OptConfig.fixed())
            fp.use_flow = use_flow
            fp.run_on_function(fn)
            total += int("freeze" not in print_function(fn))
        return total

    reset_stats()
    shallow = removed_with(False)
    stats_shallow = default_registry().snapshot(nonzero_only=True)
    shallow_stat = stats_shallow.get("freeze-opts", {}).get(
        "num-freezes-simplified", 0)
    reset_stats()
    flow = removed_with(True)
    stats_flow = default_registry().snapshot(nonzero_only=True)
    flow_stat = stats_flow.get("freeze-opts", {}).get(
        "num-freezes-simplified", 0)

    # every flow-powered transform must remain a refinement
    verdicts_ok = True
    for src in sources:
        before = parse_function(src)
        after = parse_function(src)
        fp = FreezeOpts(OptConfig.fixed())
        fp.run_on_function(after)
        if not check_refinement(before, after, NEW).ok:
            verdicts_ok = False
    return {
        "workload_functions": n_fns,
        "freezes_removed_shallow": shallow,
        "freezes_removed_flow": flow,
        "stat_shallow": shallow_stat,
        "stat_flow": flow_stat,
        "flow_strictly_more": flow > shallow,
        "refinement_verdicts_ok": verdicts_ok,
    }


def bench_lint(quick: bool) -> dict:
    count = 200 if quick else 1000
    fns = list(_corpus(count))
    findings: dict = {}
    start = time.perf_counter()
    for fn in fns:
        for d in lint_function(fn):
            findings[d.rule_id] = findings.get(d.rule_id, 0) + 1
    wall = time.perf_counter() - start
    return {
        "functions": len(fns),
        "wall_sec": round(wall, 4),
        "functions_per_sec": round(len(fns) / wall) if wall else 0,
        "findings_by_rule": dict(sorted(findings.items())),
    }


def bench_lint_audit(quick: bool) -> dict:
    limit = 120 if quick else 600
    start = time.perf_counter()
    report = run_lint_audit(width=2, instructions=2,
                            opcodes=("add", "mul", "udiv", "shl"),
                            include_flags=True, limit=limit,
                            stride=max(1, enumeration_size(
                                2, width=2, opcodes=_OPS,
                                include_flags=True) // limit))
    wall = time.perf_counter() - start
    totals = report["totals"]
    engines = report["stats"].get("lint-audit", {})
    return {
        "functions": totals["functions"],
        "claims": totals["claims"],
        "observations": totals["observations"],
        "silent_verdicts": totals["silent_verdicts"],
        "contradictions": len(report["contradictions"]),
        "unaudited": totals["unaudited"],
        "vector_functions": engines.get("num-vector-functions", 0),
        "vector_fallbacks": engines.get("num-vector-fallbacks", 0),
        "wall_sec": round(wall, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (smaller corpus slices)")
    parser.add_argument("--out", default="BENCH_e11.json",
                        help="output JSON path (default: BENCH_e11.json)")
    args = parser.parse_args(argv)

    report = {
        "experiment": "E11",
        **stamp(args.quick),
        "analyzer": bench_analyzer(args.quick),
        "freeze_elimination": bench_freeze_elimination(args.quick),
        "lint": bench_lint(args.quick),
        "lint_audit": bench_lint_audit(args.quick),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    an, fr = report["analyzer"], report["freeze_elimination"]
    li, au = report["lint"], report["lint_audit"]
    print(f"E11 analysis baseline ({'quick' if args.quick else 'full'}):")
    print(f"  analyzer: {an['functions_per_sec']:,} functions/sec "
          f"({an['iterations_per_function']} fixpoint sweeps/function)")
    print(f"  freeze elimination: flow {fr['freezes_removed_flow']} vs "
          f"shallow {fr['freezes_removed_shallow']} "
          f"(counter: {fr['stat_flow']} vs {fr['stat_shallow']})")
    print(f"  lint: {li['functions_per_sec']:,} functions/sec, "
          f"findings {li['findings_by_rule']}")
    print(f"  lint-audit: {au['claims']} claims, "
          f"{au['observations']} observations, "
          f"{au['contradictions']} contradiction(s) in {au['wall_sec']}s "
          f"({au['vector_functions']} vector, {au['vector_fallbacks']} "
          f"scalar, {au['unaudited']} unaudited)")
    print(f"  wrote {args.out}")

    failures = []
    if au["contradictions"]:
        failures.append(
            f"lint-audit found {au['contradictions']} analyzer "
            f"soundness contradiction(s)")
    if au["unaudited"]:
        failures.append(f"lint-audit gave no verdict on {au['unaudited']} "
                        f"function(s)")
    if not fr["flow_strictly_more"]:
        failures.append("flow-powered FreezeOpts did not beat the "
                        "shallow walk")
    if fr["stat_flow"] <= fr["stat_shallow"]:
        failures.append("num-freezes-simplified counter did not "
                        "increase with the fixpoint on")
    if not fr["refinement_verdicts_ok"]:
        failures.append("a flow-powered freeze removal broke refinement")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
