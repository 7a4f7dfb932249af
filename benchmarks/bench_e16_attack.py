"""E16 — adversarial lint-attack campaign baseline.

Measures the checker-validation layer and writes a ``BENCH_e16.json``
trajectory later PRs are held to:

* **mutator throughput**: mutants generated/sec over a strided corpus
  sample, and how many mutants each seed yields on average;
* **attack throughput**: mutants classified against exact ground truth
  per second (the number that bounds campaign sizing);
* **taxonomy completeness**: the per-rule FN/FP/TP/TN table over the
  sampled campaign — every registered rule must receive at least one
  classified observation, and nothing may land in ``unclassified``;
* **checker health**: the disagreement count (false negatives plus
  false positives).  A healthy checker stack scores zero; any
  disagreement is a lint/poison-flow bug with a reduced crash bundle.

The script is the CI gate for the adversarial-validation layer: it
exits nonzero if any rule received no classified observation, if any
observation is unclassified, or if the healthy checker stack produced
a disagreement.

Usage::

    PYTHONPATH=src python benchmarks/bench_e16_attack.py [--quick] \
        [--out BENCH_e16.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from provenance import stamp
from repro.campaign.lint_attack import AttackRunner, AttackSpec
from repro.lint import RULES
from repro.mutate import VERDICTS, mutate_function


def _spec(quick: bool) -> AttackSpec:
    spec = AttackSpec(limit=4 if quick else 16, shard_size=2,
                      max_inputs=512 if quick else 4096,
                      max_paths=256 if quick else 512)
    total = spec.enumeration_size()
    return spec.with_(stride=max(1, total // max(1, spec.limit)))


def bench_mutators(spec: AttackSpec) -> dict:
    seeds = mutants = 0
    t0 = time.perf_counter()
    for position in range(spec.total_functions()):
        fn = spec.seed_at(position)
        seeds += 1
        mutants += len(mutate_function(fn))
    wall = time.perf_counter() - t0
    return {
        "seeds": seeds,
        "mutants": mutants,
        "mutants_per_seed": round(mutants / seeds, 2) if seeds else 0.0,
        "mutants_per_sec": round(mutants / wall) if wall else 0,
        "wall_sec": round(wall, 3),
    }


def bench_attack(spec: AttackSpec) -> dict:
    t0 = time.perf_counter()
    summary = AttackRunner(spec, out_dir=None, workers=1).run()
    wall = time.perf_counter() - t0
    return {
        "seeds": summary.seeds,
        "mutants": summary.mutants,
        "observations": summary.observations,
        "oracle_events": summary.oracle_events,
        "classified": summary.classified,
        "unclassified": summary.unclassified,
        "disagreements": len(summary.disagreements),
        "taxonomy": summary.taxonomy,
        "mutants_per_sec": round(summary.mutants / wall, 1) if wall else 0,
        "wall_sec": round(wall, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (smaller corpus slices)")
    parser.add_argument("--out", default="BENCH_e16.json",
                        help="output JSON path (default: BENCH_e16.json)")
    args = parser.parse_args(argv)

    spec = _spec(args.quick)
    report = {
        "experiment": "E16",
        **stamp(args.quick),
        "spec": spec.as_dict(),
        "mutators": bench_mutators(spec),
        "attack": bench_attack(spec),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    mu, at = report["mutators"], report["attack"]
    print(f"E16 adversarial validation baseline "
          f"({'quick' if args.quick else 'full'}):")
    print(f"  mutators: {mu['mutants']} mutants from {mu['seeds']} "
          f"seeds ({mu['mutants_per_seed']}/seed, "
          f"{mu['mutants_per_sec']:,}/sec)")
    print(f"  attack: {at['mutants']} mutants classified at "
          f"{at['mutants_per_sec']}/sec "
          f"({at['oracle_events']} oracle events)")
    print(f"  taxonomy: {at['classified']} classified, "
          f"{at['unclassified']} unclassified, "
          f"{at['disagreements']} disagreement(s)")
    for rule in sorted(at["taxonomy"]):
        bucket = at["taxonomy"][rule]
        row = " ".join(f"{v}={bucket.get(v, 0)}" for v in VERDICTS)
        print(f"    {rule}: {row}")
    print(f"  wrote {args.out}")

    failures = []
    missing = sorted(set(RULES) - set(at["taxonomy"]))
    if missing:
        failures.append(
            f"rules received no classified observation: {missing}")
    for rule, bucket in at["taxonomy"].items():
        classified = sum(bucket.get(v, 0) for v in VERDICTS
                         if v != "unclassified")
        if classified < 1:
            failures.append(f"rule {rule} has zero classified mutants")
    if at["unclassified"]:
        failures.append(f"{at['unclassified']} observation(s) escaped "
                        f"the taxonomy (oracle budget too small)")
    if at["disagreements"]:
        failures.append(
            f"healthy checker stack produced {at['disagreements']} "
            f"disagreement(s) — lint/poison-flow soundness bug")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
