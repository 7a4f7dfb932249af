"""Compare two sets of end-to-end benchmark runs.

    python benchmarks/e2e/compare.py OLD NEW

OLD and NEW are each a results file written by ``run.py --out``, a
directory of them, or ``baseline.json``; runs pair up in file-name order,
so alternate which side runs first when collecting them.  For every workload and end-to-end
metric this prints both sides' median and quartiles, the metric's bound
from ``BENCHMARK.json``, and a verdict:

* ``worse``: NEW's median is worse than OLD's by more than the bound,
  however noisy either side is;
* ``improved``: NEW wins at least 9 of every 10 pairs (at least 10 pairs),
  and the medians differ, in NEW's favour, by more than OLD's
  interquartile range;
* ``unresolved``: the run-to-run spread (interquartile range over
  median, on either side) exceeds the bound, and not every NEW run beats
  every OLD run;
* ``unchanged``: otherwise.

``error_ratio`` and ``undecided_ratio`` are compared exactly: they are
``worse`` when any NEW run reads higher than every OLD run, and
``unchanged`` otherwise.  The exit code is 1 if any metric is worse or if
NEW's share of failed operations is higher than OLD's on any workload.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import sys
from typing import List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")

#: metrics compared exactly: any increase is a regression.
EXACT = ("error_ratio", "undecided_ratio")


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(med)


def judge(old: Sequence[float], new: Sequence[float], better: str,
          bound: float) -> str:
    """The verdict for one metric on one workload (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    q1, old_median, q3 = quartiles(old)
    gain = sign * (statistics.median(new) - old_median)
    if old_median:
        loss = -gain / abs(old_median)
    else:
        loss = math.inf if gain < 0 else 0.0
    if loss > bound:
        return "worse"
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    every_run_better = all(sign * (n - o) > 0 for n in new for o in old)
    if max(spread(old), spread(new)) > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


def judge_exact(old: Sequence[float], new: Sequence[float]) -> str:
    """The verdict for a ratio that should not rise at all."""
    return "worse" if max(new) > max(old) else "unchanged"


def load_runs(path: str) -> List[dict]:
    """Results documents from a file or every ``*.json`` in a directory;
    a document with a ``runs`` list (``baseline.json``) holds several."""
    paths = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    runs = []
    for p in paths:
        with open(p) as f:
            document = json.load(f)
        runs.extend(document.get("runs", [document]))
    if not runs:
        raise ValueError(f"no results in {path}")
    return runs


def series(runs: List[dict], workload: str, metric: str) -> List[float]:
    values = []
    for run in runs:
        report = run["workloads"].get(workload)
        if report is None:
            continue
        source = report["extra"] if metric in EXACT else report["end_to_end"]
        values.append(source[metric])
    return values


def failure_share(runs: List[dict], workload: str) -> float:
    reports = [r["workloads"][workload] for r in runs
               if workload in r["workloads"]]
    attempted = sum(r["attempted"] for r in reports)
    return sum(r["failed"] for r in reports) / attempted if attempted else 0.0


def compare(old_runs: List[dict], new_runs: List[dict],
            metrics: List[dict]) -> tuple:
    """Rows ``(workload, metric, old, new, bound, verdict)`` and the
    workloads whose failure share rose."""
    rules = [(m["name"], m["better"], m["bound"]) for m in metrics]
    rules += [(name, "lower", 0.0) for name in EXACT]
    workloads = [w for w in dict.fromkeys(
                     w for r in old_runs for w in r["workloads"])
                 if any(w in r["workloads"] for r in new_runs)]
    rows, failing = [], []
    for workload in workloads:
        for name, better, bound in rules:
            old = series(old_runs, workload, name)
            new = series(new_runs, workload, name)
            verdict = (judge_exact(old, new) if name in EXACT
                       else judge(old, new, better, bound))
            rows.append((workload, name, old, new, bound, verdict))
        if failure_share(new_runs, workload) > failure_share(old_runs,
                                                             workload):
            failing.append(workload)
    return rows, failing


def _cell(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old")
    p.add_argument("new")
    args = p.parse_args(argv)
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    old_runs, new_runs = load_runs(args.old), load_runs(args.new)
    rows, failing = compare(old_runs, new_runs, metrics)
    print(f"# {len(old_runs)} OLD run(s), {len(new_runs)} NEW run(s); "
          f"cells are median [q1, q3]")
    print(f"{'workload':<13} {'metric':<16} {'OLD':<30} {'NEW':<30} "
          f"{'bound':>5}  verdict")
    for workload, name, old, new, bound, verdict in rows:
        print(f"{workload:<13} {name:<16} {_cell(old):<30} "
              f"{_cell(new):<30} {bound:>5.2f}  {verdict}")
    for workload in failing:
        print(f"{workload}: NEW fails a larger share of operations")
    worse = any(row[5] == "worse" for row in rows)
    return 1 if worse or failing else 0


if __name__ == "__main__":
    sys.exit(main())
