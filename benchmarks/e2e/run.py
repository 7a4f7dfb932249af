"""End-to-end benchmark: validation campaigns, the service, lint-attack.

Runs each selected workload in rounds.  A round is a fresh child process
(``workloads.py``) that sets up, runs one fixed-size batch of new inputs,
and checks its answers; rounds repeat until ``--seconds`` of rounds have
run (at least three).  End-to-end metrics are medians over rounds,
latency percentiles pool every round's samples::

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--out FILE]
        [--smoke] [--record-digests]

Each metric prints as ``workload metric value unit``.  With one
``--workload`` the last line is a JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics, or
with ``--trace 1`` the per-layer ones.  ``--trace 1`` alternates
untraced and traced rounds on the same inputs; the traced ones install
the wrappers from ``tracing.py`` and leave spans under ``--trace-dir`` for
``python -m repro diag top --out DIR/<workload>/round<k>``.  The exit
code is 0 only if every correctness check passed.  ``--record-digests``
rewrites ``digests.json``, the answers of the first rounds at seed 1.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    FULL_SIZES,
    PARALLELISM,
    SERVE_MIX,
    SMOKE_SIZES,
)

WORKLOADS = ("rand3-fixed", "rand3-legacy", "serve-mix", "lint-attack")

#: the tail percentile of each workload, with at least ten samples
#: beyond it in a default run: requests on serve-mix; shards on the
#: others, whose higher percentiles mostly measure how unevenly the host
#: shares its two cores between the workers.
TAIL_PERCENTILE = {"rand3-fixed": 75, "rand3-legacy": 75,
                   "serve-mix": 99, "lint-attack": 75}

#: end-to-end metrics: name -> unit.
E2E_UNITS = {"items_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "cpu_ms_per_item": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}

#: per-layer metrics besides tracing.layer_metrics(): name -> unit.
EXTRA_LAYER_UNITS = {
    "refine.inputs": "inputs/item",
    "refine.vector.fallbacks": "checks/item",
    "perf.memo.hit_ratio": "ratio",
    "campaign.dedup.hit_ratio": "ratio",
    "campaign.executor.idle_ratio": "ratio",
    "serve.batcher.mean_batch": "items/batch",
    "trace.wall_ratio": "x",
}

#: rand3-fixed may fail at most one function in this many, each with an
#: undef literal: the fixed o2 pipeline folds undef literals as values,
#: and 3 of 294,912 random functions failed that way (about 1 in 100,000;
#: half of all random functions have an undef literal).
UNDEF_FAILED_EVERY = 4096

MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
DIGESTS = os.path.join(HERE, "digests.json")
#: rounds per workload and size whose seed-1 answers digests.json holds.
DIGEST_ROUNDS = 12


class RoundFailed(RuntimeError):
    pass


def layer_units() -> Dict[str, str]:
    units = {}
    for name in tracing.layer_metrics({}, 1):
        units[name] = "us/item" if name.endswith(".self_us") else \
            "calls/item"
    units.update(EXTRA_LAYER_UNITS)
    return units


def percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- one round -----------------------------------------------------------------
def run_round(workload: str, seed: int, index: int, size: int,
              work_dir: str, trace_dir: Optional[str]) -> dict:
    """Round ``index`` of a run: its inputs derive from seed and index."""
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_dir)
    result_path = os.path.join(tmp, "result.json")
    log_path = os.path.join(tmp, "round.log")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--round", str(index), "--size", str(size),
           "--tmp", tmp, "--result", result_path]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               TMPDIR=tmp)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT, start_new_session=True)
        try:
            proc.wait(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # the round's whole process group: the serve child and
            # campaign workers too, should the round have died early
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        if proc.returncode != 0:
            with open(log_path) as f:
                tail = f.read()[-2000:]
            raise RoundFailed(f"{workload} round exited with "
                              f"{proc.returncode}:\n{tail}")
        with open(result_path) as f:
            result = json.load(f)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["round"] = index
    result["setup_s"] = result["t_ready"] - spawned
    result["cpu_s"] = (after.ru_utime + after.ru_stime
                       - before.ru_utime - before.ru_stime)
    if trace_dir:
        result["trace"] = tracing.load_round(trace_dir)
    return result


def run_workload(workload: str, args, size: int, work_dir: str) -> dict:
    """Rounds until --seconds have run; with --trace 1 each untraced
    round is followed by a traced one on the same inputs."""
    min_rounds = 1 if args.smoke else MIN_ROUNDS
    if args.trace:
        min_rounds *= 2
        trace_root = os.path.join(args.trace_dir, workload)
        shutil.rmtree(trace_root, ignore_errors=True)
    plain: List[dict] = []
    traced: List[dict] = []
    start = time.monotonic()
    while True:
        k = len(plain) + len(traced)
        trace_dir = None
        if args.trace and k % 2 == 1:
            trace_dir = os.path.join(trace_root, f"round{k}")
        index = k // 2 if args.trace else k
        result = run_round(workload, args.seed, index, size, work_dir,
                           trace_dir)
        (traced if trace_dir else plain).append(result)
        k += 1
        elapsed = time.monotonic() - start
        paired = not args.trace or k % 2 == 0
        if paired and k >= min_rounds and elapsed * (k + 1) / k > args.seconds:
            break
    return summarize(workload, args, size, plain, traced)


# -- metrics and checks ----------------------------------------------------------
def summarize(workload: str, args, size: int, plain: List[dict],
              traced: List[dict]) -> dict:
    rounds = plain + traced
    latencies = [x for r in plain for x in r["latencies_ms"]]
    tail = TAIL_PERCENTILE[workload]
    e2e = {
        "items_per_s": statistics.median(
            r["items"] / r["wall_s"] for r in plain),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": percentile(latencies, tail),
        "cpu_ms_per_item": statistics.median(
            r["cpu_s"] * 1e3 / r["items"] for r in plain),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in plain) / 1024,
        "setup_s": statistics.median(r["setup_s"] for r in plain),
    }
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    decided_of = sum(r["decided_of"] for r in rounds)
    extra = {
        "error_ratio": failed / attempted,
        "undecided_ratio": (sum(r["undecided"] for r in rounds)
                            / decided_of if decided_of else 0.0),
    }
    info = [f"latency: p50 and p{tail} over {len(latencies)} samples "
            f"({len(latencies) * (100 - tail) // 100} beyond p{tail})",
            f"{len(plain)} untraced round(s) of {size} "
            f"{'seeds' if workload == 'lint-attack' else 'items'}"]
    if workload == "serve-mix":
        for kind, _share in SERVE_MIX:
            samples = [x for r in plain for x in r["ops_ms"][kind]]
            extra[f"serve.op.{kind}.p50_ms"] = statistics.median(samples)
        client_mean = statistics.mean(latencies)
        server_mean = statistics.mean(r["server_mean_ms"] for r in plain)
        extra["serve.server_ms"] = server_mean
        extra["serve.transport_ms"] = client_mean - server_mean
        info.append("serve.server_ms and serve.transport_ms are means: "
                    "the server's request histogram, and the client's "
                    "mean minus it")

    checks: Dict[str, bool] = {}
    for r in rounds:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
    if workload == "rand3-legacy":
        # about 0.7% of the functions are real miscompiles
        checks["a failed verdict found"] = sum(
            r["answers"]["failed"] for r in rounds) >= 1
    if workload == "rand3-fixed":
        # rounds exempt failed verdicts on functions with an undef
        # literal; the run bounds how many there may be
        undef_failed = sum(r["answers"]["undef_failed"] for r in plain)
        functions = sum(r["items"] for r in plain)
        allowed = max(1, functions // UNDEF_FAILED_EVERY)
        checks[f"at most 1 failed verdict per {UNDEF_FAILED_EVERY} "
               f"functions, each with an undef literal"] = \
            undef_failed <= allowed
        info.append(f"{undef_failed} failed verdict(s) on functions with "
                    f"an undef literal, in {functions} functions "
                    f"({allowed} allowed)")
    if traced:
        untraced = {r["round"]: r["digest"] for r in plain}
        checks["traced rounds give the untraced answers"] = all(
            untraced.get(r["round"]) == r["digest"] for r in traced)
    if args.seed == 1:
        with open(DIGESTS) as f:
            recorded = json.load(f)["smoke" if args.smoke else "full"]
        recorded = recorded.get(workload, [])
        checks["answers match the recorded seed-1 digests"] = all(
            r["digest"] == recorded[r["round"]]
            for r in rounds if r["round"] < len(recorded))

    report = {
        "workload": workload,
        "size": size,
        "per_round": [{
            "items_per_s": r["items"] / r["wall_s"],
            "cpu_ms_per_item": r["cpu_s"] * 1e3 / r["items"],
            "latency_p50_ms": statistics.median(r["latencies_ms"]),
            "latency_tail_ms": percentile(r["latencies_ms"], tail),
            "setup_s": r["setup_s"],
        } for r in plain],
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "items": sum(r["items"] for r in plain),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "extra": extra,
        "answers": [r["answers"] for r in plain],
        "digests": [r["digest"] for r in plain],
        "checks": checks,
        "correct": all(checks.values()),
        "errors": [e for r in rounds for e in r.get("errors", [])][:5],
        "info": info,
    }
    if traced:
        report.update(layer_report(traced, plain))
    return report


def layer_report(traced: List[dict], plain: List[dict]) -> dict:
    pooled = tracing.merge_layers([r["trace"] for r in traced])
    layers = pooled["layers"]
    items = sum(r["items"] for r in traced)
    per_layer = tracing.layer_metrics(layers, items)
    untraced_wall = {r["round"]: r["wall_s"] for r in plain}
    counters: Dict[str, int] = {}
    for r in traced:
        for name, value in r["counters"].items():
            counters[name] = counters.get(name, 0) + value
    lookups = counters["perf.memo.hits"] + counters["perf.memo.misses"]
    per_layer.update({
        "refine.inputs": counters["refine.inputs"] / items,
        "refine.vector.fallbacks":
            counters["refine.vector.fallbacks"] / items,
        "perf.memo.hit_ratio":
            counters["perf.memo.hits"] / lookups if lookups else 0.0,
        "campaign.dedup.hit_ratio":
            counters.get("campaign.dedup.hits", 0) / items,
        "serve.batcher.mean_batch": (
            counters["serve.batcher.items"]
            / counters["serve.batcher.batches"]
            if counters.get("serve.batcher.batches") else 0.0),
        # each traced round against the untraced round on its inputs
        "trace.wall_ratio": statistics.median(
            r["wall_s"] / untraced_wall[r["round"]] for r in traced),
    })
    busy = tracing.busy_seconds(layers)
    wall = sum(r["wall_s"] for r in traced)
    per_layer["campaign.executor.idle_ratio"] = (
        1 - busy / (wall * PARALLELISM) if busy else 0.0)
    extra = {"campaign.executor.busy_s": busy} if busy else {}
    samples = pooled["samples"]
    if samples["handoff"]:
        extra["campaign.executor.handoff_ms"] = \
            statistics.median(samples["handoff"]) * 1e3
    if samples["batch_wait"]:
        extra["serve.batcher.wait_ms"] = \
            statistics.median(samples["batch_wait"]) * 1e3
    return {"per_layer": per_layer, "layer_extra": extra,
            "top": tracing.top_rows(layers)}


def record_digests(work_dir: str) -> None:
    """Rewrite digests.json from the first rounds of every workload at
    seed 1, in both sizes; every check must pass."""
    digests: Dict[str, Dict[str, List[str]]] = {}
    for mode, sizes in (("full", FULL_SIZES), ("smoke", SMOKE_SIZES)):
        digests[mode] = {}
        for workload in WORKLOADS:
            rounds = [run_round(workload, 1, k, sizes[workload], work_dir,
                                None) for k in range(DIGEST_ROUNDS)]
            failed = sorted({name for r in rounds
                             for name, ok in r["checks"].items() if not ok})
            if failed:
                raise RoundFailed(f"{workload} ({mode}) failed: {failed}")
            digests[mode][workload] = [r["digest"] for r in rounds]
            print(f"{mode} {workload}: {DIGEST_ROUNDS} rounds recorded")
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1)
        f.write("\n")


# -- output ------------------------------------------------------------------------
def stamp(args, sizes: Dict[str, int]) -> dict:
    def git(*cmd) -> Optional[str]:
        try:
            out = subprocess.run(["git", "-C", ROOT, *cmd],
                                 capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "seconds": args.seconds,
        "sizes": sizes,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(report: dict, units: Dict[str, str]) -> None:
    name = report["workload"]
    for line in report["info"]:
        print(f"# {name} {line}")
    for metric, value in report["end_to_end"].items():
        print(f"{name} {metric} {_fmt(value)} {E2E_UNITS[metric]}")
    for metric, value in report["extra"].items():
        unit = "ms" if metric.endswith("_ms") else "ratio"
        print(f"{name} {metric} {_fmt(value)} {unit}")
    for metric, value in report.get("per_layer", {}).items():
        print(f"{name} {metric} {_fmt(value)} {units[metric]}")
    for metric, value in report.get("layer_extra", {}).items():
        print(f"{name} {metric} {_fmt(value)} "
              f"{'ms' if metric.endswith('_ms') else 's'}")
    if report.get("top"):
        print(f"# {name} traced layers: calls, total s, self s")
        for layer, calls, total, own in report["top"]:
            print(f"#   {layer:<24} {calls:>9} {total:>10.3f} {own:>10.3f}")
    for check, ok in report["checks"].items():
        print(f"# {name} check {'ok' if ok else 'FAILED'}: {check}")
    for error in report["errors"]:
        print(f"# {name} error: {error}")


def result_line(report: dict, traced: bool, units: Dict[str, str]) -> str:
    values = report["per_layer"] if traced else report["end_to_end"]
    table = units if traced else E2E_UNITS
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": table[name]}
                    for name, value in values.items()},
    })


def parse_args(argv: Optional[List[str]] = None):
    p = argparse.ArgumentParser(
        description="End-to-end benchmark of the validation stack.")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds of rounds per workload; BENCHMARK.json's "
                        "command is run with --seconds <run_seconds> "
                        "(default: run_seconds, or 1 with --smoke)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: alternate untraced and traced rounds and "
                        "report the per-layer metrics")
    p.add_argument("--trace-dir", default=os.path.join(ROOT, ".bench_out",
                                                       "trace"),
                   help="where traced rounds leave spans and layer totals")
    p.add_argument("--out", default=None,
                   help="write the stamped results as JSON to this file")
    p.add_argument("--smoke", action="store_true",
                   help="small rounds, one per workload (whole run under "
                        "20 s)")
    p.add_argument("--record-digests", action="store_true",
                   help="rewrite digests.json: the seed-1 answers of the "
                        "first rounds of every workload")
    args = p.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = 1.0 if args.smoke else json.load(f)["run_seconds"]
    args.trace_dir = os.path.abspath(args.trace_dir)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    selected = args.workload or list(WORKLOADS)
    sizes = {w: (SMOKE_SIZES if args.smoke else FULL_SIZES)[w]
             for w in selected}
    units = layer_units()
    work_dir = os.path.join(ROOT, ".bench_out", f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    reports = {}
    try:
        if args.record_digests:
            record_digests(work_dir)
            return 0
        for workload in selected:
            reports[workload] = run_workload(workload, args,
                                             sizes[workload], work_dir)
            print_report(reports[workload], units)
    except RoundFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"stamp": stamp(args, sizes), "workloads": reports},
                      f, indent=1)
    correct = all(r["correct"] for r in reports.values())
    if len(reports) == 1:
        print(result_line(next(iter(reports.values())), bool(args.trace),
                            units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
