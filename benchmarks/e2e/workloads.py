"""One round of one benchmark workload, run in a fresh process by run.py.

A round sets up (imports, temp dirs, inputs, the serve child), runs one
fixed-size batch of the workload through the repository's public entry
points, checks the answers, and writes a JSON result::

    PYTHONPATH=src python benchmarks/e2e/workloads.py --workload NAME \\
        --seed N --round K --size N --tmp DIR --result FILE \\
        [--trace-dir DIR]

Inputs are a pure function of ``--seed``, ``--round`` and ``--size``, so
every round of a run draws new inputs and the same seed repeats them; the
program sees only the generated inputs.  ``t_ready`` in the result is the
``time.monotonic()`` instant of the first timed operation, which run.py
turns into the set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

#: worker processes (campaigns, lint-attack) and client connections
#: (serve-mix); the box the benchmark targets has two cores.
PARALLELISM = 2

#: items per round: functions, requests, or lint-attack seeds (about 14
#: mutants each).  A --smoke round holds about a twentieth of a full run.
FULL_SIZES = {"rand3-fixed": 2560, "rand3-legacy": 1024,
              "serve-mix": 1200, "lint-attack": 192}
SMOKE_SIZES = {"rand3-fixed": 768, "rand3-legacy": 256,
               "serve-mix": 360, "lint-attack": 48}

#: serve-mix request kinds and their shares of the plan.
SERVE_MIX = (("refine-cold", 0.4), ("refine-warm", 0.2),
             ("refine-pair", 0.2), ("lint", 0.2))


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _stat(stats: dict, pass_name: str, counter: str) -> int:
    return (stats.get(pass_name) or {}).get(counter, 0)


def _failed_items(records: Dict[int, dict], sizes: Dict[int, int]) -> int:
    """Every item of an errored shard, plus the crash records of the
    shards that completed (an errored shard's crashes are among its
    items already)."""
    return sum(sizes[sid] if record.get("status") == "errored"
               else len(record.get("crashes", []))
               for sid, record in records.items())


def _program_counters(stats: dict) -> Dict[str, int]:
    return {
        "refine.inputs": _stat(stats, "refine", "num-inputs-checked"),
        "refine.vector.fallbacks": _stat(stats, "refine",
                                         "num-vector-fallbacks"),
        "perf.memo.hits": _stat(stats, "perf", "num-memo-hits"),
        "perf.memo.misses": _stat(stats, "perf", "num-memo-misses"),
    }


# -- rand3-fixed / rand3-legacy ------------------------------------------------
def run_campaign(args, opt_config: str) -> dict:
    from repro.campaign.executor import CampaignRunner
    from repro.campaign.sharding import plan_shards
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec(mode="random", num_instructions=3, width=2,
                        include_flags=True, count=args.size, seed=args.inputs,
                        opt_config=opt_config, pipeline="o2")
    out_dir = os.path.join(args.tmp, "campaign")
    t_ready = time.monotonic()
    t0 = time.perf_counter()
    summary = CampaignRunner(spec, out_dir=out_dir,
                             workers=PARALLELISM).run()
    wall = time.perf_counter() - t0

    sizes_by_id = {s.shard_id: s.size for s in plan_shards(spec)}
    checks = {
        "no crash records": not summary.crashes,
        "no errored shards": not summary.shards_errored,
    }
    answers = {"failed": summary.failed, "verdicts": len(summary.verdicts)}
    if opt_config == "fixed":
        # The paper's claim: the fixed pipeline refines its input under
        # NEW semantics, which has no undef.  Half the random corpus
        # still has an undef literal, and folding one can fail a check;
        # run.py bounds how many of those a run may find.
        undef_failed = sum("undef" in cex["source"]
                           for cex in summary.counterexamples)
        checks["no failed verdict without an undef literal"] = \
            undef_failed == summary.failed
        answers["undef_failed"] = undef_failed
    counters = _program_counters(summary.stats)
    counters["campaign.dedup.hits"] = summary.dedup_hits
    return {
        "items": summary.checked + summary.dedup_hits,
        "attempted": spec.count,
        "failed": _failed_items(summary.records, sizes_by_id),
        "undecided": summary.inconclusive + summary.timeout,
        "decided_of": summary.checked,
        "wall_s": wall,
        "t_ready": t_ready,
        "latencies_ms": [r.get("wall_seconds", 0.0) * 1e3
                         for r in summary.records.values()],
        "digest": _digest(summary.verdict_lines()),
        "answers": answers,
        "checks": checks,
        "counters": counters,
    }


# -- lint-attack ---------------------------------------------------------------
def run_attack(args) -> dict:
    from repro.campaign.lint_attack import (
        AttackRunner,
        AttackSpec,
        plan_attack_shards,
    )

    # a systematic sample spread over the whole corpus, so every round
    # draws seeds of the same mix of shapes; the multiplier scatters the
    # starts of consecutive rounds
    stride = AttackSpec().enumeration_size() // args.size
    spec = AttackSpec(limit=args.size, stride=stride,
                      start=args.inputs * 7919 % stride)
    out_dir = os.path.join(args.tmp, "attack")
    t_ready = time.monotonic()
    t0 = time.perf_counter()
    summary = AttackRunner(spec, out_dir=out_dir, workers=PARALLELISM).run()
    wall = time.perf_counter() - t0

    seeds_by_id = {s.shard_id: s.size for s in plan_attack_shards(spec)}
    lost = sum(seeds_by_id[sid] for sid in summary.shards_errored)
    crashes = sum(len(r.get("crashes", [])) for r in summary.records.values())
    checks = {
        "no crash records": crashes == 0,
        "no errored shards": not summary.shards_errored,
        "no unclassified observations": summary.unclassified == 0,
    }
    return {
        "items": summary.mutants,
        "attempted": summary.mutants + lost,
        "failed": _failed_items(summary.records, seeds_by_id),
        "undecided": summary.unclassified,
        "decided_of": summary.observations,
        "wall_s": wall,
        "t_ready": t_ready,
        "latencies_ms": [r.get("wall_seconds", 0.0) * 1e3
                         for r in summary.records.values()],
        "digest": _digest(summary.taxonomy_lines()),
        "answers": {"observations": summary.observations,
                    "disagreements": len(summary.disagreements)},
        "checks": checks,
        "counters": _program_counters(summary.stats),
    }


# -- serve-mix -----------------------------------------------------------------
def serve_plan(seed: int, size: int) -> List[List[dict]]:
    """Per-connection request lists; request ids are global sequence
    numbers, unique across connections."""
    from repro.fuzz import random_functions
    from repro.ir import print_module
    from repro.opt import OptConfig, o2_pipeline

    per_conn = size // PARALLELISM
    plans = []
    for conn in range(PARALLELISM):
        rng = random.Random(seed * 7919 + conn)
        functions = random_functions(
            size, num_instructions=3, width=2, include_flags=True,
            rng=random.Random(rng.getrandbits(32)))
        sent: List[str] = []
        plan = []
        for i in range(per_conn):
            draw, kind = rng.random(), SERVE_MIX[-1][0]
            for name, share in SERVE_MIX:
                if draw < share:
                    kind = name
                    break
                draw -= share
            if kind == "refine-warm" and not sent:
                kind = "refine-cold"
            if kind == "refine-cold":
                text = print_module(next(functions).module)
                sent.append(text)
                op, payload = "refine", {"functions": [text]}
            elif kind == "refine-warm":
                op, payload = "refine", {"functions": [rng.choice(sent)]}
            elif kind == "refine-pair":
                fn = next(functions)
                source = print_module(fn.module)
                o2_pipeline(OptConfig.fixed()).run_on_function(fn)
                op, payload = "refine", {"source": source,
                                         "target": print_module(fn.module)}
            else:
                op, payload = "lint", {
                    "source": print_module(next(functions).module)}
            plan.append({"rid": conn * per_conn + i + 1, "kind": kind,
                         "op": op, "payload": payload})
        plans.append(plan)
    return plans


class _Connection:
    """A closed-loop client on one NDJSON connection.  It numbers frames
    itself so the server's spans carry the plan's request ids."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.reader = self.sock.makefile("rb")

    def request(self, rid: int, op: str, payload: dict) -> dict:
        from repro.serve.protocol import decode_frame, encode_frame, \
            request_frame

        self.sock.sendall(encode_frame(request_frame(rid, op, payload)))
        while True:
            line = self.reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            frame = decode_frame(line)
            if frame.get("kind") == "done":
                return frame["payload"]
            if frame.get("kind") == "error":
                raise RuntimeError(f"{frame.get('code')}: "
                                   f"{frame.get('error')}")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _answer(kind: str, done: dict) -> tuple:
    """(answer line, undecided, warm-but-not-cached) for one request."""
    if kind == "lint":
        return f"{done.get('findings')} {done.get('worst')}", False, False
    if kind == "refine-pair":
        verdict = done.get("verdict")
        return verdict, verdict in ("inconclusive", "timeout"), False
    line = (done.get("verdict_lines") or ["?"])[0]
    verdict = line.rsplit(" ", 1)[-1]
    # the memo never stores "failed": a miscompile's counterexample is
    # recomputed on every request
    not_cached = (kind == "refine-warm" and verdict != "failed"
                  and done.get("cached") != 1)
    return line, verdict in ("inconclusive", "timeout"), not_cached


def _drive(port: int, plan: List[dict], out: List[dict]) -> None:
    conn = None
    try:
        conn = _Connection(port)
        for req in plan:
            t0 = time.perf_counter()
            try:
                done = conn.request(req["rid"], req["op"], req["payload"])
            except (OSError, RuntimeError, ValueError) as e:
                out.append({"kind": req["kind"], "error": str(e)})
                continue
            latency = time.perf_counter() - t0
            answer, undecided, not_cached = _answer(req["kind"], done)
            out.append({"kind": req["kind"], "ms": latency * 1e3,
                        "answer": answer, "undecided": undecided,
                        "not_cached": not_cached})
    except OSError as e:
        out.extend({"kind": req["kind"], "error": str(e)}
                   for req in plan[len(out):])
    finally:
        if conn is not None:
            conn.close()


def _start_server(args, memo_dir: str, log):
    if args.trace_dir:
        cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
               args.trace_dir]
    else:
        cmd = [sys.executable, "-m", "repro", "serve"]
    cmd += ["--port", "0", "--memo-dir", memo_dir,
            "--workers", str(PARALLELISM)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                            text=True)
    return proc


def _read_port(proc) -> int:
    line = proc.stdout.readline()
    if "listening on" not in line:
        raise RuntimeError(f"serve child did not start: {line!r}")
    return int(line.split("listening on ", 1)[1].split()[0]
               .rsplit(":", 1)[1])


def _stop_server(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def run_serve(args) -> dict:
    memo_dir = os.path.join(args.tmp, "memo")
    log_path = os.path.join(args.tmp, "serve.log")
    with open(log_path, "w") as log:
        proc = _start_server(args, memo_dir, log)
        try:
            plans = serve_plan(args.inputs, args.size)
            port = _read_port(proc)
            results: List[List[dict]] = [[] for _ in plans]
            threads = [threading.Thread(target=_drive,
                                        args=(port, plan, out))
                       for plan, out in zip(plans, results)]
            t_ready = time.monotonic()
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - t0
            service = _Connection(port)
            try:
                stats = service.request(0, "stats", {})["stats"]
                histogram = service.request(0, "metrics", {})["snapshot"][
                    "histograms"].get("repro_serve_request_seconds", {})
            finally:
                service.close()
        finally:
            _stop_server(proc)
    return _serve_result(plans, results, stats, histogram, wall, t_ready)


def _serve_result(plans, results, stats, histogram, wall, t_ready) -> dict:
    lines: List[str] = []
    ops: Dict[str, List[float]] = {name: [] for name, _ in SERVE_MIX}
    latencies: List[float] = []
    error_samples: List[str] = []
    errors = not_cached = undecided = refines = 0
    for conn, (plan, out) in enumerate(zip(plans, results)):
        for req, res in zip(plan, out):
            if "error" in res:
                errors += 1
                lines.append(f"{req['rid']} error")
                error_samples.append(f"request {req['rid']} ({req['kind']}):"
                                     f" {res['error']}")
                continue
            latencies.append(res["ms"])
            ops[req["kind"]].append(res["ms"])
            lines.append(f"{req['rid']} {res['answer']}")
            not_cached += res["not_cached"]
            if req["op"] == "refine":
                refines += 1
                undecided += res["undecided"]
        errors += len(plan) - len(out)
    attempted = sum(len(plan) for plan in plans)
    batches = _stat(stats, "serve", "num-batches")
    counters = _program_counters(stats)
    counters["serve.batcher.batches"] = batches
    counters["serve.batcher.items"] = _stat(stats, "serve",
                                            "num-batched-functions")
    return {
        "items": attempted - errors,
        "attempted": attempted,
        "failed": errors + not_cached,
        "undecided": undecided,
        "decided_of": refines,
        "wall_s": wall,
        "t_ready": t_ready,
        "latencies_ms": latencies,
        "ops_ms": ops,
        "server_mean_ms": (histogram.get("sum", 0.0) * 1e3
                           / max(1, histogram.get("count", 0))),
        "digest": _digest(lines),
        "answers": {"requests": attempted},
        "errors": error_samples[:5],
        "checks": {
            "no error frames or dropped connections": errors == 0,
            "every warm refine of a memoizable verdict answered cached":
                not_cached == 0,
        },
        "counters": counters,
    }


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(FULL_SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace-dir", default=None)
    args = p.parse_args(argv)
    args.inputs = args.seed * 1000 + args.round

    tracer = None
    if args.trace_dir and args.workload != "serve-mix":
        from tracing import Tracer

        tracer = Tracer(args.trace_dir)
        tracer.install()
    if args.workload == "serve-mix":
        result = run_serve(args)
    elif args.workload == "lint-attack":
        result = run_attack(args)
    else:
        result = run_campaign(args, args.workload.split("-", 1)[1])
    if tracer is not None:
        tracer.dump()  # the parent's own layers (checkpointing)
    # every child has been waited for by now: this is the largest
    # resident set of any process in the round
    result["peak_rss_kb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
