"""E13 — validation-as-a-service load test.

Boots one in-process :class:`ValidationServer` (the same asyncio stack
``python -m repro serve`` runs) and drives it with concurrent blocking
clients over real sockets, writing a ``BENCH_e13.json`` trajectory:

* **verdict parity** — the service's campaign and refine answers must
  be byte-identical to the batch path (:func:`run_campaign` /
  :func:`check_source`) on the same corpus; any drift fails the run;
* **warm-cache hit rate** — a second wave of clients on *distinct
  connections* re-submits the corpus; the shared
  :class:`RefinementMemo` must serve a nonzero fraction of it;
* **throughput/latency** — ≥4 concurrent clients issue mixed
  lint + refine + ping requests; the report records requests/sec and
  p50/p99 request latency.

Gates (exit nonzero): verdict drift service-vs-batch, a zero warm-cache
hit rate across connections, or any failed/rejected request during the
mixed-load phase.  The record is stamped with the git sha, mode and
core count.

Usage::

    PYTHONPATH=src python benchmarks/bench_e13_serve.py [--quick] \
        [--out BENCH_e13.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import tempfile
import threading
import time

from provenance import stamp
from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.worker import check_source
from repro.fuzz import random_functions
from repro.ir import print_module
from repro.serve import ServeClient, ServiceConfig, ValidationServer

CAMPAIGN_SPEC = dict(mode="random", count=48, num_instructions=1,
                     pipeline="quick", shard_size=16, fuel=300,
                     max_inputs=4000)

REFINE_BUDGETS = dict(pipeline="quick", fuel=300, max_inputs=4000)


class ServerThread:
    """The server's asyncio loop on a daemon thread, real sockets."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.host = self.port = None
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self):
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start")
        return self.host, self.port

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = ValidationServer(config=self.config)
        self.host, self.port = await server.start()
        self._ready.set()
        await self._stop.wait()
        await server.shutdown(drain_timeout=60)

    def stop(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=90)


def _corpus(count: int):
    """Printed sources of a seeded random corpus (the refine inputs)."""
    return [print_module(fn.module)
            for fn in random_functions(count, seed=1303)]


def _percentile(values, q):
    if not values:
        return 0.0
    return round(statistics.quantiles(values, n=100)[q - 1], 4) \
        if len(values) > 1 else round(values[0], 4)


def bench_parity(host, port, quick: bool) -> dict:
    """Service answers vs the batch path, same corpus, same budgets."""
    spec_dict = dict(CAMPAIGN_SPEC, count=24 if quick else 48)
    batch = run_campaign(CampaignSpec(**spec_dict), workers=1)

    with ServeClient(host=host, port=port, timeout=600) as client:
        service = client.campaign(spec_dict)

    sources = _corpus(8 if quick else 16)
    spec = CampaignSpec(**REFINE_BUDGETS)
    batch_refine = []
    for src in sources:
        outcome = check_source(spec, src, options=spec.check_options(),
                               semantics=spec.semantics())
        batch_refine.append(f"{outcome['hash']} {outcome['verdict']}")
    with ServeClient(host=host, port=port, timeout=600) as client:
        _, done = client.collect(
            "refine", {"functions": sources, **REFINE_BUDGETS})
    service_refine = done["verdict_lines"]

    return {
        "campaign_corpus": spec_dict["count"],
        "campaign_identical":
            batch.verdict_lines() == service["verdict_lines"],
        "campaign_verdicts": {
            "verified": batch.verified, "failed": batch.failed,
            "inconclusive": batch.inconclusive,
            "timeout": batch.timeout,
        },
        "refine_corpus": len(sources),
        "refine_identical":
            sorted(set(batch_refine)) == service_refine,
    }


def bench_warm_cache(host, port, quick: bool, clients: int) -> dict:
    """Distinct connections re-submit one corpus; the warm verdict
    store must answer part of the second wave."""
    sources = _corpus(12 if quick else 24)

    def refine_all(results):
        with ServeClient(host=host, port=port, timeout=600) as client:
            _, done = client.collect(
                "refine", {"functions": sources, **REFINE_BUDGETS})
            results.append(done)

    cold: list = []
    refine_all(cold)  # connection 1 pays the checks

    warm: list = []
    threads = [threading.Thread(target=refine_all, args=(warm,))
               for _ in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    warm_wall = time.perf_counter() - start

    assert len(warm) == clients
    total = sum(d["checked"] for d in warm)
    served = sum(d["cached"] for d in warm)
    lines = {tuple(d["verdict_lines"]) for d in warm + cold}
    return {
        "corpus_functions": len(sources),
        "warm_connections": clients,
        "warm_requests": len(warm),
        "warm_checked": total,
        "warm_served_from_cache": served,
        "warm_hit_rate": round(served / total, 4) if total else 0.0,
        "verdicts_stable_across_connections": len(lines) == 1,
        "warm_wall_seconds": round(warm_wall, 4),
    }


def bench_load(host, port, quick: bool, clients: int,
               requests_per_client: int) -> dict:
    """Mixed lint + refine + ping load from concurrent clients."""
    sources = _corpus(12 if quick else 24)
    errors: list = []
    latencies: list = []
    lock = threading.Lock()

    def one_client(idx: int):
        try:
            with ServeClient(host=host, port=port, timeout=600) as client:
                for i in range(requests_per_client):
                    kind = (idx + i) % 3
                    begin = time.perf_counter()
                    if kind == 0:
                        src = sources[(idx + i) % len(sources)]
                        client.collect("lint", {"source": src,
                                                "sarif": True})
                    elif kind == 1:
                        src = sources[(idx * 7 + i) % len(sources)]
                        client.collect(
                            "refine",
                            {"functions": [src], **REFINE_BUDGETS})
                    else:
                        client.ping()
                    wall = time.perf_counter() - begin
                    with lock:
                        latencies.append(wall)
        except Exception as e:  # noqa: BLE001 — a failed request fails E13
            with lock:
                errors.append(f"client {idx}: {type(e).__name__}: {e}")

    threads = [threading.Thread(target=one_client, args=(i,))
               for i in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start

    done = len(latencies)
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "requests_completed": done,
        "request_errors": errors,
        "wall_seconds": round(wall, 4),
        "requests_per_sec": round(done / wall, 1) if wall else 0.0,
        "latency_p50_seconds": _percentile(sorted(latencies), 50),
        "latency_p99_seconds": _percentile(sorted(latencies), 99),
        "latency_max_seconds": (round(max(latencies), 4)
                                if latencies else 0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (smaller corpus and load)")
    parser.add_argument("--out", default="BENCH_e13.json",
                        help="output JSON path (default: BENCH_e13.json)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent clients in the load phase")
    args = parser.parse_args(argv)
    requests_per_client = 6 if args.quick else 18

    with tempfile.TemporaryDirectory(prefix="bench-e13-memo-") as memo_dir:
        server = ServerThread(ServiceConfig(
            workers=2, check_threads=2, high_water=256,
            request_timeout=600.0, memo_dir=memo_dir))
        host, port = server.start()
        try:
            report = {
                "experiment": "E13",
                **stamp(args.quick),
                "server": {"workers": 2, "check_threads": 2,
                           "high_water": 256},
                "parity": bench_parity(host, port, args.quick),
                "warm_cache": bench_warm_cache(host, port, args.quick,
                                               max(2, args.clients // 2)),
                "load": bench_load(host, port, args.quick, args.clients,
                                   requests_per_client),
            }
        finally:
            server.stop()

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    parity, warm, load = (report["parity"], report["warm_cache"],
                          report["load"])
    print(f"E13 serve load test ({'quick' if args.quick else 'full'}):")
    print(f"  parity: campaign identical={parity['campaign_identical']}, "
          f"refine identical={parity['refine_identical']}")
    print(f"  warm cache: {warm['warm_served_from_cache']}/"
          f"{warm['warm_checked']} served warm "
          f"(hit rate {warm['warm_hit_rate']:.1%}) across "
          f"{warm['warm_connections']} connections")
    print(f"  load: {load['requests_completed']} requests from "
          f"{load['clients']} clients at {load['requests_per_sec']}/s, "
          f"p50 {load['latency_p50_seconds']}s, "
          f"p99 {load['latency_p99_seconds']}s")
    print(f"  wrote {args.out}")

    failures = []
    if not parity["campaign_identical"]:
        failures.append("service campaign verdicts differ from the "
                        "batch CLI on the same corpus")
    if not parity["refine_identical"]:
        failures.append("service refine verdicts differ from the batch "
                        "per-function path")
    if warm["warm_hit_rate"] == 0:
        failures.append("warm-cache hit rate is 0 across distinct "
                        "connections (shared store wired but dead)")
    if not warm["verdicts_stable_across_connections"]:
        failures.append("verdicts changed between connections")
    if load["request_errors"]:
        failures.append(f"{len(load['request_errors'])} request(s) "
                        f"failed under load: "
                        f"{load['request_errors'][:3]}")
    if load["requests_completed"] != (load["clients"]
                                      * load["requests_per_client"]):
        failures.append("load phase lost requests")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
