"""E14 — self-healing under a seeded fault storm.

Boots the same in-process :class:`ValidationServer` stack as E13, then
attacks it with :class:`~repro.opt.resilience.ServiceChaos` while
retrying clients drive real work, writing a ``BENCH_e14.json``
trajectory:

* **baseline** — a fault-free server answers a campaign and a refine
  corpus; its verdict lines are the ground truth;
* **storm** — a fresh server runs the identical workload while chaos
  SIGKILLs shard workers mid-run and drops/stalls client connections
  mid-frame; every request goes through :class:`RetryingClient`;
* **recovery** — chaos flips one byte inside the on-disk verdict
  store; ``fsck`` must find exactly that corruption, and a new server
  over the damaged store must quarantine the bad record while serving
  the rest of the corpus warm.

The record is stamped with the git sha, mode and core count.

Gates (exit nonzero): any failed request during the storm, verdict
lines differing anywhere from the fault-free baseline, zero supervisor
restarts (the kills never landed or were never healed), fsck missing
the injected corruption, or a recovery server with no warm hits left.

Usage::

    PYTHONPATH=src python benchmarks/bench_e14_chaos.py [--quick] \
        [--out BENCH_e14.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import threading
import time

from provenance import stamp
from repro.fuzz import random_functions
from repro.ir import print_module
from repro.opt.resilience import ServiceChaos
from repro.perf import fsck
from repro.serve import (
    RetryingClient,
    RetryPolicy,
    ServiceConfig,
    ValidationServer,
    reset_breakers,
)

CAMPAIGN_SPEC = dict(mode="random", count=48, num_instructions=1,
                     pipeline="quick", shard_size=8, fuel=300,
                     max_inputs=4000)

REFINE_BUDGETS = dict(pipeline="quick", fuel=300, max_inputs=4000)

RETRY = RetryPolicy(max_attempts=5, backoff_base=0.05, seed=1402)


class ServerThread:
    """The server's asyncio loop on a daemon thread, real sockets.

    Unlike E13's harness this keeps the :class:`ValidationServer`
    reachable (``self.server``): chaos needs the live shard executor to
    aim SIGKILL at.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.host = self.port = None
        self.server = None
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
        self.server = ValidationServer(config=self.config)
        self.host, self.port = await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.shutdown(drain_timeout=60)

    def stop(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=90)

    @property
    def executor(self):
        return self.server.service.pool.executor


def _corpus(count: int):
    return [print_module(fn.module)
            for fn in random_functions(count, seed=1402)]


def _run_workload(host, port, spec_dict, sources, failures):
    """The full workload through a retrying client; returns
    (campaign done, refine done)."""
    campaign = refine = None
    try:
        with RetryingClient(host=host, port=port, timeout=600,
                            policy=RETRY) as client:
            campaign = client.campaign(spec_dict)
            _, refine = client.collect(
                "refine", {"functions": sources, **REFINE_BUDGETS})
    except Exception as e:  # noqa: BLE001 — any failed request gates E14
        failures.append(f"{type(e).__name__}: {e}")
    return campaign, refine


def bench_baseline(spec_dict, sources) -> dict:
    """Fault-free ground truth on a throwaway store."""
    failures: list = []
    with tempfile.TemporaryDirectory(prefix="e14-baseline-") as memo_dir:
        server = ServerThread(ServiceConfig(
            workers=2, check_threads=2, high_water=64,
            request_timeout=600.0, memo_dir=memo_dir))
        host, port = server.start()
        try:
            campaign, refine = _run_workload(host, port, spec_dict,
                                             sources, failures)
        finally:
            server.stop()
    if failures or campaign is None or refine is None:
        raise RuntimeError(f"fault-free baseline failed: {failures}")
    return {
        "campaign_verdict_lines": campaign["verdict_lines"],
        "refine_verdict_lines": refine["verdict_lines"],
        "checked": campaign["checked"] + refine["checked"],
    }


def bench_storm(spec_dict, sources, memo_dir, kills: int) -> dict:
    """The identical workload under SIGKILL + connection chaos."""
    chaos = ServiceChaos(seed=1402)
    failures: list = []
    results: dict = {}
    server = ServerThread(ServiceConfig(
        workers=2, check_threads=2, high_water=64,
        request_timeout=600.0, memo_dir=memo_dir))
    host, port = server.start()

    def attack():
        for i in range(kills):
            # the first kill waits for the campaign to get busy; later
            # ones only fire if it is still running.
            if chaos.kill_worker_when_busy(
                    server.executor, timeout=60 if i == 0 else 5) is None:
                break
            # let the supervisor respawn and make progress before the
            # next kill; more than max_restarts kills of one job would
            # (correctly) quarantine it and break parity on purpose.
            time.sleep(0.4)
            chaos.drop_connection(host, port)
            chaos.stall_connection(host, port, hold=0.1)

    try:
        attacker = threading.Thread(target=attack)
        attacker.start()
        campaign, refine = _run_workload(host, port, spec_dict,
                                         sources, failures)
        attacker.join(timeout=120)
        with RetryingClient(host=host, port=port, timeout=60,
                            policy=RETRY) as client:
            results["ping"] = client.ping()
    finally:
        server.stop()

    supervisor = results.get("ping", {}).get("supervisor", {})
    return {
        "chaos": chaos.report(),
        "failed_requests": failures,
        "campaign_verdict_lines":
            campaign["verdict_lines"] if campaign else None,
        "refine_verdict_lines":
            refine["verdict_lines"] if refine else None,
        "worker_restarts": (campaign or {}).get("worker_restarts", 0),
        "supervisor": supervisor,
        "shards_errored": (campaign or {}).get("shards_errored"),
    }


def bench_recovery(sources, memo_dir) -> dict:
    """Corrupt one stored record; fsck must see it, a fresh server must
    quarantine it and still serve the rest warm."""
    chaos = ServiceChaos(seed=2027)
    corruption = chaos.corrupt_memo_record(memo_dir)
    report = fsck(memo_dir)

    failures: list = []
    refine = None
    server = ServerThread(ServiceConfig(
        workers=2, check_threads=2, high_water=64,
        request_timeout=600.0, memo_dir=memo_dir))
    host, port = server.start()
    try:
        with RetryingClient(host=host, port=port, timeout=600,
                            policy=RETRY) as client:
            _, refine = client.collect(
                "refine", {"functions": sources, **REFINE_BUDGETS})
    except Exception as e:  # noqa: BLE001
        failures.append(f"{type(e).__name__}: {e}")
    finally:
        server.stop()

    return {
        "corruption": corruption,
        "fsck": {k: report[k] for k in
                 ("valid", "legacy", "corrupt", "torn_tails", "ok")},
        "failed_requests": failures,
        "refine_verdict_lines":
            refine["verdict_lines"] if refine else None,
        "served_warm": (refine or {}).get("cached", 0),
        "checked": (refine or {}).get("checked", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizing (smaller corpus, one kill)")
    parser.add_argument("--out", default="BENCH_e14.json",
                        help="output JSON path (default: BENCH_e14.json)")
    args = parser.parse_args(argv)

    spec_dict = dict(CAMPAIGN_SPEC,
                     count=24 if args.quick else 48,
                     shard_size=4 if args.quick else 8)
    sources = _corpus(8 if args.quick else 16)
    kills = 1 if args.quick else 2

    reset_breakers()
    baseline = bench_baseline(spec_dict, sources)
    with tempfile.TemporaryDirectory(prefix="e14-storm-") as memo_dir:
        storm = bench_storm(spec_dict, sources, memo_dir, kills)
        recovery = bench_recovery(sources, memo_dir)

    report = {
        "experiment": "E14",
        **stamp(args.quick),
        "server": {"workers": 2, "check_threads": 2, "high_water": 64},
        "workload": {"campaign": spec_dict,
                     "refine_corpus": len(sources),
                     "kills_requested": kills},
        "baseline": {"checked": baseline["checked"]},
        "storm": storm,
        "recovery": recovery,
        "campaign_identical":
            storm["campaign_verdict_lines"]
            == baseline["campaign_verdict_lines"],
        "refine_identical":
            storm["refine_verdict_lines"]
            == baseline["refine_verdict_lines"],
        "recovery_identical":
            recovery["refine_verdict_lines"]
            == baseline["refine_verdict_lines"],
    }

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"E14 chaos storm ({'quick' if args.quick else 'full'}):")
    print(f"  storm: {storm['chaos']['events']} faults "
          f"({storm['chaos']['by_kind']}), "
          f"{storm['worker_restarts']} worker restart(s), "
          f"{len(storm['failed_requests'])} failed request(s)")
    print(f"  parity: campaign={report['campaign_identical']}, "
          f"refine={report['refine_identical']}, "
          f"recovery={report['recovery_identical']}")
    print(f"  recovery: fsck found {recovery['fsck']['corrupt']} "
          f"corrupt record(s); {recovery['served_warm']}/"
          f"{recovery['checked']} served warm afterwards")
    print(f"  wrote {args.out}")

    failures = []
    if storm["failed_requests"]:
        failures.append(f"storm phase failed requests: "
                        f"{storm['failed_requests']}")
    if recovery["failed_requests"]:
        failures.append(f"recovery phase failed requests: "
                        f"{recovery['failed_requests']}")
    if not report["campaign_identical"]:
        failures.append("campaign verdicts drifted under worker kills")
    if not report["refine_identical"]:
        failures.append("refine verdicts drifted under chaos")
    if not report["recovery_identical"]:
        failures.append("verdicts drifted after memo corruption")
    if storm["supervisor"].get("restarts", 0) < 1:
        failures.append("no supervisor restarts recorded — the kills "
                        "never landed or were never healed")
    if storm["shards_errored"]:
        failures.append(f"shards errored under chaos: "
                        f"{storm['shards_errored']}")
    if recovery["fsck"]["corrupt"] < 1:
        failures.append("fsck did not find the injected corruption")
    if recovery["served_warm"] < 1:
        failures.append("no warm hits survived quarantine — the whole "
                        "store was lost to one bad record")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
