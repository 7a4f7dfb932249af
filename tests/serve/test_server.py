"""End-to-end tests over real sockets: both protocols, backpressure,
drain, and a worker process dying mid-request."""

import asyncio
import importlib.util
import json
import os
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    ServeClient,
    ServeError,
    ServiceConfig,
    ValidationServer,
)
from repro.serve import queueing
from repro.serve.queueing import NUM_BATCHED

SRC = """define i4 @f(i4 %a, i4 %b) {
entry:
  %t = add i4 %a, %b
  ret i4 %t
}
"""

QUICK = {"pipeline": "quick", "fuel": 300, "max_inputs": 4000}

CAMPAIGN = {"mode": "random", "count": 8, "num_instructions": 1,
            "pipeline": "quick", "shard_size": 4, "fuel": 200,
            "max_inputs": 2000}


def with_server(scenario, config=None, **server_kw):
    """Start a server, run blocking ``scenario(host, port)`` in a
    thread, shut down."""

    async def main():
        server = ValidationServer(
            config=config or ServiceConfig(workers=1, check_threads=2),
            **server_kw)
        host, port = await server.start()
        try:
            return await asyncio.to_thread(scenario, host, port)
        finally:
            await server.shutdown(drain_timeout=10)

    return asyncio.run(main())


class TestNDJSONTransport:
    def test_many_requests_one_connection(self):
        def scenario(host, port):
            with ServeClient(host=host, port=port) as client:
                assert client.ping()["status"] == "ok"
                assert client.parse(SRC)["functions"] == ["f"]
                chunks, done = client.collect(
                    "refine", {"functions": [SRC], **QUICK})
                assert done["checked"] == 1
                assert chunks[0]["verdict"] == "verified"
                # the connection survives a request-level error
                with pytest.raises(ServeError) as err:
                    client.parse("garbage")
                assert err.value.code == "parse-error"
                assert client.ping()["status"] == "ok"

        with_server(scenario)

    def test_bad_frame_keeps_connection(self):
        def scenario(host, port):
            with socket.create_connection((host, port), timeout=30) as s:
                fh = s.makefile("rwb")
                fh.write(b"this is not json\n")
                fh.flush()
                frame = json.loads(fh.readline())
                assert frame["kind"] == "error"
                assert frame["code"] == "bad-frame"
                fh.write(json.dumps({"id": 1, "op": "ping"}).encode()
                         + b"\n")
                fh.flush()
                frame = json.loads(fh.readline())
                assert frame["kind"] == "done"
                assert frame["payload"]["status"] == "ok"

        with_server(scenario)

    def test_concurrent_clients_share_the_warm_cache(self):
        def scenario(host, port):
            barrier = threading.Barrier(2)
            results = []

            def one_client():
                with ServeClient(host=host, port=port) as client:
                    barrier.wait()
                    _, done = client.collect(
                        "refine", {"functions": [SRC], **QUICK})
                    results.append(done)

            threads = [threading.Thread(target=one_client)
                       for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            lines = {tuple(r["verdict_lines"]) for r in results}
            assert len(lines) == 1  # identical verdicts either way
            # distinct connections, one verdict store: at least one of
            # the two requests was served warm (memo or micro-batch)
            with ServeClient(host=host, port=port) as client:
                _, done = client.collect("refine",
                                         {"functions": [SRC], **QUICK})
                assert done["cached"] == 1

        with_server(scenario)


class TestHTTPTransport:
    def test_healthz_metrics_stats(self):
        def scenario(host, port):
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(base + "/healthz") as r:
                assert r.status == 200
                assert json.load(r)["status"] == "ok"
            with urllib.request.urlopen(base + "/metrics") as r:
                text = r.read().decode()
                assert r.headers["Content-Type"].startswith("text/plain")
                assert "repro_serve_queue_depth" in text
                assert "# TYPE" in text
            with urllib.request.urlopen(base + "/stats") as r:
                assert "stats" in json.load(r)

        with_server(scenario)

    def test_api_streams_ndjson_frames(self):
        def scenario(host, port):
            req = urllib.request.Request(
                f"http://{host}:{port}/api/v1/refine",
                data=json.dumps({"functions": [SRC], **QUICK}).encode())
            with urllib.request.urlopen(req) as r:
                assert r.headers["Content-Type"] == "application/x-ndjson"
                frames = [json.loads(line)
                          for line in r.read().splitlines() if line.strip()]
            kinds = [f["kind"] for f in frames]
            assert kinds == ["chunk", "done"]
            assert frames[0]["payload"]["verdict"] == "verified"

        with_server(scenario)

    def test_error_statuses(self):
        def scenario(host, port):
            base = f"http://{host}:{port}"
            cases = [
                ("/api/v1/parse", {"source": 5}, 400, "bad-request"),
                ("/api/v1/parse", {"source": "garbage"}, 422,
                 "parse-error"),
                ("/api/v1/frobnicate", {}, 404, "unknown-op"),
            ]
            for path, payload, status, code in cases:
                req = urllib.request.Request(
                    base + path, data=json.dumps(payload).encode())
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(req)
                assert err.value.code == status, path
                assert json.load(err.value)["code"] == code
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(base + "/nowhere")
            assert err.value.code == 404

        with_server(scenario)

    def test_malformed_content_length_is_a_400(self):
        def scenario(host, port):
            for length in (b"abc", b"-5"):
                with socket.create_connection((host, port),
                                              timeout=30) as s:
                    s.sendall(b"POST /api/v1/parse HTTP/1.1\r\n"
                              b"Content-Length: " + length + b"\r\n\r\n")
                    reply = s.makefile("rb").read()
                assert reply.startswith(b"HTTP/1.1 400 "), (length, reply)
                body = json.loads(reply.split(b"\r\n\r\n", 1)[1])
                assert "Content-Length" in body["error"]
            with urllib.request.urlopen(
                    f"http://{host}:{port}/healthz") as r:
                assert r.status == 200

        with_server(scenario)


class TestWorkerCrash:
    def test_crash_mid_campaign_is_a_structured_record(self, monkeypatch):
        # Shard 0's worker process dies with os._exit(17) mid-request;
        # the client must get a structured per-shard error and a
        # terminal done frame — not a hang, not a dropped connection.
        monkeypatch.setenv("REPRO_CAMPAIGN_CRASH_SHARDS", "0")

        def scenario(host, port):
            with ServeClient(host=host, port=port, timeout=120) as client:
                shards = []
                done = client.campaign(
                    CAMPAIGN, on_shard=lambda s: shards.append(s))
            by_id = {s["shard"]["shard_id"]: s["shard"] for s in shards}
            assert by_id[0]["status"] == "errored"
            assert "died" in by_id[0]["error"]
            assert by_id[1]["status"] == "done"
            assert done["shards_errored"] == [0]
            # the healthy shard's verdicts still arrived
            assert len(done["verdict_lines"]) == by_id[1]["checked"]

        with_server(scenario)

    def test_server_survives_the_crash(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_CRASH_SHARDS", "0,1")

        def scenario(host, port):
            with ServeClient(host=host, port=port, timeout=120) as client:
                done = client.campaign(CAMPAIGN)
                assert done["shards_errored"] == [0, 1]
                monkeypatch.delenv("REPRO_CAMPAIGN_CRASH_SHARDS")
                # the pool replaced its dead workers; new work runs
                done = client.campaign(CAMPAIGN)
                assert done["shards_errored"] == []
                assert done["checked"] == 8

        with_server(scenario)


def _serve_plan(seed, size):
    """The end-to-end benchmark's serve-mix request plan."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "benchmarks", "e2e", "workloads.py")
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.serve_plan(seed, size)


class TestSymbolicRefinePairs:
    def test_interleaved_pairs_match_one_shot_checks(self):
        # serve-mix's refine-pair requests, sent with the symbolic method
        # over two connections at once, must each get the verdict of a
        # fresh one-shot check.
        from repro.ir import parse_function
        from repro.refine.symbolic import check_refinement_symbolic

        plans = [[dict(r["payload"], method="symbolic") for r in plan
                  if r["kind"] == "refine-pair"]
                 for plan in _serve_plan(1, 1200)]
        assert [len(plan) for plan in plans] == [124, 115]
        expected = []
        for plan in plans:
            results = [check_refinement_symbolic(
                parse_function(p["source"]), parse_function(p["target"]))
                for p in plan]
            expected.append([(r.verdict, r.reason) for r in results])

        def scenario(host, port):
            answers = [None] * len(plans)

            def drive(conn):
                with ServeClient(host=host, port=port, timeout=120) as client:
                    dones = [client.collect("refine", p)[1]
                             for p in plans[conn]]
                answers[conn] = [(d["verdict"], d["reason"]) for d in dones]

            threads = [threading.Thread(target=drive, args=(conn,))
                       for conn in range(len(plans))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
                assert not thread.is_alive()
            return answers

        answers = with_server(
            scenario, config=ServiceConfig(workers=1, check_threads=2))
        assert answers == expected
        verdicts = {v for plan in expected for v, _ in plan}
        assert verdicts == {"verified", "inconclusive"}


def hold_checks(monkeypatch):
    """Make every refine check wait for the returned ``release`` event;
    ``checking`` is set once a check holds its request's queue slot."""
    import threading

    import repro.serve.service as service

    checking = threading.Event()
    release = threading.Event()
    check_source = service.check_source

    def held_check_source(*args, **kwargs):
        checking.set()
        assert release.wait(120), "the test never released the check"
        return check_source(*args, **kwargs)

    monkeypatch.setattr(service, "check_source", held_check_source)
    return checking, release


class TestBackpressureAndDrain:
    def test_queue_full_over_the_wire(self, monkeypatch):
        config = ServiceConfig(workers=1, high_water=1, check_threads=1)
        checking, release = hold_checks(monkeypatch)

        def scenario(host, port):
            import threading

            held_result = {}
            variants = [SRC.replace("add", op).replace("@f", f"@f{i}")
                        for i, op in enumerate(
                            ("add", "sub", "and", "or", "xor", "mul"))]

            def held_request():
                with ServeClient(host=host, port=port, timeout=120) as c:
                    held_result.update(c.collect(
                        "refine", {"functions": variants, **QUICK})[1])

            t = threading.Thread(target=held_request)
            t.start()
            try:
                # the refine now holds the only queue slot
                assert checking.wait(120)
                with ServeClient(host=host, port=port) as client:
                    with pytest.raises(ServeError) as rejected:
                        client.collect("lint", {"source": SRC})
            finally:
                release.set()
                t.join()
            assert rejected.value.code == "queue-full"
            assert held_result.get("checked") == 6  # in-flight finished

        with_server(scenario, config)

    def test_drain_finishes_inflight_rejects_new(self, monkeypatch):
        checking, release = hold_checks(monkeypatch)

        async def main():
            server = ValidationServer(
                config=ServiceConfig(workers=1, check_threads=2))
            host, port = await server.start()

            inflight = {}
            rejected = {}

            def held_client():
                with ServeClient(host=host, port=port, timeout=120) as c:
                    inflight.update(c.collect(
                        "refine", {"functions": [SRC], **QUICK})[1])

            def late_client():
                try:
                    with ServeClient(host=host, port=port) as c:
                        c.collect("lint", {"source": SRC})
                except ServeError as e:
                    rejected["code"] = e.code

            held = asyncio.ensure_future(asyncio.to_thread(held_client))
            try:
                assert await asyncio.to_thread(checking.wait, 120)
                server.service.start_drain()  # what SIGTERM triggers
                await asyncio.to_thread(late_client)
            finally:
                release.set()
            clean = await server.shutdown(drain_timeout=30)
            await held
            assert clean
            assert rejected["code"] == "draining"
            assert inflight.get("checked") == 1

        asyncio.run(main())

    def test_shutdown_closes_idle_connections(self):
        # Since Python 3.12, Server.wait_closed() waits for every open
        # connection: an idle client must not keep shutdown waiting.
        async def main():
            server = ValidationServer(
                config=ServiceConfig(workers=1, check_threads=1))
            host, port = await server.start()
            client = ServeClient(host=host, port=port, timeout=30)
            try:
                pong = await asyncio.to_thread(client.ping)
                # hang guard: a stuck shutdown fails here, not by hanging
                clean = await asyncio.wait_for(
                    server.shutdown(drain_timeout=1), 30)
                tail = await asyncio.to_thread(client._file.readline)
            finally:
                client.close()
            return pong, clean, tail

        pong, clean, tail = asyncio.run(main())
        assert pong["status"] == "ok"
        assert clean
        assert tail == b""  # the server closed the idle connection

    def test_timed_out_drain_answers_running_and_queued_refines(
            self, monkeypatch):
        # one refine per batch, so the second request queues behind the
        # held first one instead of riding its batch
        monkeypatch.setattr(queueing, "MAX_BATCH", 1)
        checking, release = hold_checks(monkeypatch)
        answers = {}

        def client(host, port, name):
            try:
                with ServeClient(host=host, port=port, timeout=120) as c:
                    answers[name] = c.collect(
                        "refine", {"functions": [SRC], **QUICK})[1]
            except ServeError as e:
                answers[name] = e.code

        async def queued_up(submitted):
            while NUM_BATCHED.value == submitted:
                await asyncio.sleep(0.01)

        clients = []

        async def main():
            # like `repro serve`: the loop ends as soon as shutdown does
            server = ValidationServer(config=ServiceConfig(
                workers=1, check_threads=1))
            host, port = await server.start()
            try:
                for name in ("running", "queued"):
                    submitted = NUM_BATCHED.value
                    clients.append(threading.Thread(
                        target=client, args=(host, port, name)))
                    clients[-1].start()
                    await asyncio.wait_for(queued_up(submitted), 120)
                assert await asyncio.to_thread(checking.wait, 120)
                # the held check outlives the drain
                return await server.shutdown(drain_timeout=0.1)
            finally:
                release.set()

        clean = asyncio.run(main())
        for thread in clients:
            thread.join(120)
        assert not clean
        assert answers == {"running": "draining", "queued": "draining"}
