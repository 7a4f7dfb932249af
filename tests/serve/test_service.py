"""Tests for the transport-independent service core.

Everything here drives :class:`ValidationService.run_request` directly
(no sockets); the end-to-end transport tests live in
``test_server.py``.  The load-bearing property is verdict parity: a
refine request must return byte-for-byte the verdict the batch
campaign path computes for the same source and budgets.
"""

import asyncio

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.worker import check_source
from repro.diag.metrics_catalog import METRIC_CATALOG
from repro.serve.queueing import NUM_BATCHES
from repro.serve.service import (
    ServiceConfig,
    ServiceError,
    ValidationService,
)

SRC = """define i4 @f(i4 %a, i4 %b) {
entry:
  %t = add i4 %a, %b
  ret i4 %t
}
"""

LINTY = """define i8 @branchy(i8 %x) {
entry:
  %of = add nsw i8 %x, 1
  %c = icmp eq i8 %of, 0
  br i1 %c, label %t, label %e
t:
  ret i8 1
e:
  ret i8 0
}
"""

QUICK = {"pipeline": "quick", "fuel": 300, "max_inputs": 4000}


def serve(coro_fn, config=None):
    """Run one scenario against a fresh service, with cleanup."""

    async def scenario():
        service = ValidationService(config or ServiceConfig(
            workers=1, check_threads=2))
        try:
            return await coro_fn(service)
        finally:
            await service.aclose()

    return asyncio.run(scenario())


async def call(service, op, payload=None):
    chunks = []

    async def emit(chunk):
        chunks.append(chunk)

    done = await service.run_request(op, payload or {}, emit)
    return chunks, done


class TestBasicOps:
    def test_ping_health(self):
        async def scenario(service):
            _, done = await call(service, "ping")
            assert done["status"] == "ok"
            assert done["inflight"] == 0
            return done

        done = serve(scenario)
        assert done["workers"] == 1

    def test_parse(self):
        async def scenario(service):
            _, done = await call(service, "parse", {"source": SRC})
            assert done["functions"] == ["f"]
            assert "@f" in done["ir"]

        serve(scenario)

    def test_parse_error_is_structured(self):
        async def scenario(service):
            with pytest.raises(ServiceError) as err:
                await call(service, "parse", {"source": "define garbage"})
            assert err.value.code == "parse-error"

        serve(scenario)

    def test_bad_payloads(self):
        async def scenario(service):
            for op, payload in (("parse", {}), ("parse", {"source": 5}),
                                ("refine", {"functions": []}),
                                ("refine", {"functions": [1]}),
                                ("campaign", {"spec": {"mode": "nope"}}),
                                ("campaign", {"spec": {"bogus": 1}})):
                with pytest.raises(ServiceError) as err:
                    await call(service, op, payload)
                assert err.value.code == "bad-request", (op, payload)

        serve(scenario)

    def test_unknown_op(self):
        async def scenario(service):
            with pytest.raises(ServiceError) as err:
                await call(service, "frobnicate")
            assert err.value.code == "unknown-op"

        serve(scenario)

    def test_optimize(self):
        async def scenario(service):
            _, done = await call(service, "optimize",
                                 {"source": SRC, "pipeline": "quick"})
            assert "@f" in done["ir"]
            assert done["pipeline"] == "quick"

        serve(scenario)

    def test_metrics_and_stats(self):
        async def scenario(service):
            await call(service, "parse", {"source": SRC})
            _, metrics = await call(service, "metrics")
            assert "repro_serve_queue_depth" in metrics["prometheus"]
            _, stats = await call(service, "stats")
            assert stats["stats"].get("serve", {}).get("num-requests")

        serve(scenario)

    def test_every_cataloged_metric_is_exported(self):
        # a catalog name nothing emits would send a dashboard to a
        # metric that does not exist
        async def scenario(service):
            _, metrics = await call(service, "metrics")
            snapshot = metrics["snapshot"]
            return set(snapshot["gauges"]) | set(snapshot["histograms"])

        exported = serve(scenario)
        assert METRIC_CATALOG <= exported, METRIC_CATALOG - exported


class TestLint:
    def test_findings_stream_as_chunks(self):
        async def scenario(service):
            chunks, done = await call(service, "lint",
                                      {"source": LINTY, "sarif": True})
            assert done["findings"] == len(chunks) == 1
            finding = chunks[0]["finding"]
            assert finding["rule"] == "branch-on-maybe-poison"
            assert done["worst"] == finding["severity"]
            import json

            sarif = json.loads(done["sarif"])
            assert sarif["version"] == "2.1.0"
            results = sarif["runs"][0]["results"]
            assert len(results) == 1

        serve(scenario)

    def test_clean_module_has_no_chunks(self):
        async def scenario(service):
            chunks, done = await call(service, "lint", {"source": SRC})
            assert chunks == []
            assert done == {"findings": 0, "worst": ""}

        serve(scenario)


class TestRefine:
    def test_verdict_parity_with_campaign_worker(self):
        # The service must answer exactly what the batch per-function
        # path answers — same hash, same verdict.
        spec = CampaignSpec(**QUICK)
        batch = check_source(spec, SRC, options=spec.check_options(),
                             semantics=spec.semantics())

        async def scenario(service):
            chunks, done = await call(service, "refine",
                                      {"functions": [SRC], **QUICK})
            assert chunks[0]["hash"] == batch["hash"]
            assert chunks[0]["verdict"] == batch["verdict"]
            assert done["verdict_lines"] == [
                f"{batch['hash']} {batch['verdict']}"]

        serve(scenario)

    def test_warm_cache_across_requests(self):
        async def scenario(service):
            chunks1, done1 = await call(service, "refine",
                                        {"functions": [SRC], **QUICK})
            assert not chunks1[0]["cached"]
            chunks2, done2 = await call(service, "refine",
                                        {"functions": [SRC], **QUICK})
            assert chunks2[0]["cached"]
            assert done2["cached"] == 1
            # a cache hit never changes the answer
            assert done1["verdict_lines"] == done2["verdict_lines"]

        serve(scenario)

    def test_batch_of_functions(self):
        other = SRC.replace("add", "sub").replace("@f", "@g")

        async def scenario(service):
            chunks, done = await call(service, "refine",
                                      {"functions": [SRC, other], **QUICK})
            assert [c["index"] for c in chunks] == [0, 1]
            assert done["checked"] == 2
            assert sum(done["verdicts"].values()) == 2

        serve(scenario)

    def test_multi_function_request_rides_one_batch(self):
        variants = [SRC.replace("add", op).replace("@f", f"@f{i}")
                    for i, op in enumerate(("add", "sub", "and", "or"))]

        async def scenario(service):
            before = NUM_BATCHES.value
            _, done = await call(service, "refine",
                                 {"functions": variants, **QUICK})
            assert done["checked"] == 4
            assert NUM_BATCHES.value - before == 1

        serve(scenario)

    def test_pair_exhaustive(self):
        async def scenario(service):
            _, done = await call(service, "refine",
                                 {"source": SRC, "target": SRC})
            assert done["verdict"] == "verified"
            assert done["inputs_checked"] > 0

        serve(scenario)

    def test_pair_symbolic(self):
        async def scenario(service):
            _, first = await call(service, "refine",
                                  {"source": SRC, "target": SRC,
                                   "method": "symbolic"})
            _, second = await call(service, "refine",
                                   {"source": SRC, "target": SRC,
                                    "method": "symbolic"})
            assert first["verdict"] == second["verdict"] == "verified"

        serve(scenario)

    def test_pair_detects_miscompile(self):
        bad = SRC.replace("add i4 %a, %b", "add i4 %a, %a")

        async def scenario(service):
            _, done = await call(service, "refine",
                                 {"source": SRC, "target": bad})
            assert done["verdict"] == "failed"
            assert "counterexample" in done

        serve(scenario)

    def test_pair_sampled_verdict_is_flagged(self):
        # SRC's input space is 17 x 17 = 289; capping max_inputs below
        # that with sampling on must mark the verdict, not dress the
        # sample up as an exhaustive proof.
        async def scenario(service):
            _, done = await call(service, "refine",
                                 {"source": SRC, "target": SRC,
                                  "spec": {"max_inputs": 100,
                                           "sample_inputs": 5}})
            assert done["verdict"] == "verified"
            assert done["sampled"] is True
            assert done["inputs_checked"] == 5
            # the exhaustive path never carries the flag
            _, full = await call(service, "refine",
                                 {"source": SRC, "target": SRC})
            assert "sampled" not in full

        serve(scenario)

    def test_batch_sampled_verdicts_flagged_in_chunks(self):
        async def scenario(service):
            chunks, _ = await call(service, "refine",
                                   {"functions": [SRC],
                                    "max_inputs": 100,
                                    "sample_inputs": 5,
                                    "pipeline": "quick", "fuel": 300})
            assert chunks[0]["verdict"] == "verified"
            assert chunks[0]["sampled"] is True

        serve(scenario)


class TestCampaign:
    SPEC = {"mode": "random", "count": 8, "num_instructions": 1,
            "pipeline": "quick", "shard_size": 4, "fuel": 200,
            "max_inputs": 2000}

    def test_verdicts_match_batch_cli(self):
        batch = run_campaign(CampaignSpec(**self.SPEC), workers=1)

        async def scenario(service):
            chunks, done = await call(service, "campaign",
                                      {"spec": self.SPEC})
            assert len(chunks) == 2  # 8 functions / shard_size 4
            assert done["checked"] == batch.checked
            assert done["verdict_lines"] == batch.verdict_lines()

        serve(scenario)

    def test_campaign_warms_the_refine_memo(self, tmp_path):
        config = ServiceConfig(workers=1, check_threads=1,
                               memo_dir=str(tmp_path / "memo"))

        async def scenario(service):
            _, done = await call(service, "campaign", {"spec": self.SPEC})
            spec = CampaignSpec(**self.SPEC)
            memo = service.memo_for(spec)
            # worker processes appended to the shared store; the
            # service adopted their verdicts
            cacheable = [v for v in done["verdict_lines"]
                         if not v.endswith(" failed")]
            assert len(memo) == len(cacheable)

        serve(scenario, config)

    def test_request_cannot_choose_where_the_server_writes(self, tmp_path):
        config = ServiceConfig(workers=1, check_threads=1,
                               memo_dir=str(tmp_path / "memo"))
        trace_dir = tmp_path / "caller-spans"
        cache_dir = tmp_path / "caller-memo"
        named = {"trace_dir": str(trace_dir), "cache_dir": str(cache_dir)}

        async def scenario(service):
            for payload in ({"spec": dict(self.SPEC, **named)},
                            {"spec": dict(self.SPEC, trace_dir=named[
                                "trace_dir"])},
                            dict(self.SPEC, cache_dir=named["cache_dir"]),
                            dict(named, spec=self.SPEC)):
                with pytest.raises(ServiceError) as err:
                    await call(service, "campaign", payload)
                assert err.value.code == "bad-request", payload
            with pytest.raises(ServiceError) as err:
                await call(service, "refine",
                           {"functions": [SRC], "cache_dir": str(cache_dir)})
            assert err.value.code == "bad-request"

        serve(scenario, config)
        assert not trace_dir.exists()
        assert not cache_dir.exists()


class TestRequestDiscipline:
    def test_timeout_is_structured(self):
        async def scenario(service):
            with pytest.raises(ServiceError) as err:
                await call(service, "refine",
                           {"functions": [SRC], "timeout": 0.0001,
                            **QUICK})
            assert err.value.code == "timeout"

        serve(scenario)

    def test_queue_full(self):
        config = ServiceConfig(workers=1, high_water=1)

        async def scenario(service):
            entered = asyncio.Event()
            release = asyncio.Event()

            async def slow(payload, emit, deadline):
                entered.set()
                await release.wait()
                return {}

            service._handlers["parse"] = slow
            task = asyncio.ensure_future(call(service, "parse",
                                              {"source": SRC}))
            await entered.wait()
            with pytest.raises(ServiceError) as err:
                await call(service, "lint", {"source": SRC})
            assert err.value.code == "queue-full"
            # ungated ops still answer at saturation
            _, ping = await call(service, "ping")
            assert ping["inflight"] == 1
            release.set()
            await task

        serve(scenario, config)

    def test_draining_rejects_but_finishes_inflight(self):
        async def scenario(service):
            entered = asyncio.Event()
            release = asyncio.Event()

            async def slow(payload, emit, deadline):
                entered.set()
                await release.wait()
                return {"slow": True}

            service._handlers["parse"] = slow
            task = asyncio.ensure_future(call(service, "parse", {}))
            await entered.wait()
            service.start_drain()
            with pytest.raises(ServiceError) as err:
                await call(service, "lint", {"source": SRC})
            assert err.value.code == "draining"
            release.set()
            _, done = await task
            assert done == {"slow": True}
            assert await service.gate.wait_idle(timeout=1.0)

        serve(scenario)

    def test_internal_errors_are_structured(self):
        async def scenario(service):
            async def broken(payload, emit, deadline):
                raise ZeroDivisionError("surprise")

            service._handlers["parse"] = broken
            with pytest.raises(ServiceError) as err:
                await call(service, "parse", {})
            assert err.value.code == "internal"
            assert "ZeroDivisionError" in str(err.value)

        serve(scenario)
