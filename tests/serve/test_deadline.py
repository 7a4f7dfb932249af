"""Deadline propagation: timeout validation, the bad-payload wire
error, a refine item whose deadline expired before its batch ran, and
the never-memoize-a-deadline-abort rule."""

import asyncio
import time

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.worker import check_source
from repro.perf import RefinementMemo
from repro.serve import (
    ServeClient,
    ServeError,
    ServiceConfig,
    ValidationServer,
    ValidationService,
    validate_timeout,
)
from repro.serve.service import ServiceError

SRC = """define i4 @f(i4 %a, i4 %b) {
entry:
  %t = add i4 %a, %b
  ret i4 %t
}
"""

QUICK = {"pipeline": "quick", "fuel": 300, "max_inputs": 4000}


class TestValidateTimeout:
    def test_accepts_positive_numbers(self):
        assert validate_timeout(2.5) == 2.5
        assert validate_timeout(10) == 10.0
        assert isinstance(validate_timeout(10), float)

    @pytest.mark.parametrize("bad", [
        True, False,            # bools are not durations
        "ten", None, [5],       # non-numbers
        float("inf"), float("nan"),
        0, -5, -0.1,
    ])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            validate_timeout(bad)

    def test_error_names_the_field(self):
        with pytest.raises(ValueError, match="budget"):
            validate_timeout("x", name="budget")


class TestBatchDeadline:
    SPEC = CampaignSpec(mode="random", count=1, num_instructions=1,
                        pipeline="quick", fuel=300, max_inputs=4000)

    def test_item_expired_before_its_batch_fails_as_timeout(self):
        async def main():
            service = ValidationService(
                ServiceConfig(workers=1, check_threads=1))
            loop = asyncio.get_running_loop()
            expired, live = loop.create_future(), loop.create_future()
            now = time.monotonic()
            try:
                # deadlines are absolute time.monotonic() instants
                await asyncio.wait_for(service._run_refine_batch(
                    self.SPEC.memo_context(),
                    [((self.SPEC, SRC, now - 1.0), expired),
                     ((self.SPEC, SRC, now + 60.0), live)]), 60)
            finally:
                await service.aclose()
            return expired, live

        expired, live = asyncio.run(main())
        assert isinstance(expired.exception(), ServiceError)
        assert expired.exception().code == "timeout"
        assert "before its refine batch ran" in str(expired.exception())
        # the expired item does not fail its batch-mates
        assert live.result()["verdict"] == "verified"


class TestWireValidation:
    def _bad_timeout(self, value):
        async def main():
            server = ValidationServer(
                config=ServiceConfig(workers=1, check_threads=1))
            host, port = await server.start()

            def scenario():
                with ServeClient(host=host, port=port) as client:
                    with pytest.raises(ServeError) as err:
                        client.collect("refine", {
                            "functions": [SRC], "timeout": value, **QUICK})
                    assert err.value.code == "bad-payload"
                    assert "timeout" in str(err.value)
                    # a structured reject leaves the connection usable
                    assert client.ping()["status"] == "ok"

            try:
                await asyncio.to_thread(scenario)
            finally:
                await server.shutdown(drain_timeout=10)

        asyncio.run(main())

    def test_string_timeout_is_bad_payload(self):
        self._bad_timeout("ten")

    def test_bool_timeout_is_bad_payload(self):
        self._bad_timeout(True)

    def test_negative_timeout_is_bad_payload(self):
        self._bad_timeout(-3)


class TestDeadlineAbortsAreNotMemoized:
    SPEC = CampaignSpec(mode="random", count=1, num_instructions=1,
                        pipeline="quick", fuel=300, max_inputs=4000)

    def test_expired_deadline_yields_timeout_without_memo_entry(self):
        memo = RefinementMemo("test-deadline")
        options = self.SPEC.check_options()
        options.deadline = time.monotonic() - 1.0

        outcome = check_source(self.SPEC, SRC, memo=memo, options=options)
        assert outcome["status"] == "checked"
        assert outcome["verdict"] == "timeout"
        assert outcome["deadline_expired"] is True
        # the abort is a property of this request's budget, not the
        # function: it must not poison later requests
        assert memo.lookup(outcome["hash"]) is None

        # the same function under a fresh budget concludes and memoizes
        fresh = check_source(self.SPEC, SRC, memo=memo)
        assert fresh["verdict"] == "verified"
        assert "deadline_expired" not in fresh
        assert memo.lookup(fresh["hash"]) == "verified"
