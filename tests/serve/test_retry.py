"""Client-side containment: retry schedules, circuit breakers, and
idempotent replay over real sockets."""

import asyncio
import socket

import pytest

from repro.serve import (
    CircuitBreaker,
    RetryingClient,
    RetryPolicy,
    ServeClient,
    ServeError,
    ServiceConfig,
    ValidationServer,
    breaker_for,
    reset_breakers,
)

SRC = """define i4 @f(i4 %a, i4 %b) {
entry:
  %t = add i4 %a, %b
  ret i4 %t
}
"""

QUICK = {"pipeline": "quick", "fuel": 300, "max_inputs": 4000}


@pytest.fixture(autouse=True)
def _fresh_breakers():
    reset_breakers()
    yield
    reset_breakers()


class FakeClock:
    """A breaker clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def free_port() -> int:
    """A port nothing is listening on (bind-then-close)."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def with_server(scenario, config=None):
    async def main():
        server = ValidationServer(
            config=config or ServiceConfig(workers=1, check_threads=2))
        host, port = await server.start()
        try:
            return await asyncio.to_thread(scenario, host, port)
        finally:
            await server.shutdown(drain_timeout=10)

    return asyncio.run(main())


class TestRetryPolicy:
    def test_backoff_is_deterministic_per_seed(self):
        policy = RetryPolicy(backoff_base=0.05, jitter=0.5, seed=7)
        a = RetryingClient(port=1, policy=policy,
                           breaker=CircuitBreaker())
        b = RetryingClient(port=1, policy=policy,
                           breaker=CircuitBreaker())
        assert [a._backoff(k) for k in (1, 2, 3)] \
            == [b._backoff(k) for k in (1, 2, 3)]

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.2,
                             jitter=0.0)
        client = RetryingClient(port=1, policy=policy,
                                breaker=CircuitBreaker())
        assert client._backoff(1) == pytest.approx(0.1)
        assert client._backoff(2) == pytest.approx(0.2)
        assert client._backoff(5) == pytest.approx(0.2)  # capped


class TestCircuitBreaker:
    def test_opens_after_threshold_and_sheds(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=60)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.report()["shed"] == 1
        assert breaker.report()["opens"] == 1

    def test_half_open_trial_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.02,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(0.019)
        assert breaker.state == "open"
        clock.advance(0.001)
        assert breaker.state == "half-open"
        assert breaker.allow()  # one trial goes through
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.report()["consecutive_failures"] == 0

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.02,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(0.03)
        assert breaker.state == "half-open"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.report()["opens"] == 2

    def test_registry_is_per_endpoint(self):
        a = breaker_for("127.0.0.1", 1234)
        assert breaker_for("127.0.0.1", 1234) is a
        assert breaker_for("127.0.0.1", 1235) is not a
        reset_breakers()
        assert breaker_for("127.0.0.1", 1234) is not a


class TestRetryingClient:
    def test_semantic_errors_do_not_retry(self):
        def scenario(host, port):
            with RetryingClient(host=host, port=port) as client:
                with pytest.raises(ServeError) as err:
                    client.parse("garbage")
                assert err.value.code == "parse-error"
                assert client.retries == 0

        with_server(scenario)

    def test_down_server_retries_then_opens_the_breaker(self):
        port = free_port()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=60)
        policy = RetryPolicy(max_attempts=3, backoff_base=0.001, seed=1)
        with RetryingClient(port=port, policy=policy,
                            breaker=breaker) as client:
            with pytest.raises(ServeError) as err:
                client.ping()
            assert err.value.code == "internal"
            assert "connect failed" in str(err.value)
            assert client.retries == 2  # 3 attempts = 2 retries
            assert breaker.state == "open"

            # the open breaker sheds instantly, without a socket
            with pytest.raises(ServeError) as err:
                client.ping()
            assert err.value.code == "queue-full"
            assert "circuit breaker open" in str(err.value)

    def test_half_open_trial_heals_against_a_live_server(self):
        def scenario(host, port):
            clock = FakeClock()
            breaker = CircuitBreaker(failure_threshold=1,
                                     reset_timeout=0.02, clock=clock)
            breaker.record_failure()  # open it by hand
            clock.advance(0.03)
            with RetryingClient(host=host, port=port,
                                breaker=breaker) as client:
                assert client.ping()["status"] == "ok"
            assert breaker.state == "closed"

        with_server(scenario)

    def test_idempotent_replay_skips_the_work(self):
        def scenario(host, port):
            with ServeClient(host=host, port=port) as client:
                payload = {"functions": [SRC], **QUICK,
                           "idempotency_key": "retry-test-1"}
                chunks1, done1 = client.collect("refine", dict(payload))
                assert len(chunks1) == 1
                # a duplicate send (the retry of a request whose answer
                # was lost in transit) replays the terminal payload;
                # chunks are not re-streamed
                chunks2, done2 = client.collect("refine", dict(payload))
                assert done2 == done1
                assert chunks2 == []
                stats = client.stats()["stats"].get("serve", {})
                assert stats.get("num-idempotent-replays", 0) >= 1

        with_server(scenario)
