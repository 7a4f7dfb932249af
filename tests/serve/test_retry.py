"""Client-side containment: retry schedules, circuit breakers, and
idempotent replay over real sockets."""

import asyncio
import socket

import pytest

from repro.serve import (
    CircuitBreaker,
    RetryingClient,
    ServeClient,
    ServeError,
    ServiceConfig,
    ValidationServer,
    breaker_for,
    reset_breakers,
)
from repro.serve import retry
from repro.serve.retry import FAILURE_THRESHOLD, RESET_TIMEOUT

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


def open_breaker(clock: FakeClock) -> CircuitBreaker:
    """A breaker on ``clock`` that consecutive failures have opened."""
    breaker = CircuitBreaker(clock=clock)
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure()
    return breaker


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


class TestCircuitBreaker:
    def test_opens_after_threshold_and_sheds(self):
        breaker = CircuitBreaker()
        for _ in range(FAILURE_THRESHOLD - 1):
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
        breaker = open_breaker(clock)
        assert breaker.state == "open"
        clock.advance(RESET_TIMEOUT - 0.5)
        assert breaker.state == "open"
        clock.advance(0.5)
        assert breaker.state == "half-open"
        assert breaker.allow()  # one trial goes through
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.report()["consecutive_failures"] == 0

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = open_breaker(clock)
        clock.advance(RESET_TIMEOUT)
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

    def test_down_server_retries_then_opens_the_breaker(self, monkeypatch):
        monkeypatch.setattr(retry, "FAILURE_THRESHOLD", 3)
        port = free_port()
        breaker = CircuitBreaker()
        with RetryingClient(port=port, attempts=3,
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

    def test_clients_draw_independent_backoff_schedules(self,
                                                        monkeypatch):
        # one shared seed would make every client retry in lockstep
        delays = []
        monkeypatch.setattr(retry.time, "sleep", delays.append)
        port = free_port()
        schedules = []
        for _ in range(2):
            with RetryingClient(port=port, attempts=3,
                                breaker=CircuitBreaker()) as client:
                with pytest.raises(ServeError):
                    client.ping()
            schedules.append(list(delays))
            delays.clear()
        assert len(schedules[0]) == len(schedules[1]) == 2
        assert schedules[0] != schedules[1]

    def test_half_open_trial_heals_against_a_live_server(self):
        def scenario(host, port):
            clock = FakeClock()
            breaker = open_breaker(clock)  # open it by hand
            clock.advance(RESET_TIMEOUT)
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
