"""CircuitBreaker and AimdWindow unit behavior."""

import pytest

from repro.overload import AimdWindow, BreakerState, CircuitBreaker
from repro.simulation import Resource, Simulator


@pytest.fixture
def sim():
    return Simulator()


def advance(sim, dt):
    def waiter():
        yield sim.timeout(dt)

    sim.run(sim.process(waiter()))


def _trip(breaker):
    """Feed enough failures to trip a default-shaped breaker OPEN."""
    for _ in range(breaker.threshold):
        breaker.record(True)
    assert breaker.state == BreakerState.OPEN


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self, sim):
        breaker = CircuitBreaker(sim)
        assert breaker.state == BreakerState.CLOSED
        assert breaker.allow()
        assert breaker.retry_after() == 0.0

    def test_no_trip_below_threshold(self, sim):
        breaker = CircuitBreaker(sim, threshold=10)
        for _ in range(9):
            breaker.record(True)
        assert breaker.state == BreakerState.CLOSED

    def test_trips_at_failure_ratio(self, sim):
        breaker = CircuitBreaker(sim, window=16, threshold=10, ratio=0.5)
        for _ in range(5):
            breaker.record(False)
        for _ in range(5):
            breaker.record(True)
        # 10 outcomes, half failures: exactly at ratio -> OPEN
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.retry_after() > 0.0

    def test_mixed_healthy_traffic_stays_closed(self, sim):
        breaker = CircuitBreaker(sim, window=16, threshold=10, ratio=0.5)
        for i in range(64):
            breaker.record(i % 4 == 0)  # 25% failures
        assert breaker.state == BreakerState.CLOSED

    def test_cooldown_flips_to_half_open_with_probe_quota(self, sim):
        breaker = CircuitBreaker(sim, cooldown=0.05, probes=2)
        _trip(breaker)
        assert not breaker.allow()  # still cooling down
        advance(sim, 0.06)
        assert breaker.allow()  # flips to HALF_OPEN, probe 1
        assert breaker.state == BreakerState.HALF_OPEN
        assert breaker.allow()  # probe 2
        assert not breaker.allow()  # quota exhausted

    def test_successful_probes_close_the_breaker(self, sim):
        breaker = CircuitBreaker(sim, cooldown=0.05, probes=2)
        _trip(breaker)
        advance(sim, 0.06)
        assert breaker.allow()
        breaker.record(False)
        assert breaker.state == BreakerState.HALF_OPEN
        breaker.record(False)
        assert breaker.state == BreakerState.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self, sim):
        breaker = CircuitBreaker(sim, cooldown=0.05, probes=3)
        _trip(breaker)
        advance(sim, 0.06)
        assert breaker.allow()
        breaker.record(True)
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow()

    def test_straggler_outcome_while_open_is_ignored(self, sim):
        breaker = CircuitBreaker(sim)
        _trip(breaker)
        breaker.record(False)  # late response from before the trip
        assert breaker.state == BreakerState.OPEN

    def test_history_records_transitions(self, sim):
        states = []
        breaker = CircuitBreaker(
            sim, cooldown=0.05, probes=1,
            on_transition=lambda old, new: states.append((old, new)),
        )
        _trip(breaker)
        advance(sim, 0.06)
        breaker.allow()
        breaker.record(False)
        assert states == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]


class TestAimdWindow:
    def test_multiplicative_decrease_with_floor(self, sim):
        resource = Resource(sim, 32)
        aimd = AimdWindow(sim, resource, decrease=0.5, interval=0.005)
        aimd.on_failure()
        assert aimd.window == 16
        for _ in range(20):
            advance(sim, 0.01)
            aimd.on_failure()
        assert aimd.window == 1  # floored, never zero
        assert aimd.shrinks >= 5

    def test_decrease_at_most_once_per_interval(self, sim):
        resource = Resource(sim, 32)
        aimd = AimdWindow(sim, resource, decrease=0.5, interval=0.005)
        aimd.on_failure()
        aimd.on_failure()  # same instant: one burst, one shrink
        assert aimd.window == 16
        assert aimd.shrinks == 1

    def test_additive_increase_after_quiet_streak(self, sim):
        resource = Resource(sim, 32)
        aimd = AimdWindow(sim, resource, recovery=4, interval=0.005)
        aimd.on_failure()
        assert aimd.window == 16
        for _ in range(4):
            aimd.on_success()
        assert aimd.window == 17
        assert aimd.grows == 1

    def test_failure_resets_the_success_streak(self, sim):
        resource = Resource(sim, 8)
        aimd = AimdWindow(sim, resource, recovery=4, interval=0.005)
        aimd.on_failure()
        for _ in range(3):
            aimd.on_success()
        advance(sim, 0.01)
        aimd.on_failure()
        for _ in range(3):
            aimd.on_success()
        assert aimd.window == 2  # 8 -> 4 -> 2, never grew

    def test_growth_capped_at_ceiling(self, sim):
        resource = Resource(sim, 4)
        aimd = AimdWindow(sim, resource, recovery=1)
        for _ in range(50):
            aimd.on_success()
        assert aimd.window == 4  # never beyond construction-time capacity
