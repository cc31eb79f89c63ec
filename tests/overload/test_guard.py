"""OverloadGuard wired into a real client: fast-fails, AIMD, brownout."""

import dataclasses

import pytest

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.faults.engine import ChaosEngine
from repro.faults.profiles import FaultProfile
from repro.network.fabric import FaultAction
from repro.overload import BreakerState, LoadLevel
from repro.resilience.erasure import chunk_key
from repro.store import protocol
from repro.store.client import KVStoreError
from repro.store.policy import HARDENED_POLICY, OVERLOAD_POLICY, RetryPolicy
from repro.store.result import ErrorCode, OpResult

MIB = 1024 * 1024

GUARDED = RetryPolicy(
    request_timeout=0.01, max_retries=2, overload=OVERLOAD_POLICY
)


def _cluster(**kwargs):
    kwargs.setdefault("scheme", "era-ce-cd")
    kwargs.setdefault("servers", 5)
    kwargs.setdefault("k", 3)
    kwargs.setdefault("m", 2)
    kwargs.setdefault("memory_per_server", 64 * MIB)
    return build_cluster(**kwargs)


def _run(cluster, gen):
    box = {}

    def runner():
        box["value"] = yield from gen

    cluster.sim.process(runner())
    cluster.run()
    return box


class _FakeResponse:
    def __init__(self, error="", meta=None, ok=True):
        self.error = error
        self.meta = meta or {}
        self.ok = ok


class TestGuardWiring:
    def test_guard_only_with_overload_policy(self):
        cluster = _cluster()
        assert cluster.add_client().guard is None
        guarded = cluster.add_client(policy=GUARDED)
        assert guarded.guard is not None
        assert guarded.guard.aimd is not None

    def test_local_reject_synthesizes_typed_busy(self):
        cluster = _cluster()
        client = cluster.add_client(policy=GUARDED)
        dst = next(iter(cluster.servers))
        client.guard._suspend_until[dst] = cluster.sim.now + 1.0
        waiter = client.request(dst, "get", "k")
        assert waiter.triggered  # resolved locally, nothing on the wire
        response = waiter.value
        assert response.error == "SERVER_BUSY"
        assert response.meta["breaker"] is True
        assert response.meta["retry_after"] > 0
        assert client.metrics.counter("client.breaker.fast_fails").value == 1

    def test_local_reject_is_not_breaker_evidence(self):
        cluster = _cluster()
        client = cluster.add_client(policy=GUARDED)
        dst = next(iter(cluster.servers))
        guard = client.guard
        guard._suspend_until[dst] = cluster.sim.now + 1.0
        waiter = client.request(dst, "get", "k")
        guard.observe_response(dst, waiter.value)
        breaker = guard.breaker(dst)
        assert breaker.state == BreakerState.CLOSED
        assert len(breaker._outcomes) == 0  # nothing recorded

    def test_remote_busy_feeds_breaker_brownout_and_suspends(self):
        cluster = _cluster()
        client = cluster.add_client(policy=GUARDED)
        guard = client.guard
        busy = _FakeResponse(
            error="SERVER_BUSY",
            meta={"qd": 40.0, "retry_after": 0.05},
            ok=False,
        )
        guard.observe_response("server-0", busy)
        assert guard.brownout._qd_ema > 0.0
        assert len(guard.breaker("server-0")._outcomes) == 1
        action, hint = guard.before_send("server-0")
        assert action == "reject"  # suspended by the retry_after hint
        assert 0.0 < hint <= 0.05

    def test_aimd_failure_shrinks_the_arpe_window(self):
        cluster = _cluster()
        client = cluster.add_client(window=16, policy=GUARDED)
        assert client.engine.window.capacity == 16
        client.guard.aimd.on_failure()
        assert client.engine.window.capacity == 8

    def test_queue_depth_hint_piggybacks_on_responses(self):
        cluster = _cluster()
        cluster.config.with_admission_control()
        client = cluster.add_client(policy=GUARDED)
        seen = []
        brownout = client.guard.brownout
        original = brownout.note_queue_depth
        brownout.note_queue_depth = lambda depth: (
            seen.append(depth),
            original(depth),
        )
        assert _run(cluster, client.set("k", Payload.sized(16 * 1024)))[
            "value"
        ]
        # every admitted chunk's response carried a ``qd`` backlog hint
        assert len(seen) > 0
        assert all(depth >= 0 for depth in seen)


class TestBrownoutRetryShedding:
    def _busy_attempt(self):
        if False:  # pragma: no cover - generator shape only
            yield
        return OpResult.failure(ErrorCode.SERVER_BUSY, "flooded")

    def test_overload_collapses_the_retry_budget(self):
        cluster = _cluster()
        client = cluster.add_client(policy=GUARDED)
        client.guard.brownout._set_level(LoadLevel.OVERLOAD)
        box = _run(
            cluster, client._run_with_retries(self._busy_attempt)
        )
        assert box["value"].error is ErrorCode.SERVER_BUSY
        assert client.metrics.counter("client.retries").value == 0
        assert client.metrics.counter("client.retries_shed").value == 1

    def test_normal_level_keeps_retrying(self):
        cluster = _cluster()
        client = cluster.add_client(policy=GUARDED)
        box = _run(
            cluster, client._run_with_retries(self._busy_attempt)
        )
        assert box["value"].error is ErrorCode.SERVER_BUSY
        assert client.metrics.counter("client.retries").value == 2
        assert client.metrics.counter("client.retries_shed").value == 0


class TestCancellation:
    def test_first_k_flood_cancels_the_losers(self):
        cluster = _cluster()
        client = cluster.add_client(policy=GUARDED)
        _run(cluster, client.set("k", Payload.sized(8 * 1024)))
        client.guard.brownout._set_level(LoadLevel.OVERLOAD)
        handle = client.iget("k")
        cluster.run()
        result = handle.result
        assert result.ok
        assert result.is_degraded
        assert "first-k" in result.degraded
        metrics = cluster.metrics
        assert metrics.counter("reads.first_k").value >= 1
        # n - k flood losers were abandoned and told to stand down
        assert metrics.counter("reads.abandoned_fetches").value >= 2
        assert metrics.counter("client.cancels_sent").value >= 2
        assert metrics.counter("server.cancels_received").value >= 2

    def test_primed_cancel_drops_the_request_at_delivery(self):
        cluster = _cluster()
        client = cluster.add_client(policy=GUARDED)
        dst = next(iter(cluster.servers))
        arrivals = protocol.Arrivals(cluster.sim)
        req_id = client.request(dst, "get", "kx", arrivals=arrivals)
        cluster.servers[dst].note_cancel(client.name, req_id)  # in flight
        cluster.run()
        # resolved by the request timeout
        assert arrivals.take([req_id]).error == protocol.ERR_TIMEOUT
        metrics = cluster.metrics
        assert metrics.counter("server.cancelled_drops").value == 1


    def test_cancel_of_a_served_hedge_loser_spares_the_next_fetch(self):
        cluster = _cluster()
        client = cluster.add_client(policy=HARDENED_POLICY)
        _run(cluster, client.set("k", Payload.sized(8 * 1024)))
        for _ in range(40):  # warm the adaptive hedge cutoff
            _run(cluster, client.get("k"))
        holder = cluster.scheme.chunk_servers(cluster.ring, "k")[0]
        # chunk 0's holder serves at once, but its answer is held on the
        # wire past the cutoff: the hedge wins, and the gather cancels a
        # fetch its holder has already served
        cluster.fabric.add_interceptor(_DelayFirstResponseFrom(holder))
        assert _run(cluster, client.get("k"))["value"] is not None
        metrics = cluster.metrics
        assert metrics.counter("reads.hedged").value == 1
        assert metrics.counter("server.cancels_received").value == 1
        # the cancel names the loser's request id, so the same client's
        # next fetch of that chunk is served, not swallowed until its
        # 0.25 s request timeout
        sent_at = cluster.sim.now
        arrivals = protocol.Arrivals(cluster.sim)
        req_id = client.request(
            holder, "get", chunk_key("k", 0), arrivals=arrivals
        )
        answered = {}

        def wait():
            yield arrivals.wait()
            answered["response"] = arrivals.take([req_id])
            answered["after"] = cluster.sim.now - sent_at

        cluster.sim.process(wait())
        cluster.run()
        assert answered["response"].ok
        assert answered["after"] < 1e-3
        assert metrics.counter("server.cancelled_drops").value == 0


class _DelayFirstResponseFrom:
    """Hold the first response ``server`` sends on the wire for 1 ms."""

    def __init__(self, server):
        self.server = server
        self.done = False

    def on_message(self, src, dst, size=0, payload=None, tag="", **kwargs):
        if self.done or tag != "resp" or src != self.server:
            return None
        self.done = True
        return FaultAction(delay=1e-3)


#: every two-sided message vanishes: requests time out, evidence mounts
_LOSSY = FaultProfile(name="lossy", drop_rate=0.95)


class TestBreakerUnderSeededChaos:
    def test_breaker_trips_and_recovers_around_a_lossy_episode(self):
        cluster = _cluster()
        policy = RetryPolicy(
            request_timeout=0.002,
            max_retries=0,
            overload=dataclasses.replace(
                OVERLOAD_POLICY,
                breaker_window=8,
                breaker_threshold=4,
                breaker_cooldown=0.01,
                breaker_probes=2,
                aimd=False,
            ),
        )
        client = cluster.add_client(policy=policy)
        # installing the engine hooks the fabric interceptor immediately
        chaos = ChaosEngine(cluster, _LOSSY, seed=1234)

        def body():
            for i in range(30):
                try:
                    yield from client.set(
                        "k%d" % (i % 4), Payload.sized(2048)
                    )
                except KVStoreError:
                    pass  # timeouts/fast-fails are the point
                yield cluster.sim.timeout(0.001)

        _run(cluster, body())
        trips = client.metrics.counter("client.breaker.trips").value
        assert trips > 0
        fast_fails = client.metrics.counter(
            "client.breaker.fast_fails"
        ).value
        assert fast_fails > 0

        chaos.uninstall()  # the network heals

        def recover():
            # outlive the cooldown, then let the probes close the breaker
            for _ in range(40):
                yield cluster.sim.timeout(0.005)
                try:
                    yield from client.set("h", Payload.sized(2048))
                except KVStoreError:
                    pass  # half-open quota overflow still fast-fails

        _run(cluster, recover())
        states = {
            breaker.state for breaker in client.guard._breakers.values()
        }
        assert states == {BreakerState.CLOSED}
        transitions = [
            (old, new)
            for breaker in client.guard._breakers.values()
            for _t, old, new in breaker.history
        ]
        assert ("closed", "open") in transitions
        assert ("half_open", "closed") in transitions
