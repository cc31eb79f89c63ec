"""Request-path hardening: timeouts, retries, CRCs, hedging, stale writes."""

import pytest

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.network.fabric import FaultAction
from repro.resilience.coordinator import ServerCoordinator
from repro.resilience.erasure import chunk_key
from repro.store.client import KVStoreError
from repro.store.policy import (
    BACKOFF_BASE,
    BACKOFF_MAX,
    DEFAULT_POLICY,
    HARDENED_POLICY,
    AdaptiveCutoff,
    RetryPolicy,
)
from repro.store.result import ErrorCode
from repro.store.slab import STALE


def _cluster(**kwargs):
    kwargs.setdefault("scheme", "era-ce-cd")
    kwargs.setdefault("servers", 5)
    kwargs.setdefault("k", 3)
    kwargs.setdefault("m", 2)
    return build_cluster(**kwargs)


def _run(cluster, gen):
    box = {}

    def runner():
        try:
            box["value"] = yield from gen
        except KVStoreError as exc:
            box["error"] = exc

    cluster.sim.process(runner())
    cluster.run()
    return box


class TestRetryPolicy:
    def test_default_policy_is_all_off(self):
        assert DEFAULT_POLICY.request_timeout is None
        assert DEFAULT_POLICY.op_deadline is None
        assert DEFAULT_POLICY.max_retries == 0
        assert not DEFAULT_POLICY.hedge
        assert not DEFAULT_POLICY.durable_writes

    def test_hardened_policy_turns_everything_on(self):
        assert HARDENED_POLICY.request_timeout is not None
        assert HARDENED_POLICY.max_retries > 0
        assert HARDENED_POLICY.hedge
        assert HARDENED_POLICY.durable_writes

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy()
        assert policy.backoff(0) == 0.0
        assert policy.backoff(1) == pytest.approx(BACKOFF_BASE)
        assert policy.backoff(2) == pytest.approx(2 * BACKOFF_BASE)
        assert policy.backoff(3) == pytest.approx(4 * BACKOFF_BASE)
        assert policy.backoff(20) == pytest.approx(BACKOFF_MAX)  # capped


class TestAdaptiveCutoff:
    def test_no_cutoff_until_warm(self):
        cutoff = AdaptiveCutoff(min_samples=5)
        for _ in range(4):
            cutoff.observe(1.0)
        assert cutoff.cutoff() is None
        cutoff.observe(1.0)
        assert cutoff.cutoff() is not None

    def test_cutoff_tracks_percentile_times_multiplier(self):
        cutoff = AdaptiveCutoff(
            percentile=0.95, min_samples=10, multiplier=1.5
        )
        for i in range(100):
            cutoff.observe(float(i + 1))
        assert cutoff.cutoff() == pytest.approx(95.0 * 1.5, rel=0.02)

    def test_window_is_bounded(self):
        cutoff = AdaptiveCutoff(min_samples=1, window=8)
        for i in range(100):
            cutoff.observe(float(i))
        assert len(cutoff._samples) == 8

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            AdaptiveCutoff(percentile=0.0)
        with pytest.raises(ValueError):
            AdaptiveCutoff(percentile=1.5)

    def test_constant_stream_cutoff_is_exact(self):
        cutoff = AdaptiveCutoff(min_samples=5, multiplier=2.0)
        for _ in range(30):
            cutoff.observe(0.004)
        assert cutoff.cutoff() == pytest.approx(0.004 * 2.0)

    def test_saturated_ring_forgets_old_samples(self):
        cutoff = AdaptiveCutoff(min_samples=1, multiplier=1.5, window=8)
        for _ in range(50):
            cutoff.observe(0.001)
        for _ in range(8):
            cutoff.observe(1.0)  # the ring now holds only slow samples
        assert cutoff.observed == 58  # but every observation was counted
        assert cutoff.cutoff() == pytest.approx(1.0 * 1.5)

    def test_max_percentile_at_saturation(self):
        cutoff = AdaptiveCutoff(
            percentile=1.0, min_samples=1, multiplier=1.5, window=16
        )
        for i in range(64):
            cutoff.observe(float(i))
        # the ring holds 48..63; percentile 1.0 is the window maximum
        assert cutoff.cutoff() == pytest.approx(63.0 * 1.5)


class _Blackhole:
    """Interceptor dropping every two-sided message: a silent network."""

    def on_message(self, src, dst, **kwargs):
        return FaultAction(drop=True)


class TestTimeoutsAndRetries:
    def test_blackholed_request_times_out_with_typed_error(self):
        cluster = _cluster()
        client = cluster.add_client(
            policy=RetryPolicy(
                request_timeout=0.001, op_deadline=0.004, max_retries=8
            )
        )
        cluster.fabric.add_interceptor(_Blackhole())
        box = _run(cluster, client.get("nope"))
        assert "error" in box
        assert box["error"].code is ErrorCode.TIMEOUT
        assert cluster.metrics.counter("client.request_timeouts").value > 0

    def test_retries_are_counted_and_bounded(self):
        cluster = _cluster()
        client = cluster.add_client(
            policy=RetryPolicy(request_timeout=0.001, max_retries=3)
        )
        cluster.fabric.add_interceptor(_Blackhole())
        box = _run(cluster, client.get("nope"))
        assert "error" in box
        assert cluster.metrics.counter("client.retries").value == 3

    def test_no_timeout_without_policy(self):
        # sanity: the default policy still completes ops normally
        cluster = _cluster()
        client = cluster.add_client()
        assert _run(cluster, client.set("k", Payload.sized(4096)))["value"]
        value = _run(cluster, client.get("k"))["value"]
        assert value is not None and value.size == 4096


class _CorruptFirstResponse:
    """Flip a bit in the first data-bearing server response, then pass."""

    def __init__(self):
        self.done = False

    def on_message(self, src, dst, size=0, payload=None, tag="", **kwargs):
        value = getattr(payload, "value", None)
        if (
            self.done
            or tag != "resp"
            or value is None
            or not value.has_data
        ):
            return None
        self.done = True
        from repro.faults.engine import ChaosEngine

        action = FaultAction()
        action.mutate = ChaosEngine._corrupter(0, 0)
        return action


class TestResponseIntegrity:
    def test_corrupt_response_detected_and_refetched(self):
        cluster = _cluster()
        client = cluster.add_client(policy=HARDENED_POLICY)
        data = bytes(range(256)) * 64
        assert _run(
            cluster, client.set("k", Payload.from_bytes(data))
        )["value"]
        cluster.fabric.add_interceptor(_CorruptFirstResponse())
        value = _run(cluster, client.get("k"))["value"]
        assert value.data == data  # bytes survived the flip
        assert cluster.metrics.counter("client.corrupt_responses").value == 1
        assert cluster.metrics.counter("reads.corrupt_refetch").value >= 1


class TestStaleWriteGuard:
    def test_server_drops_older_version(self):
        cluster = _cluster()
        server = cluster.servers["server-0"]
        value = Payload.from_bytes(b"x" * 64)
        assert server.store_item("k", value, meta={"ver": 5}) is True
        assert server.store_item("k", value, meta={"ver": 4}) is STALE
        assert server.cache.peek("k").meta["ver"] == 5
        assert server.store_item("k", value, meta={"ver": 5}) is True
        assert server.store_item("k", value, meta={"ver": 6}) is True
        assert server.store_item("new-key", value, meta={"ver": 1}) is True
        assert cluster.metrics.counter("writes.stale_dropped").value == 1

    def test_default_era_se_cd_cluster_drops_older_chunks(self):
        # no feature turns the guard on: a remote holder's ``set`` and the
        # coordinator's own ``store_local`` both refuse an older version
        cluster = _cluster(scheme="era-se-cd")
        client = cluster.add_client()
        assert _run(cluster, client.set("k", Payload.sized(6144)))["value"]
        coordinator, holder = cluster.scheme.placement(cluster.ring, "k")[:2]
        local = cluster.servers[coordinator].cache.peek(chunk_key("k", 0))
        remote = cluster.servers[holder].cache.peek(chunk_key("k", 1))
        older = {"data_len": 6144, "ver": remote.meta["ver"] - 1}
        stale = cluster.metrics.counter("writes.stale_dropped")

        def replay():
            response = yield client.request(
                holder, "set", chunk_key("k", 1), Payload.sized(2048), older
            )
            assert response.ok and response.meta["stale"]
            response = yield from ServerCoordinator(
                cluster.servers[coordinator], cluster.ring
            ).store_local(chunk_key("k", 0), Payload.sized(2048), older)
            assert response.ok and response.meta["stale"]

        _run(cluster, replay())
        assert stale.value == 2
        assert cluster.servers[holder].cache.peek(chunk_key("k", 1)) is remote
        assert cluster.servers[coordinator].cache.peek(chunk_key("k", 0)) is local

    def test_scheme_ghost_write_guard(self):
        cluster = _cluster()
        scheme = cluster.scheme
        assert scheme._begin_write("k", 10)
        assert scheme._begin_write("k", 11)  # newer: fine
        assert not scheme._begin_write("k", 10)  # delayed ghost: refused
        assert scheme._begin_write("k", 11)  # same-version retry: fine
