"""ReadRepairQueue: bounded, metered, brownout-sheddable write-backs."""

import pytest

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.overload import BrownoutController, LoadLevel
from repro.overload.repair import ReadRepairQueue

MIB = 1024 * 1024


@pytest.fixture
def cluster():
    return build_cluster(
        scheme="era-ce-cd", servers=5, k=3, m=2, memory_per_server=64 * MIB
    )


def drive(cluster):
    cluster.run()


class TestMeteredQueue:
    def test_submit_sends_and_counts_completion(self, cluster):
        client = cluster.add_client()
        server = next(iter(cluster.servers))
        ok = client.read_repair.submit(
            server, "rr#0", Payload.sized(4096), {}
        )
        assert ok
        assert client.metrics.counter("client.read_repair.enqueued").value == 1
        drive(cluster)
        assert (
            client.metrics.counter("client.read_repair.completed").value == 1
        )
        assert cluster.servers[server].cache.peek("rr#0") is not None

    def test_budget_overflow_dropped_and_counted(self, cluster):
        client = cluster.add_client()
        queue = ReadRepairQueue(client, budget=2)
        server = next(iter(cluster.servers))
        payload = Payload.sized(1024)
        assert queue.submit(server, "a", payload, {})
        assert queue.submit(server, "b", payload, {})
        assert not queue.submit(server, "c", payload, {})
        assert queue.dropped.value == 1
        assert queue.depth == 2

    def test_repairs_ride_the_background_lane(self, cluster):
        client = cluster.add_client()
        captured = {}
        original = client.request

        def spy(dst, op, key, value=None, meta=None, **kwargs):
            captured.update(meta or {})
            return original(dst, op, key, value=value, meta=meta, **kwargs)

        client.request = spy
        server = next(iter(cluster.servers))
        client.read_repair.submit(server, "rr#1", Payload.sized(1024), {})
        drive(cluster)
        assert captured.get("lane") == "bg"


class TestBrownoutShedding:
    def make_queue(self, cluster, budget=16):
        client = cluster.add_client()
        brownout = BrownoutController(cluster.sim)
        queue = ReadRepairQueue(client, budget=budget, brownout=brownout)
        server = next(iter(cluster.servers))
        return client, brownout, queue, server

    def test_overload_rejects_new_submits(self, cluster):
        _client, brownout, queue, server = self.make_queue(cluster)
        brownout._set_level(LoadLevel.OVERLOAD)
        assert not queue.submit(server, "k", Payload.sized(1024), {})
        assert queue.dropped.value >= 1

    def test_elevated_defers_until_normal(self, cluster):
        client, brownout, queue, server = self.make_queue(cluster)
        brownout._set_level(LoadLevel.ELEVATED)
        assert queue.submit(server, "rr#2", Payload.sized(1024), {})
        drive(cluster)
        # gate closed: the drainer parks on it, nothing is sent
        assert queue.completed.value == 0
        brownout._set_level(LoadLevel.NORMAL)
        drive(cluster)
        assert queue.completed.value == 1
        assert cluster.servers[server].cache.peek("rr#2") is not None

    def test_overload_drops_already_queued_repairs(self, cluster):
        _client, brownout, queue, server = self.make_queue(cluster)
        brownout._set_level(LoadLevel.ELEVATED)
        payload = Payload.sized(1024)
        queue.submit(server, "a", payload, {})
        queue.submit(server, "b", payload, {})
        before = queue.dropped.value
        brownout._set_level(LoadLevel.OVERLOAD)
        assert queue.depth == 0
        assert queue.dropped.value == before + 2
