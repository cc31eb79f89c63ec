"""The full non-blocking API surface: iset/iget/imget/test/wait/wait_any/drain.

Complements tests/store/test_arpe.py (engine mechanics) with API-level
coverage across resilience schemes and the typed-result contract.
"""

import pytest

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.store.arpe import RequestHandle
from repro.store.result import ErrorCode, OpResult

KIB = 1024
MIB = 1024 * 1024

SCHEMES = ("no-rep", "async-rep", "era-ce-cd", "era-se-cd", "era-se-sd")


def make_cluster(scheme):
    return build_cluster(
        scheme=scheme, servers=5, memory_per_server=256 * MIB
    )


def drive(cluster, gen):
    return cluster.sim.run(cluster.sim.process(gen))


@pytest.mark.parametrize("scheme", SCHEMES)
class TestAcrossSchemes:
    def test_iset_iget_round_trip(self, scheme):
        cluster = make_cluster(scheme)
        client = cluster.add_client()

        def body():
            set_handle = client.iset("k", Payload.from_bytes(b"x" * 4096))
            yield client.wait([set_handle])
            get_handle = client.iget("k")
            yield client.wait([get_handle])
            return set_handle, get_handle

        set_handle, get_handle = drive(cluster, body())
        assert isinstance(set_handle.result, OpResult)
        assert set_handle.result.ok
        assert isinstance(get_handle.result, OpResult)
        assert get_handle.result.ok
        assert get_handle.result.value.data == b"x" * 4096

    def test_miss_is_typed_not_found(self, scheme):
        cluster = make_cluster(scheme)
        client = cluster.add_client()

        def body():
            handle = client.iget("ghost")
            yield client.wait([handle])
            return handle

        handle = drive(cluster, body())
        assert not handle.result.ok
        assert handle.result.error is ErrorCode.NOT_FOUND

    def test_imget_bulk(self, scheme):
        cluster = make_cluster(scheme)
        client = cluster.add_client()
        keys = ["k%d" % i for i in range(6)]

        def body():
            sets = [client.iset(k, Payload.sized(8 * KIB)) for k in keys]
            yield client.wait(sets)
            handles = client.imget(keys + ["ghost"])
            yield client.wait(handles)
            return handles

        handles = drive(cluster, body())
        assert len(handles) == 7
        assert [h.key for h in handles] == keys + ["ghost"]
        assert all(h.result.ok for h in handles[:-1])
        assert handles[-1].result.error is ErrorCode.NOT_FOUND

    def test_wait_any_returns_a_completed_handle(self, scheme):
        cluster = make_cluster(scheme)
        client = cluster.add_client()

        def body():
            handles = [client.iset("k%d" % i, Payload.sized(KIB)) for i in range(4)]
            first = yield client.wait_any(handles)
            return first, handles

        first, handles = drive(cluster, body())
        assert isinstance(first, RequestHandle)
        assert first in handles
        assert first.completed and first.result.ok

    def test_drain_settles_everything(self, scheme):
        cluster = make_cluster(scheme)
        client = cluster.add_client()

        def body():
            handles = [client.iset("k%d" % i, Payload.sized(KIB)) for i in range(6)]
            yield from client.engine.drain()
            return handles

        handles = drive(cluster, body())
        assert client.engine.in_flight == 0
        assert all(h.completed for h in handles)


class TestHandleContract:
    def test_in_flight_handle_has_no_result(self):
        cluster = make_cluster("no-rep")
        client = cluster.add_client()
        handle = client.iset("k", Payload.sized(KIB))
        assert handle.result is None
        assert not handle.completed

    def test_done_fires_with_the_result(self):
        cluster = make_cluster("era-ce-cd")
        client = cluster.add_client()

        def body():
            set_handle = client.iset("k", Payload.from_bytes(b"abc"))
            set_result = yield set_handle.done
            get_handle = client.iget("k")
            get_result = yield get_handle.done
            both = yield client.wait([set_handle, get_handle])
            return set_handle, set_result, get_handle, get_result, both

        set_handle, set_result, get_handle, get_result, both = drive(
            cluster, body()
        )
        assert set_result is set_handle.result and set_result.ok
        assert get_result is get_handle.result
        assert get_result.value.data == b"abc"
        assert both == [set_result, get_result]

    def test_legacy_tuple_style_accessors_are_gone(self):
        # PR-1's delegating shims (handle.ok/.error/.error_code/.value)
        # were removed: the typed result is the only completion API.
        cluster = make_cluster("no-rep")
        client = cluster.add_client()

        def body():
            hit = client.iset("k", Payload.from_bytes(b"abc"))
            yield client.wait([hit])
            got = client.iget("k")
            miss = client.iget("ghost")
            yield client.wait([got, miss])
            return got, miss

        got, miss = drive(cluster, body())
        for legacy in ("ok", "error", "error_code", "value"):
            assert not hasattr(got, legacy)
        assert got.result.ok is True
        assert got.result.value.data == b"abc"
        assert miss.result.error_text == "NOT_FOUND"
        assert miss.result.error is ErrorCode.NOT_FOUND

    def test_test_and_wait_mixed_usage(self):
        cluster = make_cluster("era-ce-cd")
        client = cluster.add_client()

        def body():
            handles = [client.iset("k%d" % i, Payload.sized(KIB)) for i in range(3)]
            assert not any(client.test(h) for h in handles)
            yield client.wait(handles[:2])
            assert client.test(handles[0]) and client.test(handles[1])
            yield client.wait(handles)
            return all(client.test(h) for h in handles)

        assert drive(cluster, body()) is True


class TestBlockingUnwrap:
    """The blocking API keeps its historical conventions over OpResult."""

    def test_set_returns_true(self):
        cluster = make_cluster("era-ce-cd")
        client = cluster.add_client()

        def body():
            return (yield from client.set("k", Payload.sized(KIB)))

        assert drive(cluster, body()) is True

    def test_get_miss_returns_none(self):
        cluster = make_cluster("era-ce-cd")
        client = cluster.add_client()

        def body():
            return (yield from client.get("ghost"))

        assert drive(cluster, body()) is None

    def test_hard_failure_raises_with_code(self):
        from repro.store.client import KVStoreError

        cluster = make_cluster("no-rep")
        client = cluster.add_client()

        def body():
            yield from client.set("k", Payload.sized(KIB))
            cluster.fail_servers([cluster.ring.primary("k")])
            return (yield from client.get("k"))

        with pytest.raises(KVStoreError) as exc_info:
            drive(cluster, body())
        assert exc_info.value.code is ErrorCode.UNREACHABLE

    def test_mget_maps_misses_to_none(self):
        cluster = make_cluster("era-ce-cd")
        client = cluster.add_client()

        def body():
            yield from client.set("a", Payload.from_bytes(b"1"))
            yield from client.set("b", Payload.from_bytes(b"2"))
            return (yield from client.mget(["a", "b", "ghost"]))

        values = drive(cluster, body())
        assert values["a"].data == b"1"
        assert values["b"].data == b"2"
        assert values["ghost"] is None
