"""The data plane pays one CRC pass per chunk, and still catches rot.

A chunk's CRC is computed once, at encode, and memoized on its
``Payload``.  The server's ingest check, its verify-on-read and the
client's response check all reuse that memo, because a slab item keeps
the ``Payload`` it was stored from and replies with it while it still
holds the very same bytes object.  Anything that changes the bytes
installs a new object, so it pays a real CRC and is detected.
"""

import random
import zlib

import pytest

from repro import Payload, build_cluster
from repro.faults.engine import ChaosEngine
from repro.network.fabric import FaultAction
from repro.resilience.erasure import chunk_key

KEYS = ["bulk-%02d" % i for i in range(48)]


def _run(cluster, gen):
    box = {}

    def runner():
        box["value"] = yield from gen

    cluster.sim.process(runner())
    cluster.run()
    return box["value"]


@pytest.fixture
def crc_calls(monkeypatch):
    """Count every ``zlib.crc32`` pass the program makes."""
    calls = []
    real = zlib.crc32

    def counting(data, *args):
        calls.append(len(data))
        return real(data, *args)

    monkeypatch.setattr(zlib, "crc32", counting)
    return calls


class TestOneCrcPerChunk:
    def test_fixed_mix(self, crc_calls):
        """6-server Era-CE-CD RS(3,2): 48 ~256 KiB values Set, read back,
        then read again with two data holders down.  The parent path made
        816 CRC passes here (240 at encode, 288 server verifies, 288
        client response checks); one per chunk is 48 x 5 = 240."""
        cluster = build_cluster(scheme="era-ce-cd", servers=6, k=3, m=2)
        client = cluster.add_client()
        rng = random.Random(7)
        values = {key: rng.randbytes(262144 + i) for i, key in enumerate(KEYS)}
        got = []

        def body():
            for key, value in values.items():
                assert (yield from client.set(key, Payload.from_bytes(value)))
            for key in values:
                got.append((yield from client.get(key)))
            cluster.fail_servers(["server-1", "server-2"])
            for key in values:
                got.append((yield from client.get(key)))

        cluster.sim.process(body())
        cluster.run()
        assert [bytes(p.data) for p in got] == list(values.values()) * 2
        assert len(crc_calls) == 240
        # host work only: the virtual clock and the engine are untouched
        assert cluster.sim.now == 0.02147371330513386
        assert cluster.sim.processed_events == 3103


def _stored(cluster, data=bytes(range(256)) * 64):
    """Set one value; returns ``(client, data, holder, ckey)`` for its
    data chunk 0."""
    client = cluster.add_client()
    assert _run(cluster, client.set("k", Payload.from_bytes(data)))
    ckey = chunk_key("k", 0)
    holder = next(s for s in cluster.servers.values() if s.cache.peek(ckey))
    return client, data, holder, ckey


class TestRotIsStillDetected:
    def test_corrupt_item(self):
        cluster = build_cluster(scheme="era-ce-cd", servers=5)
        client, data, holder, ckey = _stored(cluster)
        assert holder.corrupt_item(ckey, byte_offset=7)
        value = _run(cluster, client.get("k"))
        assert value.data == data
        assert holder.corruption_detected == 1

    def test_direct_data_replacement(self):
        cluster = build_cluster(scheme="era-ce-cd", servers=5)
        client, data, holder, ckey = _stored(cluster)
        item = holder.cache.peek(ckey)
        rotten = bytearray(item.data)
        rotten[0] ^= 0x01
        item.data = bytes(rotten)
        value = _run(cluster, client.get("k"))
        assert value.data == data
        assert holder.corruption_detected == 1

    def test_unchanged_item_replies_with_its_stored_payload(self, crc_calls):
        cluster = build_cluster(scheme="era-ce-cd", servers=5)
        client, data, holder, ckey = _stored(cluster)
        item = holder.cache.peek(ckey)
        assert item.payload() is item.payload()
        before = len(crc_calls)
        assert _run(cluster, client.get("k")).data == data
        assert len(crc_calls) == before  # verify + response check: memo hits

    def test_bit_flip_on_a_get_response(self):
        cluster = build_cluster(scheme="era-ce-cd", servers=5)
        client, data, _holder, _ckey = _stored(cluster)
        cluster.fabric.add_interceptor(_CorruptFirstResponse())
        value = _run(cluster, client.get("k"))
        assert value.data == data
        assert cluster.metrics.counter("client.corrupt_responses").value == 1


class _CorruptFirstResponse:
    """Flip one bit of the first data-bearing response (a fresh copy)."""

    def __init__(self):
        self.done = False

    def on_message(self, src, dst, size=0, payload=None, tag="", **kwargs):
        value = getattr(payload, "value", None)
        if self.done or tag != "resp" or value is None or not value.has_data:
            return None
        self.done = True
        action = FaultAction()
        action.mutate = ChaosEngine._corrupter(3, 5)
        return action
