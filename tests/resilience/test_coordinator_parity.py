"""One coordinator: the four Era placements run the same set fan-out and
gather, whoever coordinates them.

A client (CE/CD) or a server (SE/SD) drives the scheme's set and gather
code.  Same seed, same values: every placement must leave the same
chunks on the same holders, and a degraded Get — one holder crashed, the
SD coordinator's own chunk rotted — must decode the same bytes.
"""

import random

import pytest

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.resilience.erasure import chunk_key

MIB = 1024 * 1024
SCHEMES = ("era-ce-cd", "era-se-sd", "era-se-cd", "era-ce-sd")
_rng = random.Random(38)
VALUES = {"parity-%d" % i: _rng.randbytes(3000 + 97 * i) for i in range(6)}


def loaded(scheme, keys):
    cluster = build_cluster(
        scheme=scheme, servers=6, k=3, m=2, memory_per_server=64 * MIB
    )
    client = cluster.add_client()

    def set_all():
        for key in keys:
            ok = yield from client.set(key, Payload.from_bytes(VALUES[key]))
            assert ok

    cluster.sim.run(cluster.sim.process(set_all()))
    return cluster, client


def stored_chunks(scheme):
    """Every chunk the Sets stored: ``(holder, storage key, ver,
    data_len, crc)``."""
    cluster, _client = loaded(scheme, VALUES)
    return [
        (name, chunk_key(key, index), item.meta.get("ver"),
         item.meta.get("data_len"), item.meta.get("crc"))
        for name, server in sorted(cluster.servers.items())
        for key in VALUES
        for index in range(cluster.scheme.n)
        for item in [server.cache.peek(chunk_key(key, index))]
        if item is not None
    ]


def degraded_get(scheme, key):
    """Get ``key`` with data chunk 2's holder crashed and chunk 0 rotted
    on the first placement server (the SD coordinator)."""
    cluster, client = loaded(scheme, [key])
    placement = cluster.scheme.placement(cluster.ring, key)
    assert cluster.servers[placement[0]].corrupt_item(
        chunk_key(key, 0), byte_offset=5
    )
    cluster.servers[placement[2]].fail()

    def get():
        return (yield from client.get(key))

    value = cluster.sim.run(cluster.sim.process(get()))
    # an SD coordinator reads its own chunk in place and finds the rot
    local_reads = cluster.metrics.counter("reads.local_corrupt").value
    assert local_reads == (1 if scheme.endswith("-sd") else 0)
    return value.data


@pytest.fixture(scope="module")
def client_coordinated():
    return stored_chunks("era-ce-cd")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_set_stores_the_same_chunks(scheme, client_coordinated):
    chunks = stored_chunks(scheme)
    assert len(chunks) == 5 * len(VALUES)
    assert chunks == client_coordinated


@pytest.mark.parametrize("scheme", SCHEMES)
def test_degraded_get_decodes_the_same_bytes(scheme):
    for key, data in VALUES.items():
        assert degraded_get(scheme, key) == data
