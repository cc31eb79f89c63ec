"""A rebuilt chunk owns exactly its bytes.

An encode hands out zero-copy views: data chunks slice the value, parity
chunks slice the kernel's one parity block.  A Set stores all of them,
so the shared buffers are fully used.  A rebuild keeps only the one or
two chunks that were lost; if those stayed views, each would pin the
whole decoded value or parity block for as long as it is stored.  Every
rebuilt chunk comes out of ``ErasureScheme.stamped_chunks``, so these
tests record what it returns along each path that rebuilds: crash
repair, read repair and a membership re-encode move.
"""

import random

import pytest

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.resilience.erasure import ErasureScheme, chunk_key
from repro.resilience.recovery import RepairManager

MIB = 1024 * 1024


def drive(cluster, gen):
    return cluster.sim.run(cluster.sim.process(gen))


def owns_its_bytes(chunk: Payload) -> bool:
    """``bytes`` of the chunk's length, or a view of a buffer exactly as
    long as the view."""
    data = chunk.data
    if isinstance(data, bytes):
        return len(data) == chunk.size
    return memoryview(data.obj).nbytes == data.nbytes == chunk.size


@pytest.fixture
def stamped(monkeypatch):
    """Every chunk ``stamped_chunks`` returns, in call order."""
    chunks = []
    real = ErasureScheme.stamped_chunks

    def recording(self, value, ver, indices):
        out = real(self, value, ver, indices)
        chunks.extend(chunk for chunk, _meta in out.values())
        return out

    monkeypatch.setattr(ErasureScheme, "stamped_chunks", recording)
    return chunks


def store(cluster, client, values):
    def body():
        for key, value in values.items():
            assert (yield from client.set(key, Payload.from_bytes(value)))

    drive(cluster, body())


def read_all(cluster, client, keys):
    def body():
        got = []
        for key in keys:
            got.append(bytes((yield from client.get(key)).data))
        return got

    return drive(cluster, body())


def test_double_failure_crash_repair(stamped):
    cluster = build_cluster(scheme="era-ce-cd", servers=6, k=3, m=2)
    client = cluster.add_client()
    rng = random.Random(7)
    values = {"bulk-%02d" % i: rng.randbytes(65536 + i) for i in range(12)}
    store(cluster, client, values)
    victims = ["server-1", "server-2"]
    cluster.fail_servers(victims)
    cluster.recover_servers(victims)
    repair = RepairManager(cluster, cluster.scheme)
    for victim in victims:
        drive(cluster, repair.repair_server(victim, list(values)))
    assert repair.repaired_keys > 0
    assert stamped and all(owns_its_bytes(chunk) for chunk in stamped)
    # the owned copies are the right bytes: any two other servers may go
    cluster.fail_servers(["server-3", "server-4"])
    assert read_all(cluster, client, values) == list(values.values())


def test_read_repair_after_rot(stamped):
    cluster = build_cluster(
        scheme="era-ce-cd", servers=5, memory_per_server=64 * MIB
    )
    client = cluster.add_client()
    data = random.Random(3).randbytes(12_000)
    store(cluster, client, {"k": data})
    holders = cluster.scheme.chunk_servers(cluster.ring, "k")
    for index in (1, 3):  # one data chunk, one parity chunk
        assert cluster.servers[holders[index]].corrupt_item(chunk_key("k", index))
    assert read_all(cluster, client, ["k"]) == [data]
    assert cluster.metrics.counter("reads.read_repair").value == 2
    assert len(stamped) == 2
    assert all(owns_its_bytes(chunk) for chunk in stamped)
    cluster.run()  # let the read-repair queue write them back
    for index in (1, 3):
        restored = cluster.servers[holders[index]].cache.peek(chunk_key("k", index))
        assert owns_its_bytes(restored.payload())


def test_reencode_move(stamped):
    cluster = build_cluster(
        scheme="era-ce-cd", servers=7, k=3, m=2, memory_per_server=64 * MIB
    )
    client = cluster.add_client()
    data = random.Random(5).randbytes(9000)
    store(cluster, client, {"key": data})
    victim = cluster.scheme.chunk_servers(cluster.ring, "key")[0]
    done = cluster.sim.process(cluster.scale_in(victim, graceful=False))
    cluster.run(done)
    stats = done.value["stats"]
    assert stats["failed"] == 0 and stats["reencoded"] == 1
    assert len(stamped) == 1 and owns_its_bytes(stamped[0])
    assert read_all(cluster, client, ["key"]) == [data]
