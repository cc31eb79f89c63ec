"""A migration re-encode runs the scheme's one reconstruction path, and
a move never targets a dead owner.

A re-encode move rebuilds a chunk whose holder is gone through
``rebuild_chunks``, so it reads what crash repair reads: under LRC, the
local group instead of ``k`` chunks.  A move whose new owner is dead
fails before anything is read or sent; the chunk keeps its forwarding
entry until that node's own scale-in moves it.
"""

import random

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.resilience.erasure import chunk_key

MIB = 1024 * 1024


def drive(cluster, gen):
    return cluster.sim.run(cluster.sim.process(gen))


def store(cluster, client, values):
    def body():
        for key, value in values.items():
            assert (yield from client.set(key, Payload.from_bytes(value)))

    drive(cluster, body())


def read_all(cluster, client, keys):
    def body():
        got = []
        for key in keys:
            value = yield from client.get(key)
            got.append(None if value is None else bytes(value.data))
        return got

    return drive(cluster, body())


def test_lrc_reencode_reads_the_local_group():
    cluster = build_cluster(
        scheme="era-ce-cd", codec="lrc", servers=9, k=4, m=3,
        memory_per_server=64 * MIB,
    )
    client = cluster.add_client()
    rng = random.Random(11)
    values = {"lrc-%02d" % i: rng.randbytes(8192) for i in range(40)}
    store(cluster, client, values)
    chunk = cluster.scheme.codec.chunk_length(8192)

    record = drive(cluster, cluster.scale_in("server-3", graceful=False))
    stats = record["stats"]
    assert stats["failed"] == 0 and stats["reencoded"] > 0
    # a copy moves its chunk twice (read + write); a re-encode that read
    # k survivors would charge k + 1 chunks.  The local group reads fewer.
    full_reencode = stats["copied"] * 2 * chunk + stats["reencoded"] * (
        cluster.scheme.k + 1
    ) * chunk
    assert stats["bytes"] < full_reencode
    assert read_all(cluster, client, values) == list(values.values())


def test_scale_out_skips_a_dead_member_until_its_scale_in():
    cluster = build_cluster(
        scheme="era-ce-cd", servers=6, k=3, m=2, memory_per_server=64 * MIB
    )
    client = cluster.add_client()
    rng = random.Random(13)
    values = {"churn-%02d" % i: rng.randbytes(6000 + i) for i in range(48)}
    store(cluster, client, values)
    victim = "server-2"
    cluster.fail_servers([victim])
    cluster.membership.mark_dead(victim)

    manager = cluster.manager
    plans = []
    plan = manager.planner.plan

    def recording_plan(*args, **kwargs):
        plans.append(plan(*args, **kwargs))
        return plans[-1]

    manager.planner.plan = recording_plan
    sent = []
    request = manager.rebuilder.request

    def recording_request(dst, *args, **kwargs):
        sent.append(dst)
        return request(dst, *args, **kwargs)

    manager.rebuilder.request = recording_request

    record = drive(cluster, cluster.scale_out(["joiner-0", "joiner-1"]))
    to_victim = [move for move in plans[0].moves if move.dst == victim]
    assert to_victim, "no move targets the dead member; the test is vacuous"
    assert victim not in sent
    stats = record["stats"]
    assert stats["failed"] == len(to_victim)
    assert all(f["dst"] == victim for f in stats["failures"])
    assert cluster.metrics.counter("rebuild.failed_moves").value == len(
        to_victim
    )
    assert read_all(cluster, client, values) == list(values.values())

    record = drive(cluster, cluster.scale_in(victim, graceful=False))
    assert record["stats"]["failed"] == 0
    assert read_all(cluster, client, values) == list(values.values())
    scheme = cluster.scheme
    for key in values:
        holders = scheme.placement(cluster.ring, key)
        assert victim not in holders
        for index, holder in enumerate(holders):
            assert cluster.servers[holder].cache.peek(chunk_key(key, index))
