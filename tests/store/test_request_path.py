"""The event-lean request path must not move the virtual clock.

Built-in server ops are served by callbacks, a chunk gather waits on one
arrival queue and ARPE ops start without an ``Initialize`` event — each
removes engine events, and none may change which of two same-instant
steps happens first.  Fixed mixes whose clients run in lock step make
same-instant ties common, so they pin that: the final virtual time below
was recorded before those events were removed and must repeat to the
last digit.
"""

import pytest

from repro import Payload, build_cluster

KEYS = ["key-%04d" % i for i in range(400)]


def fixed_mix(blocking, hosts=None):
    """5-server Era-CE-CD, 8 clients, 400 sized 4 KiB keys loaded by the
    first client, then 1,500 alternating Set/Get per client; returns
    ``(sim.now, processed_events)``."""
    cluster = build_cluster(scheme="era-ce-cd", servers=5)
    clients = [
        cluster.add_client(
            window=2, host=None if hosts is None else "host-%d" % (i % hosts)
        )
        for i in range(8)
    ]
    value = Payload.sized(4096)

    def load():
        for key in KEYS:
            if blocking:
                yield from clients[0].set(key, value)
            else:
                yield clients[0].iset(key, value).done

    cluster.sim.process(load())
    cluster.run()

    def mix(client, offset):
        for i in range(1500):
            key = KEYS[(offset * 50 + i) % len(KEYS)]
            if blocking:
                if i % 2:
                    yield from client.get(key)
                else:
                    yield from client.set(key, value)
            else:
                op = client.iget(key) if i % 2 else client.iset(key, value)
                yield op.done

    for offset, client in enumerate(clients):
        cluster.sim.process(mix(client, offset))
    cluster.run()
    return cluster.sim.now, cluster.sim.processed_events


class TestSameInstantOrdering:
    """Each case's event count was 330,697 / 355,497 / 355,220 when every
    request ran as its own process; the bound keeps it from creeping
    back up."""

    def test_blocking_mix(self):
        now, events = fixed_mix(blocking=True)
        assert now == 0.018491437081763547
        assert events <= 262_691

    def test_lock_step_nonblocking_mix_own_nics(self):
        now, events = fixed_mix(blocking=False)
        assert now == 0.018491437081763547
        assert events <= 275_091

    def test_lock_step_nonblocking_mix_shared_hosts(self):
        now, events = fixed_mix(blocking=False, hosts=2)
        assert now == 0.018876784255426042
        assert events <= 274_820


def contended_run():
    """Four clients Set then Get one 4 KiB key each, all starting at t=0,
    against servers with one worker thread: every server queues."""
    cluster = build_cluster(
        scheme="era-ce-cd", servers=5, worker_threads=1, trace=True
    )
    clients = [cluster.add_client() for _ in range(4)]
    replies = []

    def body(client, i):
        key = "k%d" % i
        yield from client.set(key, Payload.sized(4096))
        replies.append(("set", key, cluster.sim.now))
        yield from client.get(key)
        replies.append(("get", key, cluster.sim.now))

    for i, client in enumerate(clients):
        cluster.sim.process(body(client, i))
    cluster.run()
    return cluster, replies


class TestContendedBuiltins:
    """Values recorded when built-in ops still ran one process each."""

    @pytest.fixture(scope="class")
    def run(self):
        return contended_run()

    def test_reply_times(self, run):
        _cluster, replies = run
        assert replies == [
            ("set", "k0", 1.146723829910615e-05),
            ("set", "k1", 1.1578668946205588e-05),
            ("set", "k2", 1.1717298730505776e-05),
            ("set", "k3", 1.2244618730505778e-05),
            ("get", "k0", 1.8452957845568936e-05),
            ("get", "k1", 1.8592957221890616e-05),
            ("get", "k2", 1.8732956598212297e-05),
            ("get", "k3", 1.9260276598212296e-05),
        ]

    def test_queue_depth_observations(self, run):
        cluster, _replies = run
        depths = {
            name: cluster.metrics.histogram(
                "server.%s.queue_depth" % name
            ).samples
            for name in sorted(cluster.servers)
        }
        assert depths == {
            "server-0": [1, 0, 1, 2, 1, 0],
            "server-1": [1, 0, 1, 0],
            "server-2": [1, 0, 1, 0, 1, 0, 1, 0, 1, 0],
            "server-3": [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0],
            "server-4": [1, 0, 1, 0, 1, 0, 1, 0],
        }

    def test_one_worker_grants_fifo(self, run):
        cluster, _replies = run
        spans = cluster.tracer.by_category("server-service")
        assert len(spans) == 32  # 4 Sets x 5 chunks + 4 Gets x 3 chunks
        assert all(s.args["ok"] for s in spans)
        for name in cluster.servers:
            served = sorted(
                (s.start, s.end) for s in spans if s.track == name
            )
            # in arrival order, each request finishes after the one before
            ends = [end for _start, end in served]
            assert ends == sorted(ends) and len(set(ends)) == len(ends)
