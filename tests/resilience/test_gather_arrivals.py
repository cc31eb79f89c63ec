"""A chunk gather fed by its arrival queue completes exactly once.

Every fetch of one gather completes into one ``Arrivals`` queue; these
cases are the ways a fetch can end other than a clean first answer.
Each run goes on to quiescence, so a late or duplicated reply that
reached the queue after the gather returned would show up in it.
"""

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.network.fabric import FAILURE_DETECT_DELAY, FaultAction
from repro.resilience.erasure import MAX_CHUNK_ATTEMPTS
from repro.simulation import Simulator
from repro.store import protocol
from repro.store.arpe import OpMetrics
from repro.store.policy import RetryPolicy

MIB = 1024 * 1024
VALUE = bytes((i * 31 + 7) % 256 for i in range(3000))


class Interceptor:
    """Apply ``action`` to every response ``src`` sends."""

    def __init__(self, action, src=None):
        self.action = action
        self.src = src

    def on_message(self, src, dst, size=0, payload=None, tag="", **_):
        if tag == protocol.TAG_RESPONSE and self.src in (None, src):
            return self.action
        return None


def stored(policy=None):
    cluster = build_cluster(
        scheme="era-ce-cd", servers=5, memory_per_server=64 * MIB
    )
    client = cluster.add_client(policy=policy)

    def load():
        yield from client.set("key", Payload.from_bytes(VALUE))

    cluster.sim.run(cluster.sim.process(load()))
    servers = cluster.scheme.chunk_servers(client.ring, "key")
    return cluster, client, servers


def gather(cluster, client, servers, candidates=None):
    """One gather over the key's chunks (live ones unless ``candidates``
    says otherwise), run to quiescence."""
    scheme = cluster.scheme
    if candidates is None:
        candidates, _dead = scheme._gather_plan(client.fabric, servers)
    arrivals = protocol.Arrivals(cluster.sim)
    outcomes = []

    def body():
        outcome = yield from scheme._gather_chunks(
            client,
            "key",
            servers,
            candidates,
            OpMetrics(cluster.sim.now),
            arrivals=arrivals,
        )
        outcomes.append((cluster.sim.now, outcome))

    cluster.sim.process(body())
    cluster.run()
    assert len(outcomes) == 1
    assert len(arrivals) == 0
    assert len(client.pending) == 0
    return outcomes[0]


def decoded(cluster, outcome):
    chunks, data_len, _ver, error, _corrupt = outcome
    assert error is None
    return cluster.scheme.reconstruct(dict(chunks), data_len).data


def counter(cluster, name):
    return cluster.metrics.snapshot().get(name, 0)


class TestGatherCompletesOnce:
    def test_dead_holder_answers_unreachable(self):
        cluster, client, servers = stored()
        start = cluster.sim.now
        cluster.servers[servers[0]].fail()
        # the plan still lists the holder: the gather learns it is dead
        # from the fabric, one detection delay after posting
        finished, outcome = gather(
            cluster, client, servers, candidates=list(range(5))
        )
        assert finished - start > FAILURE_DETECT_DELAY
        assert sorted(outcome[0]) == [1, 2, 3]
        assert decoded(cluster, outcome) == VALUE

    def test_duplicated_responses_are_dropped(self):
        cluster, client, servers = stored()
        cluster.fabric.add_interceptor(
            Interceptor(FaultAction(duplicate=1e-6))
        )
        received = client.endpoint.messages_received
        _finished, outcome = gather(cluster, client, servers)
        assert decoded(cluster, outcome) == VALUE
        # every response landed twice; each fetch completed once
        assert client.endpoint.messages_received - received == 2 * 3

    def test_timed_out_fetch_ignores_its_late_reply(self):
        cluster, client, servers = stored(RetryPolicy(request_timeout=1e-4))
        slow = cluster.servers[servers[0]]
        slow.cpu_throttle = 1e4  # ~5 ms of service: far past the deadline
        handled = slow.requests_handled
        finished, outcome = gather(cluster, client, servers)
        assert sorted(outcome[0]) == [1, 2, 3]
        assert decoded(cluster, outcome) == VALUE
        assert counter(cluster, "client.request_timeouts") == 1
        # the late reply was served and sent, after the gather finished
        assert slow.requests_handled == handled + 1
        assert cluster.sim.now > finished

    def test_hedge_loser_is_forgotten(self):
        policy = RetryPolicy(hedge=True, request_timeout=1.0)
        cluster, client, servers = stored(policy)
        # a 30 us cutoff: only the slow holder's fetch outlives it
        for _ in range(client.hedge_cutoff.min_samples):
            client.hedge_cutoff.observe(20e-6)
        cluster.servers[servers[0]].cpu_throttle = 1e3
        _finished, outcome = gather(cluster, client, servers)
        assert sorted(outcome[0]) == [1, 2, 3]
        assert decoded(cluster, outcome) == VALUE
        assert counter(cluster, "reads.hedged") == 1
        assert counter(cluster, "reads.abandoned_fetches") == 1
        assert counter(cluster, "client.cancels_sent") == 1

    def test_corrupt_chunk_refetched_up_to_the_bound(self):
        cluster, client, servers = stored()
        for name in servers[3:]:  # no backups: index 0 must be re-fetched
            cluster.servers[name].fail()

        def flip(response):
            data = bytearray(response.value.data)
            data[0] ^= 0xFF
            return response.replace(value=Payload.from_bytes(bytes(data)))

        cluster.fabric.add_interceptor(
            Interceptor(FaultAction(mutate=flip), src=servers[0])
        )
        holder = cluster.servers[servers[0]]
        handled = holder.requests_handled
        _finished, outcome = gather(cluster, client, servers)
        assert outcome[3] == protocol.ERR_CORRUPT
        assert holder.requests_handled - handled == MAX_CHUNK_ATTEMPTS
        assert counter(cluster, "reads.corrupt_refetch") == MAX_CHUNK_ATTEMPTS


class TestArrivalsQueue:
    @staticmethod
    def land_at(sim, arrivals, when, req_id):
        response = protocol.Response(req_id=req_id, ok=True, server="s")
        sim.timeout(when).callbacks.append(
            lambda _e: arrivals.succeed(response)
        )
        return response

    def test_cutoff_expiring_before_the_gatherer_resumes_wins(self):
        # An arrival and the cutoff at the same instant, the arrival
        # first: a first-of race over waiter events would still pick the
        # timer, because a waiter event fires a step after its response.
        sim = Simulator()
        arrivals = protocol.Arrivals(sim)
        seen = []

        def body():
            yield arrivals.wait(5e-6)
            seen.append(arrivals.pop())
            seen.append(arrivals.pop())

        response = self.land_at(sim, arrivals, 5e-6, 1)
        sim.process(body())
        sim.run()
        assert seen == [None, response]

    def test_answers_already_waiting_are_taken_in_post_order(self):
        arrivals = protocol.Arrivals(Simulator())
        second, first = (
            protocol.Response(req_id=i, ok=True, server="s") for i in (2, 1)
        )
        arrivals.succeed(second)
        arrivals.succeed(first)
        assert arrivals.take([1, 2]) is first
        assert arrivals.take([2]) is second

    def test_stale_cutoff_queues_nothing(self):
        sim = Simulator()
        arrivals = protocol.Arrivals(sim)
        seen = []

        def body():
            for timeout in (10e-6, None):
                yield arrivals.wait(timeout)
                seen.append((sim.now, arrivals.pop()))

        first = self.land_at(sim, arrivals, 5e-6, 1)
        second = self.land_at(sim, arrivals, 20e-6, 2)
        sim.process(body())
        sim.run()
        assert seen == [(5e-6, first), (20e-6, second)]
        assert len(arrivals) == 0
