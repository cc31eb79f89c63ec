"""SWIM gossip detector: probes, suspicion, refutation, epoch spread."""

import pytest

from repro.core.cluster import build_cluster
from repro.faults.engine import ChaosEngine
from repro.faults.profiles import PROFILES
from repro.membership import ALIVE, DEAD, SUSPECT, SwimDetector


def _cluster(servers=8):
    return build_cluster(scheme="era-ce-cd", servers=servers, k=3, m=2)


def _swim(cluster, horizon, seed=0, suspicion_periods=2.0, **kwargs):
    cluster.config.with_membership(
        detector="swim",
        period=0.01,
        suspicion_periods=suspicion_periods,
        sync_every=5,
        seed=seed,
        **kwargs
    )
    detector = cluster.detector
    detector.start(horizon)
    return detector


class TestCleanRoom:
    def test_healthy_cluster_stays_alive(self):
        cluster = _cluster()
        detector = _swim(cluster, horizon=0.3)
        cluster.run()
        table = cluster.membership
        assert all(table.state_of(m) == ALIVE for m in table.current.members)
        snapshot = cluster.metrics.snapshot()
        assert snapshot.get("membership.detector_suspects", 0) == 0
        assert snapshot.get("membership.detector_deaths", 0) == 0
        assert cluster.events.query("swim.dead") == []
        assert detector.messages_sent() > 0

    def test_per_node_load_is_constant(self):
        """O(1) messages per node per period — SWIM's headline property."""
        loads = []
        for servers in (6, 18):
            cluster = _cluster(servers=servers)
            detector = _swim(cluster, horizon=0.2)
            cluster.run()
            loads.append(detector.messages_sent() / float(servers * 20))
        small, large = loads
        assert large <= small * 1.5 + 0.2

    def test_config_detach_unregisters_handlers(self):
        cluster = _cluster()
        cluster.config.with_membership(detector="swim", period=0.01)
        server = cluster.servers["server-0"]
        assert "swim_ping" in server.handlers
        assert isinstance(cluster.detector, SwimDetector)
        cluster.config.disable("membership")
        assert cluster.detector is None
        assert "swim_ping" not in server.handlers


class TestDetection:
    def test_crashed_node_suspected_then_dead(self):
        cluster = _cluster()
        cluster.servers["server-3"].fail()
        detector = _swim(cluster, horizon=0.5)
        cluster.run()
        table = cluster.membership
        assert table.state_of("server-3") == DEAD
        dead = cluster.events.query("swim.dead")
        suspected = cluster.events.query("swim.suspect")
        assert [e.fields["member"] for e in dead] == ["server-3"]
        assert [e.fields["member"] for e in suspected] == ["server-3"]
        # the suspicion (first detection) precedes the DEAD verdict by
        # the suspicion window
        suspected_at = suspected[0].time
        dead_at = dead[0].time
        assert dead_at >= suspected_at + detector.suspicion_time

    def test_known_dead_member_is_not_declared_again(self):
        """A node the injector already marked DEAD gets no second
        suspicion or death from the detector (no double-counted death)."""
        from repro.resilience.recovery import FailureInjector

        cluster = _cluster()
        FailureInjector(cluster).fail_now(["server-3"])
        _swim(cluster, horizon=0.3)
        cluster.run()
        assert cluster.membership.state_of("server-3") == DEAD
        assert cluster.events.query("swim.suspect") == []
        assert cluster.events.query("swim.dead") == []
        snapshot = cluster.metrics.snapshot()
        assert snapshot.get("membership.detector_suspects", 0) == 0
        assert snapshot.get("membership.detector_deaths", 0) == 0

    def test_all_views_converge_on_the_death(self):
        cluster = _cluster()
        cluster.servers["server-5"].fail()
        detector = _swim(cluster, horizon=0.5)
        cluster.run()
        views = detector.view_dead_sets()
        assert "server-5" not in views  # dead nodes hold no live view
        assert set(views.values()) == {("server-5",)}

    def test_recovered_node_refutes_and_revives(self):
        cluster = _cluster()
        cluster.servers["server-2"].fail()
        detector = _swim(cluster, horizon=1.0)
        sim = cluster.sim
        cluster.run(sim.timeout(0.2))
        assert cluster.membership.state_of("server-2") == DEAD
        cluster.servers["server-2"].recover()
        cluster.run()
        table = cluster.membership
        assert table.state_of("server-2") == ALIVE
        snapshot = cluster.metrics.snapshot()
        assert snapshot["membership.swim_refutes"] >= 1
        # incarnation bumped past the one the death rumor carried
        assert detector.nodes["server-2"].incarnation >= 1


class TestFlapping:
    def test_flapping_node_refutes_without_dying(self):
        """ALIVE -> SUSPECT -> refute -> ALIVE, never DEAD.

        Downtimes stay under the suspicion window, and the window is
        generous enough at 8 nodes for the incarnation-bumped refutation
        to reach every suspicion timer in time.
        """
        cluster = _cluster()
        _swim(cluster, horizon=2.0, suspicion_periods=8.0)
        sim = cluster.sim
        flapper = cluster.servers["server-5"]

        def _flap():
            yield sim.timeout(0.05)
            for _ in range(3):
                flapper.fail()
                yield sim.timeout(0.02)  # 2 periods down, window is 8
                flapper.recover()
                yield sim.timeout(0.1)

        sim.process(_flap(), name="flapper")
        cluster.run()
        assert cluster.events.query("swim.dead") == []
        assert cluster.membership.state_of("server-5") == ALIVE
        snapshot = cluster.metrics.snapshot()
        # the flaps were noticed (suspected) and refuted, not ignored
        assert snapshot["membership.detector_suspects"] >= 1
        assert snapshot["membership.swim_refutes"] >= 1
        assert any(
            e.fields["member"] == "server-5"
            for e in cluster.events.query("swim.suspect")
        )


class TestAsymmetricPartition:
    def test_partitioned_node_rescued_by_indirect_probes(self):
        """Peers that cannot reach the victim directly vouch through
        proxies whose links are intact — no DEAD verdict ever lands."""
        cluster = _cluster()
        chaos = ChaosEngine(cluster, PROFILES["none"], seed=0)
        victim = "server-4"
        cut = ["server-0", "server-1", "server-2"]
        for peer in cut:
            chaos.partition_link(peer, victim)  # one-way: inbound only
        _swim(cluster, horizon=0.4, suspicion_periods=8.0)
        cluster.run()
        assert cluster.membership.state_of(victim) == ALIVE
        assert cluster.events.query("swim.dead") == []
        snapshot = cluster.metrics.snapshot()
        assert snapshot["membership.swim_indirect"] >= 1
        assert snapshot["membership.swim_rescues"] >= 1

    def test_fully_isolated_node_still_dies(self):
        """Indirect probes only rescue *reachable* nodes: cutting every
        inbound link is indistinguishable from a crash (to everyone
        else) and must be detected."""
        cluster = _cluster()
        chaos = ChaosEngine(cluster, PROFILES["none"], seed=0)
        victim = "server-4"
        for peer in cluster.servers:
            if peer != victim:
                chaos.partition_link(peer, victim)
        _swim(cluster, horizon=0.5)
        cluster.run()
        assert cluster.membership.state_of(victim) == DEAD


class TestEpochSpread:
    def test_join_reaches_every_view(self):
        cluster = _cluster(servers=6)
        detector = _swim(cluster, horizon=1.5)
        sim = cluster.sim

        def _join():
            yield sim.timeout(0.05)
            yield from cluster.scale_out(["joiner-0"])

        sim.process(_join(), name="joiner")
        cluster.run()
        sealed = cluster.membership.current.number
        assert sealed >= 1
        views = detector.view_epochs()
        assert "joiner-0" in views
        assert set(views.values()) == {sealed}
        assert set(detector.view_dead_sets().values()) == {()}


class TestDeterminism:
    def _run_once(self, seed):
        cluster = _cluster()
        cluster.servers["server-3"].fail()
        detector = _swim(cluster, horizon=0.6, seed=seed)
        sim = cluster.sim

        def _recover():
            yield sim.timeout(0.25)
            cluster.servers["server-3"].recover()

        sim.process(_recover(), name="recover")
        cluster.run()
        return (
            detector.messages_sent(),
            tuple(cluster.events.query("swim.dead")),
            tuple(cluster.events.query("swim.suspect")),
            tuple(sorted(detector.view_epochs().items())),
        )

    def test_same_seed_same_trace(self):
        assert self._run_once(7) == self._run_once(7)

    def test_different_seed_different_trace(self):
        assert self._run_once(7) != self._run_once(8)


class TestHeartbeatViaConfig:
    def test_heartbeat_detector_is_rejected(self):
        """SWIM is the only detector; any other name fails before the
        config changes."""
        cluster = _cluster(servers=5)
        with pytest.raises(ValueError):
            cluster.config.with_membership(detector="heartbeat")
        assert cluster.config.membership is None
        assert cluster.detector is None
