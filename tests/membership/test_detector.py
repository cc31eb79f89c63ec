"""Heartbeat detector: suspicion ladder, death promotion, healing."""

from repro.core.cluster import build_cluster
from repro.membership import ALIVE, DEAD, SUSPECT


def _cluster():
    return build_cluster(scheme="era-ce-cd", servers=5, k=3, m=2)


def _start_detector(cluster, horizon, interval=0.01, timeout=0.004,
                    miss_limit=2):
    cluster.config.with_membership(
        detector="heartbeat",
        period=interval,
        timeout=timeout,
        miss_limit=miss_limit,
    )
    detector = cluster.detector
    detector.start(horizon)
    return detector


class TestDetection:
    def test_healthy_cluster_stays_alive(self):
        cluster = _cluster()
        _start_detector(cluster, horizon=0.1)
        cluster.run()
        table = cluster.membership
        assert all(table.state_of(m) == ALIVE for m in table.current.members)
        assert cluster.metrics.snapshot().get(
            "membership.detector_deaths", 0
        ) == 0

    def test_silent_node_suspected_then_dead(self):
        cluster = _cluster()
        # kill the server directly (bypassing the membership-aware
        # injector): only the detector can notice
        cluster.servers["server-2"].fail()
        assert cluster.membership.state_of("server-2") == ALIVE  # not yet
        _start_detector(cluster, horizon=0.5)
        # run until the suspicion rung
        cluster.run(cluster.sim.timeout(0.035))
        assert cluster.membership.state_of("server-2") == SUSPECT
        cluster.run()
        assert cluster.membership.state_of("server-2") == DEAD
        snapshot = cluster.metrics.snapshot()
        assert snapshot["membership.detector_suspects"] == 1
        assert snapshot["membership.detector_deaths"] == 1

    def test_pong_resets_the_ladder(self):
        cluster = _cluster()
        cluster.servers["server-1"].fail()
        _start_detector(cluster, horizon=0.5)
        # let it reach SUSPECT, then bring the node back
        cluster.run(cluster.sim.timeout(0.035))
        assert cluster.membership.state_of("server-1") == SUSPECT
        cluster.servers["server-1"].recover()
        cluster.run()
        table = cluster.membership
        assert table.state_of("server-1") == ALIVE
        assert cluster.metrics.snapshot()["membership.detector_deaths"] == 0

    def test_detector_skips_known_dead(self):
        """A node the injector already marked DEAD is not pinged (no
        wasted traffic, no double-counted death)."""
        from repro.resilience.recovery import FailureInjector

        cluster = _cluster()
        FailureInjector(cluster).fail_now(["server-3"])
        _start_detector(cluster, horizon=0.1)
        cluster.run()
        snapshot = cluster.metrics.snapshot()
        assert snapshot["membership.detector_deaths"] == 0
        assert cluster.membership.state_of("server-3") == DEAD
