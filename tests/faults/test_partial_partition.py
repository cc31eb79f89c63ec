"""Partial (asymmetric) partitions: directed link cuts and their heals."""

from repro.core.cluster import build_cluster
from repro.faults.engine import ChaosEngine
from repro.faults.profiles import PROFILES, FaultProfile, profile_by_name


def _cluster(servers=6):
    return build_cluster(scheme="era-ce-cd", servers=servers, k=3, m=2)


class TestDirectedLinks:
    def test_link_blocks_one_direction_only(self):
        cluster = _cluster()
        chaos = ChaosEngine(cluster, PROFILES["none"], seed=0)
        chaos.partition_link("server-0", "server-1")
        blocked = chaos.on_message("server-0", "server-1", size=64)
        assert blocked is not None and blocked.block
        reverse = chaos.on_message("server-1", "server-0", size=64)
        assert reverse is None or not reverse.block
        other = chaos.on_message("server-0", "server-2", size=64)
        assert other is None or not other.block
        assert cluster.metrics.counter("faults.partition_blocks").value == 1

    def test_heal_link_restores_the_direction(self):
        cluster = _cluster()
        chaos = ChaosEngine(cluster, PROFILES["none"], seed=0)
        chaos.partition_link("server-0", "server-1")
        chaos.heal_link("server-0", "server-1")
        action = chaos.on_message("server-0", "server-1", size=64)
        assert action is None or not action.block
        assert not chaos.partition_links

    def test_manual_links_do_not_consume_budget(self):
        cluster = _cluster()
        chaos = ChaosEngine(cluster, PROFILES["none"], seed=0, max_degraded=1)
        chaos.partition_link("server-0", "server-1")
        # the caller owns the blast radius: scheduled faults still have
        # their full budget
        assert chaos._pick_degradable() is not None

    def test_node_level_partition_still_blocks_both_ways(self):
        cluster = _cluster()
        chaos = ChaosEngine(cluster, PROFILES["none"], seed=0)
        chaos.partitioned.add("server-0")
        assert chaos.on_message("server-0", "server-1", size=64).block
        assert chaos.on_message("server-1", "server-0", size=64).block


class TestScheduledEpisodes:
    def _run(self, seed, horizon=10.0):
        cluster = _cluster()
        chaos = ChaosEngine(
            cluster, profile_by_name("partial_partition"), seed=seed
        )
        chaos.start(horizon)
        cluster.run(cluster.sim.timeout(horizon + 1.0))
        return cluster, chaos

    def test_episodes_fire_and_heal(self):
        cluster, chaos = self._run(seed=3)
        snapshot = cluster.metrics.snapshot()
        assert snapshot["faults.partial_partitions"] >= 1
        faults = [e.fields["fault"] for e in cluster.events.query("chaos.fault")]
        episodes = [f for f in faults if f == "partial_partition"]
        heals = [f for f in faults if f == "partial_heal"]
        assert len(episodes) == snapshot["faults.partial_partitions"]
        assert len(heals) == len(episodes)
        # every episode healed: no residual links or victims
        assert not chaos.partition_links
        assert not chaos.partial_victims

    def test_victims_count_against_the_budget(self):
        cluster = _cluster()
        chaos = ChaosEngine(
            cluster,
            profile_by_name("partial_partition"),
            seed=3,
            max_degraded=1,
        )
        chaos.partial_victims.add("server-0")
        assert "server-0" in chaos.degraded
        assert chaos._pick_degradable() is None

    def test_schedule_is_deterministic(self):
        logs = [
            tuple(self._run(seed=5)[0].events.query("chaos.fault"))
            for _ in range(2)
        ]
        assert logs[0] == logs[1]
        assert logs[0]  # and non-empty over a 10s horizon

    def test_heal_all_clears_links_and_victims(self):
        cluster = _cluster()
        chaos = ChaosEngine(cluster, PROFILES["none"], seed=0)
        chaos.partition_link("server-0", "server-1")
        chaos.partial_victims.add("server-2")
        chaos.partition_links.add(("server-3", "server-2"))
        chaos.heal_all()
        assert not chaos.partition_links
        assert not chaos.partial_victims

    def test_profile_rate_gates_the_loop(self):
        """A profile without partial partitions schedules none."""
        cluster = _cluster()
        chaos = ChaosEngine(
            cluster,
            FaultProfile(name="quiet", description=""),
            seed=3,
        )
        chaos.start(5.0)
        cluster.run()
        assert cluster.metrics.snapshot().get("faults.partial_partitions", 0) == 0
