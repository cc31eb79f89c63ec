"""ChaosEngine: determinism, budget enforcement, fault mechanics."""

import pytest

from repro.core.cluster import build_cluster
from repro.faults import ChaosEngine
from repro.faults.profiles import PROFILES, FaultProfile


def _cluster():
    return build_cluster(scheme="era-ce-cd", servers=6, k=3, m=2)


def _drive(cluster, ops=40, size=4096):
    """A small deterministic workload so faults have traffic to hit."""
    from repro.common.payload import Payload

    client = cluster.add_client(name_hint="drv")

    def work():
        for i in range(ops):
            yield cluster.sim.timeout(1e-3)
            try:
                yield from client.set("key-%03d" % i, Payload.sized(size))
            except Exception:
                pass

    cluster.sim.process(work())
    cluster.run()
    return client


class TestDeterminism:
    def _faults(self, profile_name, seed):
        cluster = _cluster()
        chaos = ChaosEngine(cluster, PROFILES[profile_name], seed=seed)
        chaos.start(0.05)
        _drive(cluster)
        chaos.heal_all()
        chaos.uninstall()
        return cluster.events.query("chaos.fault")

    @pytest.mark.parametrize("profile", ["network", "crash", "all"])
    def test_same_seed_identical_fault_log(self, profile):
        first = self._faults(profile, seed=42)
        second = self._faults(profile, seed=42)
        assert first == second
        assert first  # the profile actually injected something

    def test_different_seeds_diverge(self):
        assert self._faults("all", seed=1) != self._faults("all", seed=2)


class TestBudget:
    def test_never_exceeds_max_degraded(self):
        cluster = _cluster()
        profile = FaultProfile(
            name="storm",
            description="crash storm",
            crash_rate=200.0,
            crash_downtime=10.0,  # nobody restarts within the horizon
            partition_rate=200.0,
            partition_duration=10.0,
        )
        chaos = ChaosEngine(cluster, profile, seed=7, max_degraded=2)
        peak = [0]

        real_pick = chaos._pick_degradable

        def watched():
            peak[0] = max(peak[0], len(chaos.degraded))
            return real_pick()

        chaos._pick_degradable = watched
        chaos.start(0.05)
        _drive(cluster, ops=20)
        assert peak[0] <= 2
        assert len(chaos.degraded) <= 2
        # the storm did land some faults
        assert cluster.events.query("chaos.fault")

    def test_mark_repaired_frees_budget(self):
        cluster = _cluster()
        chaos = ChaosEngine(cluster, PROFILES["none"], seed=0, max_degraded=1)
        chaos.unrepaired.add("server-0")
        assert chaos._pick_degradable() is None
        chaos.mark_repaired("server-0")
        assert chaos._pick_degradable() is not None
        assert cluster.metrics.counter("faults.repairs").value == 1


class TestMessageFaults:
    def test_partitioned_node_is_blocked(self):
        cluster = _cluster()
        chaos = ChaosEngine(cluster, PROFILES["none"], seed=0)
        chaos.partitioned.add("server-0")
        action = chaos.on_message("client-0", "server-0", size=100)
        assert action is not None and action.block
        action = chaos.on_message("server-0", "client-0", size=100)
        assert action is not None and action.block
        assert cluster.metrics.counter("faults.partition_blocks").value == 2
        action = chaos.on_message("client-0", "server-1", size=100)
        assert action is None or not action.block

    def test_drop_and_corrupt_only_two_sided(self):
        cluster = _cluster()
        profile = FaultProfile(
            name="lossy", description="", drop_rate=1.0
        )
        chaos = ChaosEngine(cluster, profile, seed=0)
        assert chaos.on_message("a", "b", size=10).drop
        # one-sided RDMA has no message to drop — only delay applies
        action = chaos.on_message("a", "b", size=10, one_sided=True)
        assert action is None or not action.drop

    def test_corrupter_flips_one_bit_in_a_copy(self):
        import dataclasses as dc

        from repro.common.payload import Payload

        @dc.dataclass
        class Wire:
            value: Payload

        original = Payload.from_bytes(b"\x00" * 64)
        wire = Wire(value=original)
        mutate = ChaosEngine._corrupter(pos=5, bit=3)
        mutated = mutate(wire)
        assert mutated is not wire
        assert original.data == b"\x00" * 64  # sender copy untouched
        assert mutated.value.data[5] == 1 << 3
        assert sum(mutated.value.data) == 1 << 3  # exactly one bit

    def test_heal_all_recovers_everything(self):
        cluster = _cluster()
        chaos = ChaosEngine(cluster, PROFILES["none"], seed=0)
        cluster.servers["server-1"].fail()
        chaos.unrepaired.add("server-1")
        chaos.partitioned.add("server-2")
        chaos.slowed.add("server-3")
        cluster.servers["server-3"].cpu_throttle = 4.0
        chaos.heal_all()
        assert cluster.servers["server-1"].alive
        assert not chaos.partitioned
        assert not chaos.slowed
        assert cluster.servers["server-3"].cpu_throttle == 1.0
        # still budget-degraded: its data has not been rebuilt
        assert "server-1" in chaos.unrepaired
