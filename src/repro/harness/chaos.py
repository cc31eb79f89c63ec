"""The chaos soak: drive a workload through faults, assert durability.

The invariant under test: **every acknowledged Set remains readable with
the exact acknowledged bytes, as long as concurrent failures stay within
the scheme's tolerance** (the chaos engine's budget enforces the
"within tolerance" side; see :class:`~repro.faults.engine.ChaosEngine`).
Workload, model, repair and sweep are the kernel's
(:class:`~repro.harness.soak.RegisterSoak`); this soak adds the report
shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness import soak
from repro.harness.experiment import Claim, Experiment


@dataclass
class SoakConfig:
    """One soak run's shape.  Times are virtual seconds."""

    seed: int = 0
    duration: float = 2.0
    net_profile: str = "ri-qdr"
    scheme: str = "era-ce-cd"
    servers: int = 6
    k: int = 3
    m: int = 2
    fault_profile: str = "all"
    num_clients: int = 2
    key_space: int = 40
    value_size: int = 16 * 1024
    set_fraction: float = 0.5
    #: mean think time between a client's operations
    op_gap: float = 2e-3
    #: rebuild crashed servers' chunks while the run is still going
    repair: bool = True


def _body(config: SoakConfig, seeds):
    cluster = soak.build_soak_cluster(config)
    run = soak.RegisterSoak(config, cluster, seeds, name_hint="soak")
    if config.repair:
        run.repair_on_crash()
    run.chaos.start(config.duration)
    run.start_workers(until=config.duration)
    cluster.run()  # to quiescence: workload + chaos + repairs all drain
    run.finish()

    return {
        "ops": run.ops(
            "set_attempts", "set_acks", "set_failures", "get_attempts",
            "unavailable", get_ok=("hit", "uncertain-hit"),
        ),
        "violations": run.violations,
        "faults_injected": run.metrics("faults"),
        "degraded_paths": run.metrics("client", "reads", "writes"),
        "fabric": run.metrics("fabric"),
        "corruption_detected": run.corruption_detected(),
        "latency": {
            "set": soak.latency_summary(run.latencies("set")),
            "get": soak.latency_summary(run.latencies("get")),
        },
        "fault_events": len(cluster.events.query("chaos.fault")),
        "virtual_time": cluster.sim.now,
        "events": soak.event_log(cluster),
    }


SPEC = Experiment(
    name="chaos",
    title=(
        "seeded fault-injection soak: every acknowledged Set stays "
        "readable byte-for-byte while failures stay within tolerance"
    ),
    params=SoakConfig,
    runner=soak.runner(_body, soak.chaos_then_clients),
    render=soak.summary(
        (
            "sets {ops[set_acks]}/{ops[set_attempts]} acked, gets "
            "{ops[get_ok]} ok / {ops[unavailable]} unavailable, faults "
            "{fault_events}, corruption detected {corruption_detected}"
        ).format_map
    ),
    claims=(
        Claim("chaos.durability", "Section VI-D", soak.no_violations()),
    ),
    flags=("duration", "scheme", "servers", "k", "m", "fault_profile"),
)
