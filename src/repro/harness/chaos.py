"""The chaos soak: drive a workload through faults, assert durability.

The invariant under test: **every acknowledged Set remains readable with
the exact acknowledged bytes, as long as concurrent failures stay within
the scheme's tolerance** (the chaos engine's budget enforces the
"within tolerance" side; see :class:`~repro.faults.engine.ChaosEngine`).
Workload, model, repair and sweep are the kernel's
(:class:`~repro.harness.soak.RegisterSoak`); this spec adds the bit-rot
budget slack and the report shape.  The digest covers the fault log,
operation counts, violations and the fault/client/read/write/fabric
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.faults.profiles import profile_by_name
from repro.harness import soak


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


def _body(config: SoakConfig, seeds) -> soak.SoakResult:
    cluster = soak.build_soak_cluster(config)
    tolerated = cluster.scheme.tolerated_failures
    # Bit rot erases chunks outside the crash/partition budget; when the
    # profile includes it, reserve one tolerated failure as slack so rot
    # plus node failures cannot legally exceed the code's tolerance.
    rots = profile_by_name(config.fault_profile).bitrot_rate > 0
    run = soak.RegisterSoak(
        config,
        cluster,
        seeds,
        name_hint="soak",
        max_degraded=tolerated - 1 if rots and tolerated > 1 else tolerated,
    )
    if config.repair:
        run.repair_on_crash()
    run.chaos.start(config.duration)
    run.start_workers(until=config.duration)
    cluster.run()  # to quiescence: workload + chaos + repairs all drain
    run.finish()

    ops = run.ops(
        "set_attempts", "set_acks", "set_failures", "get_attempts",
        "unavailable", get_ok=("hit", "uncertain-hit"),
    )
    metrics = run.metrics("faults", "client", "reads", "writes", "fabric")
    fault_log = run.fault_log()
    report = {
        "ops": ops,
        "violations": run.violations,
        "faults_injected": run.metrics("faults"),
        "degraded_paths": run.metrics("client", "reads", "writes"),
        "corruption_detected": run.corruption_detected(),
        "latency": {
            "set": soak.latency_summary(run.latencies("set")),
            "get": soak.latency_summary(run.latencies("get")),
        },
        "fault_log_entries": len(fault_log),
        "virtual_time": cluster.sim.now,
    }
    digest = {
        "ops": ops,
        "fault_log": fault_log,
        "metrics": metrics,
        "violations": run.violations,
    }
    return soak.SoakResult(report, digest, {"durability": run.durable()})


SPEC = soak.SoakSpec(
    name="chaos",
    summary=(
        "seeded fault-injection soak: every acknowledged Set stays "
        "readable byte-for-byte while failures stay within tolerance"
    ),
    verdict="Durability invariant",
    config_cls=SoakConfig,
    body=_body,
    config_fields=(
        "seed", "duration", "scheme", "fault_profile", "servers", "k", "m",
    ),
    describe=(
        "sets {ops[set_acks]}/{ops[set_attempts]} acked, gets "
        "{ops[get_ok]} ok / {ops[unavailable]} unavailable, faults "
        "{fault_log_entries}, corruption detected {corruption_detected}"
    ).format_map,
    seed_streams=soak.chaos_then_clients,
    flags=("duration", "scheme", "servers", "k", "m", "fault_profile"),
)


run_soak, run_soak_suite = soak.entry_points(SPEC)
