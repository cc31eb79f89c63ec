"""The stripe-packing soak: memory overhead, then delete durability.

**Comparison** — one deterministic ETC-shaped sub-threshold population
is written and read back through ``stripes``, per-object ``era-ce-cd``
at the same (k, m) and ``sync-rep`` at factor m+1; the stripe path's
storage overhead (amplification above 1.0) must be at most half of
per-object coding's.  **Chaos** — the stripe cluster runs the kernel's
Set/Get/Delete mix under faults with the compactor live; crashed servers
are repaired through the inner erasure scheme (carrier stripes, large
objects) and ``StripedScheme.repair_server`` (pre-seal journal copies).
EXPERIMENTS.md ("Stripes soak") has the measured numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.payload import Payload
from repro.harness import soak
from repro.harness.experiment import Claim, Experiment

#: schemes measured in the comparison phase (stripes must come first:
#: its goodput is the headline number).
COMPARISON_SCHEMES = ("stripes", "era-ce-cd", "sync-rep")


@dataclass
class StripesSoakConfig:
    """One stripes-soak run's shape.  Times are virtual seconds."""

    seed: int = 0
    net_profile: str = "ri-qdr"
    servers: int = 6
    k: int = 3
    m: int = 2
    #: comparison phase: objects written (then read back) per scheme
    objects: int = 500
    #: cap on sampled ETC sizes so every object stays on the packed path
    max_value: int = 2048
    #: chaos phase: virtual seconds of faulted Set/Get/Delete load
    duration: float = 1.0
    fault_profile: str = "crash"
    num_clients: int = 2
    key_space: int = 48
    set_fraction: float = 0.45
    delete_fraction: float = 0.10
    #: mean think time between a client's operations
    op_gap: float = 2e-3
    #: rebuild crashed servers (chunks + journals) while the run goes on
    repair: bool = True


def _etc_sizes(config: StripesSoakConfig, count: int) -> List[int]:
    """ETC-shaped sizes, capped below the stripe threshold."""
    from repro.workloads.etc import EtcSizeSampler

    sampler = EtcSizeSampler(seed=config.seed + 211)
    return [min(size, config.max_value) for size in sampler.sample_sizes(count)]


def _measure_scheme(config: StripesSoakConfig, scheme_name: str) -> dict:
    """Write + read the ETC population through one scheme; measure it."""
    cluster = soak.build_soak_cluster(
        config,
        scheme=scheme_name,
        policy=None,
        replication_factor=config.m + 1,
    )
    sim = cluster.sim
    client = cluster.add_client(name_hint="cmp")
    sizes = _etc_sizes(config, config.objects)
    acked = [0]
    read_ok = [0]

    def body():
        for index, size in enumerate(sizes):
            key = "cmp:k%05d" % index
            data = soak.value_bytes(key, index, size)
            ok = yield from client.set(key, Payload.from_bytes(data))
            if ok:
                acked[0] += 1
        for index, size in enumerate(sizes):
            key = "cmp:k%05d" % index
            value = yield from client.get(key)
            if value is not None and value.size == size:
                read_ok[0] += 1

    sim.run(sim.process(body(), name="cmp-load"))
    cluster.run()  # drain seal timers / background coding
    elapsed = sim.now
    ops = acked[0] + read_ok[0]
    return {
        "scheme": scheme_name,
        "objects": config.objects,
        "set_acks": acked[0],
        "get_ok": read_ok[0],
        "logical_bytes": sum(sizes),
        "stored_bytes": cluster.total_stored_bytes,
        "memory_overhead_ratio": round(cluster.memory_overhead_ratio(), 6),
        "goodput_ops_per_sec": round(ops / elapsed, 3) if elapsed else 0.0,
        "virtual_time": round(elapsed, 9),
    }


def _body(config: StripesSoakConfig, seeds):
    comparison = {
        name: _measure_scheme(config, name) for name in COMPARISON_SCHEMES
    }
    # storage overhead: amplification above 1.0
    overhead = {
        "stripes": comparison["stripes"]["memory_overhead_ratio"] - 1.0,
        "per_object": comparison["era-ce-cd"]["memory_overhead_ratio"] - 1.0,
    }

    # -- chaos + compaction durability on the stripe path ------------------
    cluster = soak.build_soak_cluster(config, scheme="stripes")
    inner = cluster.scheme.inner
    run = soak.RegisterSoak(
        config,
        cluster,
        seeds,
        name_hint="ssoak",
        extra_violations=("ghost_reads",),
        # user keys live inside carrier stripes: repair what the inner
        # scheme stores, until the crashed server is back
        repair_keys=lambda: sorted(inner.known_keys()),
        repair_done=lambda name: cluster.servers[name].alive,
    )
    sizes = _etc_sizes(config, 512)
    if config.repair:
        run.repair_on_crash()
    run.chaos.start(config.duration)
    run.start_workers(
        until=config.duration,
        size_of=lambda key, seq: sizes[(seq + len(key)) % len(sizes)],
    )
    cluster.run()  # quiescence: workload + chaos + seals + compaction
    run.finish()

    return {
        "comparison": comparison,
        "overhead": overhead,
        "ops": run.ops(
            "set_attempts", "set_acks", "set_failures", "delete_attempts",
            "delete_acks", "delete_failures", "get_attempts", "unavailable",
        ),
        "violations": run.violations,
        "stripe_metrics": run.metrics("stripes"),
        "faults_injected": run.metrics("faults"),
        "degraded_paths": run.metrics("client", "reads", "writes"),
        "fabric": run.metrics("fabric"),
        "corruption_detected": run.corruption_detected(),
        "fault_events": len(cluster.events.query("chaos.fault")),
        "virtual_time": cluster.sim.now,
        "events": soak.event_log(cluster),
    }


SPEC = Experiment(
    name="stripes",
    title=(
        "small-object stripe-packing soak: memory overhead vs per-object "
        "coding, then Set/Get/Delete durability with the compactor live"
    ),
    params=StripesSoakConfig,
    runner=soak.runner(_body, soak.chaos_then_clients),
    render=soak.summary(
        (
            "overhead {overhead[stripes]:.2f}x vs per-object "
            "{overhead[per_object]:.2f}x, sets {ops[set_acks]}/"
            "{ops[set_attempts]}, deletes {ops[delete_acks]}/"
            "{ops[delete_attempts]}, gets {ops[get_ok]} ok, faults "
            "{fault_events}, {stripe_metrics[stripes.sealed]} sealed, "
            "{stripe_metrics[stripes.compactions]} compactions"
        ).format_map
    ),
    claims=(
        Claim(
            "stripes.overhead_at_most_half_of_per_object_coding",
            "Section I-A",
            lambda report: 0 < report["overhead"]["stripes"]
            and report["overhead"]["per_object"]
            >= 2.0 * report["overhead"]["stripes"],
        ),
        Claim("stripes.durability", "Section VI-D", soak.no_violations()),
    ),
    flags=("servers", "k", "m", "fault_profile", "duration", "objects"),
    quick={"objects": 250, "duration": 0.5},
)
