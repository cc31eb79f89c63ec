"""The elasticity soak: scale out and in under live load and chaos.

The kernel's model-checked workload runs while fresh servers join (the
ring rebalances onto them) and one original server is forcibly removed
(its chunks are re-encoded from ``k`` survivors).  Three gates:
durability (register model + sweep); the peak rebuild rate recomputed
from the throttle's slot log never exceeds the bandwidth cap; Get p99
during migration stays within ``max_p99_ratio`` of the pre-migration
baseline.  EXPERIMENTS.md ("Scale soak") has the report layout.

The chaos seed is drawn only when a fault profile is active.  The
migration window runs from the ``migration`` to the ``cooldown``
``soak.phase`` event.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.common.stats import Summary
from repro.harness import soak
from repro.harness.experiment import Claim, Experiment
from repro.simulation import REBUILD_WINDOW

MIB = 1024 * 1024


@dataclass
class ScaleConfig:
    """One scale run's shape.  Times are virtual seconds."""

    seed: int = 0
    net_profile: str = "ri-qdr"
    scheme: str = "era-ce-cd"
    servers: int = 6
    k: int = 3
    m: int = 2
    #: background noise while the migrations run ("none" for clean runs)
    fault_profile: str = "scale"
    num_clients: int = 2
    key_space: int = 48
    value_size: int = 16 * 1024
    set_fraction: float = 0.4
    #: mean think time between a client's operations
    op_gap: float = 1e-3
    #: steady-state load before the first transition (the p99 baseline)
    baseline: float = 0.4
    #: servers joined in the scale-out step
    join: int = 2
    #: forcibly remove one original server after the scale-out
    decommission: bool = True
    #: rebuild bandwidth cap, bytes per virtual second (None = unthrottled)
    bandwidth: Optional[float] = 24.0 * MIB
    #: rebuild concurrency window (per-key workers)
    window: int = REBUILD_WINDOW
    #: trailing load after the last transition completes
    cooldown: float = 0.2
    #: rebuild crashed servers' chunks while the run is still going
    repair: bool = True
    #: window size for the throttle-verification rate series
    rate_window: float = 0.01
    #: foreground interference bound: migration p99 <= ratio * baseline p99
    max_p99_ratio: float = 2.0


def _p99(samples: List[float]) -> Optional[float]:
    return Summary.of(samples).p99 if samples else None


def _body(config: ScaleConfig, seeds):
    from repro.membership.manager import MembershipManager

    build_t0 = time.perf_counter()
    cluster = soak.build_soak_cluster(config)
    build_seconds = time.perf_counter() - build_t0
    sim = cluster.sim

    # The bandwidth-capped manager replaces the lazy unthrottled default;
    # everything (harness transitions, chaos churn, repair pacing) then
    # shares one throttle.
    manager = MembershipManager(
        cluster, bandwidth=config.bandwidth, window=config.window
    )
    cluster._manager = manager
    throttle = manager.scheduler.throttle

    # Reserve one tolerated failure for the decommission step: chaos
    # crashes plus the forcibly removed server must stay within the
    # code's tolerance or durability is not a fair invariant.
    slack = 1 if config.decommission else 0
    run = soak.RegisterSoak(
        config,
        cluster,
        seeds,
        name_hint="scale",
        max_degraded=max(0, cluster.scheme.tolerated_failures - slack),
    )
    if config.repair:
        run.repair_on_crash(throttle=throttle)

    # -- the elasticity driver ---------------------------------------------
    stopped = [False]
    joined = ["joiner-%d" % i for i in range(config.join)]
    victim = "server-%d" % (config.servers - 1)

    def _driver():
        if run.chaos is not None:
            # fault horizon: generous upper bound; the run ends when the
            # driver sets `stopped`, and heal() cleans up behind it
            run.chaos.start(horizon=config.baseline * 50 + 10.0)
        yield sim.timeout(config.baseline)
        soak.mark(cluster, "migration")
        yield from manager.scale_out(joined)
        if config.decommission:
            yield from manager.scale_in(victim, graceful=False)
        soak.mark(cluster, "cooldown")
        yield sim.timeout(config.cooldown)
        stopped[0] = True

    run.start_workers(stop=lambda: stopped[0])
    sim.process(_driver(), name="scale-driver")
    cluster.run()
    run.finish()

    # -- measurements the claims judge --------------------------------------
    start = soak.marked_at(cluster, "migration")
    end = soak.marked_at(cluster, "cooldown")
    baseline_lat = [lat for t, lat in run.get_hits if t < start]
    migration_lat = [lat for t, lat in run.get_hits if start <= t <= end]
    base_p99 = _p99(baseline_lat)
    mig_p99 = _p99(migration_lat)
    p99_ratio = (
        mig_p99 / base_p99 if base_p99 and mig_p99 is not None else None
    )

    transitions = [
        {
            "epoch": record["epoch"],
            "plan": record["plan"],
            "stats": {
                key: value
                for key, value in record["stats"].items()
                if key != "failures"
            },
            "failures": record["stats"]["failures"],
        }
        for record in (
            e.fields for e in cluster.events.query("membership.epoch")
        )
    ]
    return {
        "acked_keys": sum(len(m.acked) for m in run.models),
        "violations": run.violations,
        "throttle": {
            "bandwidth_cap": config.bandwidth,
            "peak_rate": throttle.peak_rate(config.rate_window),
            "rate_window": config.rate_window,
            "total_bytes": throttle.total_bytes,
            "slots": len(throttle.slots),
        },
        "latency": {
            "baseline_get": soak.latency_summary(baseline_lat),
            "migration_get": soak.latency_summary(migration_lat),
            "p99_ratio": p99_ratio,
            "max_p99_ratio": config.max_p99_ratio,
        },
        "transitions": transitions,
        "membership": {
            "final_epoch": cluster.membership.current.number,
            "final_servers": sorted(cluster.servers),
            "migration_window": [start, end],
        },
        "ops": run.ops(
            "set_attempts", "set_acks", "get_attempts", "unavailable",
            get_ok=("hit", "uncertain-hit"),
        ),
        "rebuild_metrics": run.metrics("rebuild", "membership", "reads"),
        "faults_injected": run.metrics("faults"),
        "fault_events": len(cluster.events.query("chaos.fault")),
        "virtual_time": sim.now,
        "events": soak.event_log(cluster),
        # the host clock's footprint: the digest leaves it out
        "resources": {
            "cluster_build_seconds": round(build_seconds, 6),
            "peak_rss_mib": soak.peak_rss_mib(),
        },
    }


def _throttled(report: dict) -> bool:
    throttle = report["throttle"]
    cap = throttle["bandwidth_cap"]
    # slot-clock construction: allow only float rounding slack
    return cap is None or throttle["peak_rate"] <= cap * (1.0 + 1e-9)


def _p99_bounded(report: dict) -> bool:
    latency = report["latency"]
    ratio = latency["p99_ratio"]
    return ratio is None or ratio <= latency["max_p99_ratio"]


def _seed_streams(config: ScaleConfig):
    # a clean run ("none") has no chaos engine and draws no seed for one
    chaos = [("chaos", 64)] if config.fault_profile != "none" else []
    return chaos + soak.client_streams(config.num_clients)


SPEC = Experiment(
    name="scale",
    title=(
        "elasticity soak: two servers join and one is decommissioned "
        "under live load and chaos, rebuild bandwidth-capped"
    ),
    params=ScaleConfig,
    runner=soak.runner(_body, _seed_streams),
    render=soak.summary(
        (
            "sets {ops[set_acks]}/{ops[set_attempts]} acked, gets "
            "{ops[get_ok]} ok, final epoch {membership[final_epoch]}, "
            "rebuilt {throttle[total_bytes]} B at peak "
            "{throttle[peak_rate]:.0f} B/s (cap {throttle[bandwidth_cap]}), "
            "get p99 ratio {latency[p99_ratio]} (bound "
            "{latency[max_p99_ratio]})"
        ).format_map
    ),
    claims=(
        Claim("scale.durability", "Section VIII", soak.no_violations()),
        Claim(
            "scale.rebuild_within_bandwidth_cap", "Section VIII", _throttled
        ),
        Claim("scale.migration_get_p99_bounded", "Section VIII", _p99_bounded),
    ),
    flags=(
        "scheme", "servers", "k", "m", "fault_profile", "bandwidth", "join",
        "key_space", "num_clients",
    ),
    quick={"key_space": 24, "baseline": 0.25, "cooldown": 0.1},
)
