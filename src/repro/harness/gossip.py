"""The gossip soak: SWIM failure detection under churn at 1,000 nodes.

One seeded run walks the cluster through a clean room (zero false
positives; per-node load O(1) against a small control cluster),
staggered crashes (median time-to-first-suspicion bound, every victim
confirmed DEAD, refutations re-alive them after restart), an asymmetric
inbound partition (indirect probes must rescue the victim), a flap storm
(transient DEAD verdicts are reported; convergence back to all-ALIVE is
gated) and a join whose sealed epoch must reach every view by gossip
alone.  EXPERIMENTS.md ("Gossip soak") explains each gate's reasoning.

The whole run derives from the seed directly (per-node SWIM rngs are
seeded from it by name; no fan-out).  The digest covers the phase
blocks, the ``swim.dead`` and ``swim.suspect`` events, phase marks,
membership metrics, message count and gate failures; the wall-clock
``resources`` block stays outside it.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Dict, List

from repro.harness import soak
from repro.harness.experiment import Claim, Experiment


@dataclass
class GossipConfig:
    """One gossip soak's shape.  Times derive from the protocol period."""

    seed: int = 0
    net_profile: str = "ri-qdr"
    scheme: str = "era-ce-cd"
    servers: int = 1000
    k: int = 3
    m: int = 2

    # -- SWIM knobs --------------------------------------------------------
    period: float = 0.05
    #: suspicion window in protocol periods; 1.5 keeps median TTD well
    #: inside the 3-period gate while the clean room stays false-free
    suspicion_periods: float = 1.5
    indirect_probes: int = 3
    sync_every: int = 10
    piggyback_limit: int = 8

    # -- phase lengths (protocol periods) ----------------------------------
    clean_periods: int = 20
    #: staggered fail-stop victims
    crashes: int = 5
    #: wait budget for every crash to be confirmed DEAD
    detect_periods: float = 12.0
    #: settle time after the victims restart (refutations must spread)
    settle_periods: float = 15.0
    partition_periods: float = 10.0
    #: fraction of the partition victim's inbound links cut
    partition_fanout: float = 0.5
    #: down/up cycles of the flapping node
    flaps: int = 3
    #: downtime per flap, in periods — must stay under the suspicion window
    flap_down_periods: float = 1.0
    flap_up_periods: float = 3.0
    #: servers joined in the final phase (0 skips the phase)
    join: int = 1
    epoch_periods: float = 20.0

    # -- gates -------------------------------------------------------------
    max_ttd_periods: float = 3.0
    #: small-N control cluster for the O(1) load comparison (0 skips it)
    control_servers: int = 125
    #: big-N load may exceed control-N load by at most this factor
    load_ratio_bound: float = 1.35
    #: absolute ceiling, messages per node per protocol period
    load_absolute_bound: float = 3.0


def _swim_cluster(config: GossipConfig):
    """A cluster of ``config.servers`` nodes running the SWIM detector."""
    cluster = soak.build_soak_cluster(config, policy=None)
    cluster.config.with_membership(
        period=config.period,
        suspicion_periods=config.suspicion_periods,
        indirect_probes=config.indirect_probes,
        sync_every=config.sync_every,
        piggyback_limit=config.piggyback_limit,
        seed=config.seed,
    )
    return cluster


def _measure_clean_load(config: GossipConfig, servers: int) -> float:
    """Messages per node per protocol period on an idle cluster."""
    cluster = _swim_cluster(dataclasses.replace(config, servers=servers))
    detector = cluster.detector
    span = config.clean_periods * config.period
    detector.start(horizon=span)
    cluster.run(cluster.sim.timeout(span))
    detector.stop()
    cluster.run()
    return detector.messages_sent() / float(servers * config.clean_periods)


def _body(config: GossipConfig, seeds):
    from repro.faults.engine import ChaosEngine
    from repro.faults.profiles import PROFILES

    period = config.period
    build_t0 = time.perf_counter()
    cluster = _swim_cluster(config)
    build_seconds = time.perf_counter() - build_t0
    sim = cluster.sim
    table = cluster.membership
    detector = cluster.detector
    # Manual link cuts only — the "none" profile schedules nothing.
    chaos = ChaosEngine(cluster, PROFILES["none"], seed=config.seed)

    rng = random.Random(config.seed)
    phases: Dict[str, dict] = {}
    #: what the claims judge beyond the (digested) phase blocks
    judged: Dict[str, object] = {}

    def _counter(name: str) -> int:
        return cluster.metrics.snapshot().get(name, 0)

    def _verdicts(kind: str) -> list:
        """``(time, member, by)`` of every ``swim.<kind>`` event."""
        return [(e.time, e.fields["member"], e.fields["by"])
                for e in cluster.events.query("swim." + kind)]

    def _confirmed_dead() -> set:
        return {member for _, member, _ in _verdicts("dead")}

    def _not_alive() -> List[str]:
        return sorted(
            name for name in cluster.servers if table.state_of(name) != "alive"
        )

    # Generous horizon: the driver ends the run, not the detector.
    total_periods = (
        config.clean_periods
        + config.crashes  # stagger
        + config.detect_periods
        + config.settle_periods
        + config.partition_periods
        + config.flaps * (config.flap_down_periods + config.flap_up_periods)
        + config.epoch_periods
        + 20.0
    )
    detector.start(horizon=total_periods * period)

    marks: List[list] = []  # [virtual time, label]

    def _mark(label: str) -> None:
        marks.append([sim.now, label])

    def _driver():
        # ---- phase A: clean room ----------------------------------------
        _mark("clean_start")
        msgs0 = detector.messages_sent()
        yield sim.timeout(config.clean_periods * period)
        msgs1 = detector.messages_sent()
        load = (msgs1 - msgs0) / float(config.servers * config.clean_periods)
        false_dead = len(_verdicts("dead"))
        false_suspects = _counter("membership.detector_suspects")
        phases["clean"] = {
            "periods": config.clean_periods,
            "msgs_per_node_per_period": round(load, 4),
            "false_dead": false_dead,
            "false_suspects": false_suspects,
        }
        _mark("clean_end")

        # ---- phase B: staggered crashes, detect, recover ----------------
        victims = rng.sample(sorted(cluster.servers), config.crashes)
        fail_times: Dict[str, float] = {}
        for victim in victims:
            cluster.servers[victim].fail()
            fail_times[victim] = sim.now
            _mark("crash:%s" % victim)
            yield sim.timeout(period)
        deadline = sim.now + config.detect_periods * period
        while sim.now < deadline and not _confirmed_dead() >= set(victims):
            yield sim.timeout(period / 2.0)
        confirmed = _confirmed_dead() & set(victims)

        def _first_suspicion(victim):
            for t, member, _ in _verdicts("suspect"):
                if member == victim and t >= fail_times[victim]:
                    return t
            return None

        suspected_at = {
            v: t for v in victims for t in [_first_suspicion(v)] if t is not None
        }
        ttds = sorted(
            (suspected_at[v] - fail_times[v]) / period for v in suspected_at
        )
        confirm_lags = sorted(
            (t - fail_times[m]) / period
            for t, m, _ in _verdicts("dead")
            if m in fail_times
        )
        median_ttd = ttds[len(ttds) // 2] if ttds else None
        phases["crash"] = {
            "victims": victims,
            "suspected": len(ttds),
            "confirmed_dead": len(confirmed),
            "ttd_periods": [round(t, 3) for t in ttds],
            "median_ttd_periods": (
                round(median_ttd, 3) if median_ttd is not None else None
            ),
            "confirm_periods": [round(t, 3) for t in confirm_lags],
        }
        judged["median_ttd_periods"] = median_ttd
        for victim in victims:
            cluster.servers[victim].recover()
            _mark("recover:%s" % victim)
        yield sim.timeout(config.settle_periods * period)
        phases["recover"] = {"not_realive": _not_alive()}
        _mark("recover_settled")

        # ---- phase C: asymmetric partial partition ----------------------
        deaths_before = len(_verdicts("dead"))
        indirect_before = _counter("membership.swim_indirect")
        rescues_before = _counter("membership.swim_rescues")
        target = rng.choice(sorted(cluster.servers))
        peers = sorted(n for n in cluster.servers if n != target)
        cut = rng.sample(peers, max(1, int(len(peers) * config.partition_fanout)))
        for peer in cut:
            chaos.partition_link(peer, target)  # inbound: probes never arrive
        _mark("partition:%s" % target)
        yield sim.timeout(config.partition_periods * period)
        for peer in cut:
            chaos.heal_link(peer, target)
        _mark("partition_healed")
        # Let straggler suspicions refute before judging the outcome.
        yield sim.timeout(5 * period)
        new_entries = _verdicts("dead")[deaths_before:]
        victim_deaths = sum(1 for _, m, _ in new_entries if m == target)
        indirect_used = _counter("membership.swim_indirect") - indirect_before
        rescues = _counter("membership.swim_rescues") - rescues_before
        phases["partition"] = {
            "victim": target,
            "links_cut": len(cut),
            "victim_alive": table.state_of(target) == "alive",
            "victim_dead_verdicts": victim_deaths,
            # late suspicion-timer expiries from earlier phases can land
            # in this window; reported, but only the victim is gated
            "unrelated_dead_verdicts": len(new_entries) - victim_deaths,
            "indirect_probes": indirect_used,
            "indirect_rescues": rescues,
        }

        # ---- phase D: flap storm ----------------------------------------
        deaths_before = len(_verdicts("dead"))
        flapper = rng.choice(sorted(cluster.servers))
        for _ in range(config.flaps):
            cluster.servers[flapper].fail()
            yield sim.timeout(config.flap_down_periods * period)
            cluster.servers[flapper].recover()
            yield sim.timeout(config.flap_up_periods * period)
        yield sim.timeout(config.settle_periods * period)
        phases["flap"] = {
            "flapper": flapper,
            "cycles": config.flaps,
            "transient_dead_verdicts": (
                len(_verdicts("dead")) - deaths_before
            ),
            "refutes": _counter("membership.swim_refutes"),
            "flapper_alive": table.state_of(flapper) == "alive",
        }
        judged["not_alive_after_flap"] = _not_alive()
        _mark("flap_settled")

        # ---- phase E: join + epoch spread -------------------------------
        if config.join > 0:
            joiners = ["joiner-%d" % i for i in range(config.join)]
            yield from cluster.scale_out(joiners)
            _mark("joined:%s" % ",".join(joiners))
            yield sim.timeout(config.epoch_periods * period)
            views = detector.view_epochs()
            sealed = table.current.number
            lagging = sorted(
                name for name, epoch in views.items() if epoch != sealed
            )
            dead_sets = set(detector.view_dead_sets().values())
            phases["join"] = {
                "joiners": joiners,
                "sealed_epoch": sealed,
                "views": len(views),
                "lagging_views": lagging,
                "dead_set_agreement": sorted(
                    [list(s) for s in dead_sets]
                ),
            }
            _mark("epoch_spread")

    run_t0 = time.perf_counter()
    sim.process(_driver(), name="gossip-driver")
    cluster.run()
    detector.stop()
    cluster.run()
    run_seconds = time.perf_counter() - run_t0

    # -- small-N control: the O(1)-load comparison -------------------------
    load_big = phases["clean"]["msgs_per_node_per_period"]
    load_control = None
    load_ratio = None
    if config.control_servers > 0:
        load_control = round(
            _measure_clean_load(config, config.control_servers), 4
        )
        load_ratio = (
            round(load_big / load_control, 4) if load_control else None
        )

    snapshot = cluster.metrics.snapshot()
    membership_metrics = {
        name: value
        for name, value in sorted(snapshot.items())
        if name.startswith("membership.")
    }
    messages_sent = detector.messages_sent()
    report = {
        **judged,
        "max_ttd_periods": config.max_ttd_periods,
        "phases": phases,
        "load": {
            "msgs_per_node_per_period": load_big,
            "control_servers": config.control_servers or None,
            "control_msgs_per_node_per_period": load_control,
            "ratio": load_ratio,
            "ratio_bound": config.load_ratio_bound,
            "absolute_bound": config.load_absolute_bound,
        },
        "dead_verdicts": len(_verdicts("dead")),
        "messages_sent": messages_sent,
        "membership_metrics": membership_metrics,
        "virtual_time": sim.now,
        # Wall-clock resource footprint — deliberately outside the digest
        # (it varies run to run; the digest must not).
        "resources": {
            "cluster_build_seconds": round(build_seconds, 6),
            "soak_wall_seconds": round(run_seconds, 6),
            "peak_rss_mib": soak.peak_rss_mib(),
        },
    }
    digest = {
        "phases": phases,
        # the digest's keys keep their names: a renamed key moves it
        "detection_log": _verdicts("dead"),
        "suspicion_log": _verdicts("suspect"),
        "marks": marks,
        "membership_metrics": membership_metrics,
        "messages_sent": messages_sent,
        # the failed claims' names, in claim order
        "failures": [
            claim.name for claim in CLAIMS if not claim.holds(report)
        ],
    }
    return report, digest


def _join(test):
    """A join-phase check; it holds vacuously when no server joined."""
    return lambda report: "join" not in report["phases"] or test(
        report["phases"]["join"]
    )


def _phase(name, test):
    return lambda report: test(report["phases"][name])


#: in the order a run checks them; a report's digest covers the names of
#: the failed ones in this order, so the names are part of the contract
CLAIMS = tuple(
    Claim(name, "Section VIII", holds)
    for name, holds in (
        ("clean: no false positives in a fault-free window", _phase(
            "clean",
            lambda clean: clean["false_dead"] == clean["false_suspects"] == 0,
        )),
        ("crash: every victim suspected", _phase(
            "crash", lambda crash: crash["suspected"] == len(crash["victims"])
        )),
        ("crash: every victim confirmed DEAD in the detect budget", _phase(
            "crash",
            lambda crash: crash["confirmed_dead"] == len(crash["victims"]),
        )),
        ("crash: median time-to-detect within max_ttd_periods",
         lambda report: report["median_ttd_periods"] is not None
         and report["median_ttd_periods"] <= report["max_ttd_periods"]),
        ("recover: refutations re-alived every victim", _phase(
            "recover", lambda recover: not recover["not_realive"]
        )),
        ("partition: victim alive after the heal", _phase(
            "partition", lambda partition: partition["victim_alive"]
        )),
        ("partition: indirect probes rescued the victim", _phase(
            "partition",
            lambda partition: partition["indirect_probes"] > 0
            and partition["indirect_rescues"] > 0,
        )),
        ("flap: every node re-alived after the storm",
         lambda report: not report["not_alive_after_flap"]),
        ("join: every view reached the sealed epoch",
         _join(lambda join: not join["lagging_views"])),
        ("join: every view agrees on an empty dead set",
         _join(lambda join: join["dead_set_agreement"] == [[]])),
        # holds vacuously without a small control cluster
        ("load: per-node load within load_ratio_bound of control",
         lambda report: report["load"]["control_servers"] is None
         or report["load"]["ratio"] is not None
         and report["load"]["ratio"] <= report["load"]["ratio_bound"]),
        ("load: per-node load within load_absolute_bound",
         lambda report: report["load"]["msgs_per_node_per_period"]
         <= report["load"]["absolute_bound"]),
    )
)


SPEC = Experiment(
    name="gossip",
    title=(
        "SWIM membership churn soak at 1,000 nodes: zero false "
        "positives, O(1) load, bounded time-to-detect, indirect-probe "
        "rescue, refutation, epoch spread"
    ),
    params=GossipConfig,
    # the whole run derives from the seed directly: no fan-out
    runner=soak.runner(
        _body,
        lambda config: (),
        (
            "seed", "scheme", "servers", "period", "suspicion_periods",
            "indirect_probes", "sync_every", "crashes", "flaps", "join",
        ),
    ),
    render=soak.summary((
        "ttd median {phases[crash][median_ttd_periods]} periods "
        "(confirmed {phases[crash][confirmed_dead]}), load "
        "{load[msgs_per_node_per_period]} msg/node/period (ratio "
        "{load[ratio]} vs {load[control_servers]} servers), clean room "
        "{phases[clean][false_suspects]} false suspects / "
        "{phases[clean][false_dead]} false deaths, partition "
        "{phases[partition][indirect_rescues]} rescues, flapper "
        "alive={phases[flap][flapper_alive]}"
    ).format_map),
    claims=CLAIMS,
    flags=("scheme", "servers", "k", "m", "period", "crashes"),
    quick={
        "clean_periods": 12,
        "crashes": 3,
        "settle_periods": 10.0,
        "epoch_periods": 15.0,
        "control_servers": 100,
    },
)
