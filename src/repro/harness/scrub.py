"""The scrub soak: bit rot vs. the background scrubber, with four gates.

*Bounded detection* — a monitor watches the server caches against the
ground-truth ``chaos.rot`` events; every rot event must be purged
by any path within ``ttd_bound_periods`` scan periods.  *No data loss* —
the kernel's register model and sweep, and no CRC-mismatched item left
in any cache.  *Honest certificates* — every certifying audit must agree
with a synchronous chunk-presence + CRC scan of the certain acked keys.
*Foreground isolation* — Get p99 within ``p99_ratio_limit`` of a paired
baseline run with only ``with_scrubbing`` removed.  EXPERIMENTS.md
("Scrub soak") has the reasoning and measured numbers.

The seed fans out to chaos, the scrubber, then each client — the scrub
seed is drawn even for the baseline, so both runs see identical chaos
and workload streams.  The digest covers op counts, the rot count,
scrub counters and violations.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List

from repro.harness import soak
from repro.harness.experiment import Claim, Experiment
from repro.resilience.erasure import chunk_key


@dataclass
class ScrubSoakConfig:
    """One scrub-soak run's shape.  Times are virtual seconds."""

    seed: int = 0
    duration: float = 2.0
    net_profile: str = "ri-qdr"
    scheme: str = "era-ce-cd"
    servers: int = 6
    k: int = 3
    m: int = 2
    fault_profile: str = "rot"
    num_clients: int = 2
    key_space: int = 64
    value_size: int = 8 * 1024
    set_fraction: float = 0.4
    #: mean think time between a client's operations — deliberately lazy
    #: (vs. the chaos soak's 2 ms) so most keys go cold between touches:
    #: the scrubber, not foreground read luck, must find the rot
    op_gap: float = 8e-3
    # -- scrubbing ------------------------------------------------------
    scan_period: float = 0.25
    audit_period: float = 0.5
    epsilon: float = 1e-2
    p_bound: float = 0.1
    #: keep scrubbing this many scan periods past the rot horizon so
    #: end-of-run rot still gets a full pass to be found
    drain_periods: float = 3.0
    # -- gates ----------------------------------------------------------
    #: every rot event must be purged within this many scan periods
    ttd_bound_periods: float = 3.0
    #: foreground Get p99 with scrubbing <= limit * no-scrub baseline
    p99_ratio_limit: float = 1.5
    #: also run the no-scrub baseline for the p99 gate (the baseline
    #: deliberately skips the durability gates: without a scrubber, rot
    #: is *expected* to linger)
    baseline: bool = True


#: scrubber counters echoed in the report and covered by the digest
_SCRUB_COUNTERS = (
    "chunks_verified", "corrupt_found", "repairs_triggered", "bytes_read",
)


def _crc_mismatch(item) -> bool:
    expected = item.meta.get("crc")
    return expected is not None and zlib.crc32(item.data) != expected


def _run_phase(config: ScrubSoakConfig, seeds, scrubbing: bool) -> dict:
    """One seeded run: workload + rot chaos, scrubber on or off."""
    cluster = soak.build_soak_cluster(config)
    cluster.config.with_admission_control()
    sim = cluster.sim
    scheme = cluster.scheme
    tolerated = scheme.tolerated_failures

    horizon = config.duration + config.drain_periods * config.scan_period
    scrubber = None
    if scrubbing:
        cluster.config.with_scrubbing(
            scan_period=config.scan_period,
            audit_period=config.audit_period,
            epsilon=config.epsilon,
            p_bound=config.p_bound,
            seed=seeds["scrub"],
        )
        scrubber = cluster.scrubber
        scrubber.start(horizon)

    run = soak.RegisterSoak(
        config,
        cluster,
        seeds,
        name_hint="soak",
        extra_violations=(
            "undetected_rot",
            "slow_detection",
            "audit_contradictions",
            "residual_corruption",
        ),
    )
    chaos, violations = run.chaos, run.violations
    chaos.start(config.duration)

    # -- ground-truth helpers ---------------------------------------------
    def _item_corrupt(holder: str, skey: str) -> bool:
        """Whether ``holder`` currently stores rotten bytes under ``skey``."""
        server = cluster.servers.get(holder)
        item = server.cache.peek(skey) if server is not None else None
        return item is not None and item.data is not None and _crc_mismatch(item)

    def _bad_chunks(key: str) -> int:
        """Chunks of ``key`` that are absent or CRC-mismatched right now."""
        bad = 0
        for index, holder in enumerate(scheme.chunk_servers(cluster.ring, key)):
            server = cluster.servers.get(holder)
            item = (
                server.cache.peek(chunk_key(key, index))
                if server is not None and server.alive
                else None
            )
            if item is None or (item.data is not None and _crc_mismatch(item)):
                bad += 1
        return bad

    # -- gate 1: bounded detection (ground truth, any detection path) -----
    ttd_bound = config.ttd_bound_periods * config.scan_period
    ttd_truth: List[float] = []

    def _rot_monitor():
        pending: Dict[int, tuple] = {}
        cursor = 0
        while True:
            for rot in cluster.events.query("chaos.rot")[cursor:]:
                pending[cursor] = (
                    rot.time, rot.fields["server"], rot.fields["key"]
                )
                cursor += 1
            for entry_id in sorted(pending):
                when, holder, skey = pending[entry_id]
                if not _item_corrupt(holder, skey):
                    # purged: scrub/foreground read dropped it, a repair
                    # or overwrite replaced it — the rot is gone
                    age = sim.now - when
                    ttd_truth.append(age)
                    if age > ttd_bound:
                        violations["slow_detection"].append(
                            {"server": holder, "key": skey,
                             "rotted_at": when, "purged_at": sim.now}
                        )
                    del pending[entry_id]
            if sim.now >= horizon:
                break
            yield sim.timeout(config.scan_period / 4.0)
        for when, holder, skey in pending.values():
            violations["undetected_rot"].append(
                {"server": holder, "key": skey, "rotted_at": when}
            )

    # -- gate 3: certificates vs ground truth ------------------------------
    def _on_audit(report) -> None:
        if not report.certified:
            return
        bad_keys = [
            key
            for model in run.models
            for key in sorted(model.acked)
            if model.certain(key)
            and key not in model.inflight
            and _bad_chunks(key) > tolerated
        ]
        if bad_keys:
            violations["audit_contradictions"].append(
                {"time": report.time, "keys": bad_keys}
            )

    if scrubbing:
        sim.process(_rot_monitor(), name="rot-monitor")
        scrubber.on_audit = _on_audit

    run.start_workers(until=config.duration)
    cluster.run()  # workload + rot + scrub loops all drain at `horizon`
    run.heal()

    if scrubbing:
        # gate 2: the clean-room sweep, then no rotten bytes left anywhere
        # (only the scrub run is gated)
        run.sweep()
        for name in sorted(cluster.servers):
            for skey in cluster.servers[name].cache.keys():
                if _item_corrupt(name, skey):
                    violations["residual_corruption"].append(
                        {"server": name, "key": skey}
                    )

    phase = {
        "ops": run.ops(
            "set_attempts", "set_acks", "set_failures", "get_attempts",
            "unavailable", get_ok=("hit", "uncertain-hit"),
        ),
        "violations": violations,
        "rot_injected": len(cluster.events.query("chaos.rot")),
        "get_latency": soak.latency_summary(run.latencies("get")),
        "virtual_time": sim.now,
    }
    if scrubbing:
        snapshot = cluster.metrics.snapshot("scrub.")
        audits = [e.fields for e in cluster.events.query("scrub.audit")]
        phase["scrub"] = {
            **{n: snapshot.get("scrub." + n, 0) for n in _SCRUB_COUNTERS},
            "passes": scrubber.passes,
            "time_to_detect": snapshot.get("scrub.time_to_detect") or {},
            "time_to_heal": snapshot.get("scrub.time_to_heal") or {},
            "ttd_truth_max": max(ttd_truth) if ttd_truth else 0.0,
            "ttd_truth_count": len(ttd_truth),
            "ttd_bound": ttd_bound,
            "audits": audits,
            "audits_certified": sum(1 for a in audits if a["certified"]),
        }
    return phase


def _body(config: ScrubSoakConfig, seeds):
    scrub_phase = _run_phase(config, seeds, scrubbing=True)
    baseline_phase = (
        _run_phase(config, seeds, scrubbing=False) if config.baseline else None
    )

    violations = scrub_phase["violations"]
    p99_ratio = None
    if baseline_phase is not None:
        scrub_p99 = (scrub_phase["get_latency"] or {}).get("p99_us")
        base_p99 = (baseline_phase["get_latency"] or {}).get("p99_us")
        if scrub_p99 and base_p99:
            p99_ratio = scrub_p99 / base_p99

    report = dict(
        scrub_phase,
        baseline_get_latency=(
            baseline_phase["get_latency"] if baseline_phase else None
        ),
        p99_ratio=p99_ratio,
        p99_ratio_limit=config.p99_ratio_limit,
    )
    digest = {
        "ops": scrub_phase["ops"],
        "rot_injected": scrub_phase["rot_injected"],
        "scrub": {
            name: scrub_phase["scrub"][name]
            for name in _SCRUB_COUNTERS + ("passes", "audits_certified")
        },
        "violations": violations,
    }
    return report, digest


SPEC = Experiment(
    name="scrub",
    title=(
        "integrity-scrubbing soak: bit rot vs the background scanner; "
        "bounded detection, no loss, honest audits, foreground p99"
    ),
    params=ScrubSoakConfig,
    # the scrub seed is drawn even for the baseline, so both runs see
    # identical chaos and workload streams
    runner=soak.runner(
        _body,
        lambda config: (
            [("chaos", 64), ("scrub", 32)]
            + soak.client_streams(config.num_clients)
        ),
        (
            "seed", "duration", "scheme", "fault_profile", "servers", "k",
            "m", "scan_period", "audit_period", "epsilon", "p_bound",
        ),
    ),
    render=soak.summary((
        "rot {rot_injected} injected, scrub found {scrub[corrupt_found]} / "
        "repaired {scrub[repairs_triggered]} ({scrub[chunks_verified]} "
        "verifies, {scrub[passes]} passes), ttd max "
        "{scrub[ttd_truth_max]:.3f}s (bound {scrub[ttd_bound]:.2f}s), "
        "{scrub[audits_certified]} audits certified, sets "
        "{ops[set_acks]}/{ops[set_attempts]} acked, gets {ops[get_ok]} ok, "
        "get p99 ratio {p99_ratio}"
    ).format_map),
    claims=(
        Claim(
            "scrub.rot_detected_in_bound", "Section VI-D",
            soak.no_violations("undetected_rot", "slow_detection"),
        ),
        Claim(
            "scrub.no_data_loss", "Section VI-D",
            soak.no_violations(
                "lost_writes", "wrong_bytes", "residual_corruption"
            ),
        ),
        Claim(
            "scrub.certificates_honest", "Section VI-D",
            soak.no_violations("audit_contradictions"),
        ),
        # holds vacuously without the no-scrub baseline
        Claim(
            "scrub.foreground_p99_within_limit", "Section VI-D",
            lambda report: report["p99_ratio"] is None
            or report["p99_ratio"] <= report["p99_ratio_limit"],
        ),
    ),
    flags=(
        "duration", "scheme", "servers", "k", "m", "fault_profile",
        "scan_period", "audit_period", "epsilon", "p_bound",
    ),
)
