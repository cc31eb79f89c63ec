"""The overload soak: an open-loop ramp far past server CPU capacity.

Operations are issued on a fixed clock whether or not earlier ones
completed — *warm* at a sustainable rate, a *ramp* flood, *recover* back
at the warm rate — against single-threaded, CPU-throttled servers, so
the bottleneck is the resource admission control governs.  Two claims:
recover-phase goodput (successes within the SLO, attributed to the
issuing phase) reaches ``goodput_floor`` of warm-phase goodput, and every
op ever issued resolves to a typed result.  ``contrast`` reruns each seed
unprotected and requires *that* run to fail the goodput claim.
EXPERIMENTS.md ("Overload soak") has the reasoning and measured ratios.

The seed fans out to chaos, then each client's issuance stream.  Issue
times count from the ``flood`` ``soak.phase`` event.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from repro.common.payload import Payload
from repro.harness import soak
from repro.harness.experiment import Claim, Experiment, run
from repro.store.client import KVStoreError
from repro.store.policy import RetryPolicy

KIB = 1024

#: issue-time phase tags, in order
PHASES = ("warm", "ramp", "recover")


@dataclass
class OverloadConfig:
    """One ramp soak's shape.  Times are virtual seconds."""

    seed: int = 0
    net_profile: str = "ri-qdr"
    scheme: str = "era-ce-cd"
    servers: int = 6
    k: int = 3
    m: int = 2
    #: message-level background noise; node faults stay off on purpose
    fault_profile: str = "flashcrowd"
    #: the knob under test: admission control + client-side guard on/off
    protection: bool = True
    num_clients: int = 4
    key_space: int = 48
    value_size: int = 4 * KIB
    set_fraction: float = 0.5
    #: single-threaded, CPU-throttled servers: the bottleneck admission
    #: control actually governs (wire queues cannot be shed)
    worker_threads: int = 1
    cpu_throttle: float = 300.0
    #: phase durations
    warm: float = 0.4
    ramp: float = 0.4
    recover: float = 0.8
    #: cluster-wide open-loop issue rates (ops per virtual second)
    base_rate: float = 1500.0
    ramp_rate: float = 14000.0
    #: an op "counts" toward goodput when it succeeds within this budget
    slo: float = 0.05
    #: recover-phase goodput must reach this fraction of warm-phase goodput
    goodput_floor: float = 0.8
    #: head of the warm/recover windows excluded from goodput accounting
    #: (warmup transient / backlog still draining right at the ramp edge)
    settle: float = 0.2


#: per-request deadline and retry shape shared by both modes — only the
#: protection machinery differs, so the contrast is apples to apples.
_SOAK_POLICY = RetryPolicy(
    request_timeout=0.02,
    op_deadline=0.25,
    max_retries=3,
    hedge=True,
)


def _ramp(config: OverloadConfig, seeds):
    """One ramp run, protected or not as the config says."""
    cluster = soak.build_soak_cluster(
        config, policy=_SOAK_POLICY, worker_threads=config.worker_threads
    )
    if config.protection:
        cluster.config.with_overload().with_admission_control()
    for server in cluster.servers.values():
        server.cpu_throttle = config.cpu_throttle
    sim = cluster.sim
    # the kernel's chaos engine and seeded clients, driven open-loop here
    # instead of by its closed-loop workers
    run = soak.RegisterSoak(config, cluster, seeds, name_hint="ramp")
    clients = run.clients

    duration = config.warm + config.ramp + config.recover
    #: phase -> [start, end) as offsets from the moment the flood opens
    bounds = {
        "warm": (0.0, config.warm),
        "ramp": (config.warm, config.warm + config.ramp),
        "recover": (config.warm + config.ramp, duration),
    }
    #: every handle ever issued; a handle carries its op, issue time
    #: (``metrics.enqueued_at``), completion time and typed result
    issued_handles: list = []

    def _phase_of(offset: float) -> str:
        return next(
            (name for name in PHASES if offset < bounds[name][1]), "recover"
        )

    def _issue(client, rng, tag: str, seqs: dict) -> None:
        key = "%s:k%03d" % (tag, rng.randrange(config.key_space))
        if rng.random() < config.set_fraction:
            seqs[key] = seqs.get(key, 0) + 1
            data = soak.value_bytes(key, seqs[key], config.value_size)
            issued_handles.append(client.iset(key, Payload.from_bytes(data)))
        else:
            issued_handles.append(client.iget(key))

    def _issuer(client, rng, tag: str):
        seqs: dict = {}
        t0 = soak.marked_at(cluster, "flood")
        while True:
            offset = sim.now - t0
            if offset >= duration:
                return
            ramping = _phase_of(offset) == "ramp"
            rate = (
                config.ramp_rate if ramping else config.base_rate
            ) / config.num_clients
            yield sim.timeout(rng.expovariate(rate))
            if sim.now - t0 >= duration:
                return
            _issue(client, rng, tag, seqs)

    def _driver():
        # Prefill every client's key range with blocking Sets so the
        # workload's Gets hit real stripes, then open the floodgates.
        for index, client in enumerate(clients):
            for knum in range(config.key_space):
                key = "c%d:k%03d" % (index, knum)
                data = soak.value_bytes(key, 0, config.value_size)
                try:
                    yield from client.set(key, Payload.from_bytes(data))
                except KVStoreError:
                    pass
        soak.mark(cluster, "flood")
        run.chaos.start(horizon=duration)
        for index, (client, rng) in enumerate(zip(clients, run.rngs)):
            sim.process(
                _issuer(client, rng, "c%d" % index),
                name="%s-load" % client.name,
            )

    sim.process(_driver(), name="overload-driver")
    cluster.run()  # to quiescence: every handle resolves or times out
    run.heal()

    # -- no silent losses: every handle resolved ---------------------------
    t0 = soak.marked_at(cluster, "flood")
    unresolved = [
        {
            "op": h.op,
            "phase": _phase_of(h.metrics.enqueued_at - t0),
            "issued_at": round(h.metrics.enqueued_at, 6),
        }
        for h in issued_handles
        if h.result is None
    ]

    # -- goodput recovery --------------------------------------------------
    # the head of the warm/recover windows is excluded (see ``settle``)
    windows = {
        name: (t0 + start + (0.0 if name == "ramp" else config.settle), t0 + end)
        for name, (start, end) in bounds.items()
    }
    phases = {}
    for phase in PHASES:
        start, end = windows[phase]
        issued = [
            h for h in issued_handles if start <= h.metrics.enqueued_at < end
        ]
        results = [
            (h.result, h.metrics.latency) for h in issued if h.result is not None
        ]
        ok_latencies = [latency for result, latency in results if result.ok]
        good = sum(1 for latency in ok_latencies if latency <= config.slo)
        span = end - start
        phases[phase] = {
            "window": [round(start - t0, 6), round(end - t0, 6)],
            "issued": len(issued),
            "ok": len(ok_latencies),
            "within_slo": good,
            "busy_rejected": sum(
                1 for result, _ in results if result.error.name == "SERVER_BUSY"
            ),
            "timed_out": sum(
                1 for result, _ in results if result.error.name == "TIMEOUT"
            ),
            "degraded": sum(1 for result, _ in results if result.is_degraded),
            "goodput": round(good / span, 3) if span > 0 else 0.0,
            "latency": soak.latency_summary(ok_latencies, unit="ms", digits=4),
        }

    pre = phases["warm"]["goodput"]
    post = phases["recover"]["goodput"]
    goodput_ratio = round(post / pre, 4) if pre > 0 else None

    # -- protection-machinery observability --------------------------------
    snapshot = run.metrics("server", "client", "reads", "writes")
    aimd = {"shrinks": 0, "grows": 0}
    for client in clients:
        if client.guard is not None:
            aimd["shrinks"] += client.guard.aimd.shrinks
            aimd["grows"] += client.guard.aimd.grows
    names = {client.name for client in clients}
    breaker_trips = sum(e.fields["client"] in names
                        for e in cluster.events.query("overload.breaker"))
    brownout_transitions = sorted(
        [round(e.time - t0, 6), e.fields["old"], e.fields["new"]]
        for e in cluster.events.query("overload.brownout")
        if e.fields["client"] in names
    )

    def _counter(name: str) -> int:
        value = snapshot.get(name, 0)
        return value if isinstance(value, int) else 0

    protection = {
        "enabled": config.protection,
        "server_busy_rejects": sum(
            _counter("server.%s.rejected" % name) for name in cluster.servers
        ),
        "server_sheds": sum(
            _counter("server.%s.shed" % name) for name in cluster.servers
        ),
        "breaker_fast_fails": _counter("client.breaker.fast_fails"),
        "breaker_transitions": breaker_trips,
        "aimd": aimd,
        "brownout_transitions": brownout_transitions,
        "read_repair": {
            "enqueued": _counter("client.read_repair.enqueued"),
            "dropped": _counter("client.read_repair.dropped"),
        },
        "cancels_sent": _counter("client.cancels_sent"),
    }

    return {
        "goodput_ratio": goodput_ratio,
        "goodput_floor": config.goodput_floor,
        "unresolved": unresolved,
        "phases": phases,
        "protection": protection,
        "metrics": snapshot,
        "ops_issued": len(issued_handles),
        "fault_events": len(cluster.events.query("chaos.fault")),
        "virtual_time": sim.now,
        "events": soak.event_log(cluster),
    }


def _recovered(report: dict) -> bool:
    ratio = report["goodput_ratio"]
    return ratio is not None and ratio >= report["goodput_floor"]


_LINE = (
    "goodput {goodput_ratio} (warm {phases[warm][goodput]:.0f} -> "
    "recover {phases[recover][goodput]:.0f} ops/s, floor "
    "{goodput_floor}), issued {ops_issued}, busy-rejects "
    "{protection[server_busy_rejects]}, sheds {protection[server_sheds]}, "
    "fast-fails {protection[breaker_fast_fails]}"
)
_CONTRAST_LINE = "; unprotected goodput {unprotected[goodput_ratio]}"


def _describe(report: dict) -> str:
    template = _LINE + (_CONTRAST_LINE if "unprotected" in report else "")
    return template.format_map(report)


def _body(config: OverloadConfig, seeds, contrast: bool = False):
    """The ramp; with ``contrast`` the same seed is also run unprotected
    and must fail the goodput claim there — proving the claim has teeth,
    not that the ramp is trivially survivable."""
    report = _ramp(config, seeds)
    if contrast:
        if not config.protection:
            raise ValueError("contrast compares against a protected run")
        bare = run(SPEC, dataclasses.replace(config, protection=False))
        report["unprotected"] = {
            key: bare[key]
            for key in ("goodput_ratio", "phases", "claims", "digest")
        }
    return report


SPEC = Experiment(
    name="overload",
    title=(
        "open-loop ramp soak: admission control, breakers and brownout "
        "must recover goodput after a flood; --contrast proves the "
        "unprotected run does not"
    ),
    params=OverloadConfig,
    runner=soak.runner(_body, soak.chaos_then_clients),
    render=soak.summary(_describe),
    claims=(
        Claim(
            "overload.every_op_resolves_to_a_typed_result", "Section I-A",
            lambda report: not report["unresolved"],
        ),
        Claim("overload.goodput_recovers_after_the_ramp", "Section I-A",
              _recovered),
        # holds vacuously without --contrast
        Claim(
            "overload.unprotected_goodput_does_not_recover", "Section I-A",
            lambda report: "unprotected" not in report
            or not report["unprotected"]["claims"][
                "overload.goodput_recovers_after_the_ramp"
            ],
        ),
    ),
    flags=("scheme", "servers", "k", "m", "fault_profile", "protection"),
    options=("contrast",),
)
