"""The soak kernel: what every seeded, gated soak shares.

A soak is an :class:`~repro.harness.experiment.Experiment` whose
parameters are a config dataclass with a ``seed``.  Its ``body(config,
seeds, **options)`` runs the phases and returns the report's blocks;
:func:`runner` adapts it, drawing ``seeds`` from the config's seed in
the soak's declared stream order.  A report carries the run cluster's
event log as its ``events`` block (:func:`event_log`), phase boundaries
included as ``soak.phase`` events (:func:`mark`).  Its claims are
predicates over the report, and :func:`summary` prints one line per
seed plus any violation the run recorded.

The four model-checked soaks (chaos, scale, stripes, scrub) build on
:class:`RegisterSoak`: a hardened cluster under a
:class:`~repro.faults.engine.ChaosEngine`, driven by closed-loop
single-writer clients that each check every read against one
:class:`RegisterModel`, with in-run and final crash repair and a healed
clean-room sweep.

The model's legality rules, per key: an acknowledged Set makes exactly
its bytes legal; an acknowledged Delete makes only a miss legal; a
*failed* Set or Delete leaves the key uncertain, and every outcome that
was legal before stays legal next to the one the failed op would have
produced.  A read outside the legal set is a violation: a miss on a
certain acknowledged key is a *lost write*, bytes after an acknowledged
Delete are a *ghost read*, anything else is *wrong bytes*.  Reads that
raise while faults are active count as unavailability, not violations.
"""

from __future__ import annotations

import collections
import random
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Optional
from typing import Sequence, Set, Tuple

from repro.common.payload import Payload
from repro.common.stats import Summary
from repro.faults.engine import ChaosEngine
from repro.store.client import KVStoreError
from repro.store.policy import HARDENED_POLICY

#: read verdicts that are not violations
LEGAL_VERDICTS = ("hit", "uncertain-hit", "miss")
#: violating verdict -> (the report's violation list, recorded reason)
_VIOLATIONS = {
    "lost-write": ("lost_writes", "miss"),
    "wrong-bytes": ("wrong_bytes", "mismatch"),
    "ghost-read": ("ghost_reads", "deleted-readable"),
}


# ---------------------------------------------------------------------------
# A soak as an experiment: seeds, runner, summary, claims
# ---------------------------------------------------------------------------


def fan_out(seed: int, order: Iterable[Tuple[str, int]]) -> Dict[str, int]:
    """Independent sub-seeds drawn from ``seed`` in the declared order."""
    master = random.Random(seed)
    return {name: master.getrandbits(bits) for name, bits in order}


def client_streams(count: int) -> List[Tuple[str, int]]:
    """The per-client workload streams, 64 bits each."""
    return [("client-%d" % index, 64) for index in range(count)]


def chaos_then_clients(config) -> List[Tuple[str, int]]:
    """The common draw order: the chaos engine, then each client."""
    return [("chaos", 64)] + client_streams(config.num_clients)


def runner(
    body: Callable[..., dict],
    streams: Callable[..., Sequence[Tuple[str, int]]],
):
    """A soak body as an experiment runner: ``streams(config)`` gives the
    ``(stream, bits)`` pairs drawn from the config's seed, in order
    (changing it changes every digest)."""
    return lambda config, **options: body(
        config, fan_out(config.seed, streams(config)), **options
    )


def mark(cluster, label: str) -> None:
    """Log a soak phase boundary: a ``soak.phase`` event named ``label``."""
    cluster.events.emit("soak.phase", label=label)


def marked_at(cluster, label: str) -> float:
    """The virtual time of the first ``soak.phase`` event named ``label``."""
    return next(event.time for event in cluster.events.query("soak.phase")
                if event.fields["label"] == label)


def event_log(cluster) -> List[list]:
    """The cluster's event log as ``[time, kind, fields]`` rows: a soak
    report's ``events`` block."""
    return [[event.time, event.kind, event.fields]
            for event in cluster.events.query()]


def summary(describe: Callable[[dict], str]) -> Callable[[dict], str]:
    """A soak report's body: its seed's one-line ``describe``, then every
    violation the run recorded."""

    def render(report: dict) -> str:
        lines = ["seed %d: %s" % (report["params"]["seed"], describe(report))]
        lines.extend(
            "  %s: %s" % (kind, violation)
            for kind, entries in sorted(report.get("violations", {}).items())
            for violation in entries
        )
        return "\n".join(lines)

    return render


def no_violations(*kinds: str) -> Callable[[dict], bool]:
    """A claim that the report recorded no violation of ``kinds``; by
    default, durability: no lost write, wrong bytes or ghost read."""
    kinds = kinds or tuple(kind for kind, _ in _VIOLATIONS.values())
    return lambda report: not any(report["violations"].get(k) for k in kinds)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def value_bytes(key: str, seq: int, size: int) -> bytes:
    """Deterministic, per-write-unique payload bytes."""
    stamp = ("%s#%d|" % (key, seq)).encode()
    reps = size // len(stamp) + 1
    return (stamp * reps)[:size]


def latency_summary(
    samples: Sequence[float], unit: str = "us", digits: int = 3
) -> Optional[dict]:
    """Count/mean/percentiles of ``samples`` (seconds) in ``unit``."""
    if not samples:
        return None
    summary = Summary.of(samples).scaled({"us": 1e6, "ms": 1e3}[unit])
    out = {"count": summary.count, "max_" + unit: round(summary.maximum, digits)}
    for name in ("mean", "p50", "p95", "p99"):
        out["%s_%s" % (name, unit)] = round(getattr(summary, name), digits)
    return out


def peak_rss_mib() -> Optional[float]:
    """Peak resident set size of this process in MiB (None if unknown)."""
    try:
        import resource
    except ImportError:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform == "darwin":
        return rss / (1024.0 * 1024.0)
    return rss / 1024.0


def build_soak_cluster(
    config, *, scheme: Optional[str] = None, policy=HARDENED_POLICY, **extra
):
    """Cluster-from-config: build, harden with ``policy``, bound peer waits."""
    from repro.core.cluster import build_cluster

    cluster = build_cluster(
        profile=config.net_profile,
        scheme=scheme or config.scheme,
        servers=config.servers,
        k=config.k,
        m=config.m,
        **extra,
    )
    if policy is not None:
        cluster.config.harden(policy)
        for server in cluster.servers.values():
            server.peer_timeout = policy.request_timeout
    return cluster


# ---------------------------------------------------------------------------
# The per-key register model
# ---------------------------------------------------------------------------


class RegisterModel:
    """What one single-writer client may legally read back, per key."""

    def __init__(self, name: str):
        self.name = name
        #: key -> bytes of the last acknowledged Set (kept while the key
        #: is uncertain; dropped by an acknowledged Delete)
        self.acked: Dict[str, bytes] = {}
        #: keys whose last acknowledged op was a Delete, none failed since
        self.deleted: Set[str] = set()
        #: key -> legal read outcomes (bytes or None for a miss) after a
        #: failed Set/Delete left the key in an unknown state
        self.uncertain: Dict[str, Set[Optional[bytes]]] = {}
        #: keys with a Set issued and not yet resolved
        self.inflight: Set[str] = set()
        self.seq = 0
        #: op counters (``set_attempts``, ``unavailable``, ...) and the
        #: run-stage tally of read verdicts
        self.counts: collections.Counter = collections.Counter()

    def keys_touched(self) -> Set[str]:
        """Every key with an op issued, resolved or still in flight."""
        return (
            set(self.acked) | self.deleted | set(self.uncertain) | self.inflight
        )

    def certain(self, key: str) -> bool:
        """Whether ``key`` must read back its acknowledged bytes."""
        return key in self.acked and key not in self.uncertain

    def legal(self, key: str) -> Set[Optional[bytes]]:
        """The read outcomes legal right now."""
        if key in self.uncertain:
            return set(self.uncertain[key])
        if key in self.acked:
            return {self.acked[key]}
        return {None}

    def note_set(self, key: str, data: bytes, ok: bool) -> None:
        self.counts["set_acks" if ok else "set_failures"] += 1
        if ok:
            self.acked[key] = data
            self.uncertain.pop(key, None)
        else:
            self.uncertain[key] = self.legal(key) | {data}
        self.deleted.discard(key)

    def note_delete(self, key: str, ok: bool) -> None:
        self.counts["delete_acks" if ok else "delete_failures"] += 1
        if ok:
            self.acked.pop(key, None)
            self.uncertain.pop(key, None)
            self.deleted.add(key)
        else:
            self.uncertain[key] = self.legal(key) | {None}
            self.deleted.discard(key)

    def check(self, key: str, data: Optional[bytes]) -> str:
        """Verdict for reading ``data`` (None = miss) from ``key``."""
        if data in self.legal(key):
            if data is None:
                return "miss"
            return "uncertain-hit" if key in self.uncertain else "hit"
        if key in self.uncertain:
            return "wrong-bytes"
        if data is None:
            return "lost-write"
        # bytes where the key is certain: stale/foreign for an acked
        # key, a resurrection for a deleted or never-written one
        return "wrong-bytes" if key in self.acked else "ghost-read"


# ---------------------------------------------------------------------------
# The model-checked workload under chaos
# ---------------------------------------------------------------------------


class RegisterSoak:
    """A cluster under chaos, driven by model-checked closed-loop clients.

    ``seeds`` is the spec's fan-out: ``client-<i>`` seeds one workload
    stream each, and ``chaos`` (when drawn) seeds the engine — without
    it the run has no chaos engine at all.  Crash repair rebuilds
    ``repair_keys()`` (default: every key the models track) and retries
    until ``repair_done(name)`` (default: no acked key is missing a
    chunk on the server).
    """

    def __init__(
        self,
        config,
        cluster,
        seeds: Mapping[str, int],
        *,
        name_hint: str,
        max_degraded: Optional[int] = None,
        extra_violations: Sequence[str] = (),
        repair_keys: Optional[Callable[[], List[str]]] = None,
        repair_done: Optional[Callable[[str], bool]] = None,
    ):
        self.config = config
        self.cluster = cluster
        self.sim = cluster.sim
        self.chaos: Optional[ChaosEngine] = None
        if "chaos" in seeds:
            self.chaos = ChaosEngine(
                cluster,
                config.fault_profile,
                seed=seeds["chaos"],
                max_degraded=max_degraded,
            )
        self.violations: Dict[str, list] = {
            kind: []
            for kind in ("lost_writes", "wrong_bytes", *extra_violations)
        }
        #: (completion time, latency) of every Get that returned bytes
        self.get_hits: List[Tuple[float, float]] = []
        self.clients = []
        self.models: List[RegisterModel] = []
        self.rngs = []
        for index in range(config.num_clients):
            client = cluster.add_client(name_hint=name_hint)
            self.clients.append(client)
            self.models.append(RegisterModel(client.name))
            self.rngs.append(random.Random(seeds["client-%d" % index]))
        self._repair_keys = repair_keys or self.tracked_keys
        self._repair_done = repair_done or (
            lambda name: not self.holes_on(name)
        )

    # -- the workload ------------------------------------------------------
    def start_workers(
        self,
        until: Optional[float] = None,
        stop: Optional[Callable[[], bool]] = None,
        size_of: Optional[Callable[[str, int], int]] = None,
    ) -> None:
        """Start one closed-loop Set/Get process per client (plus Deletes
        when the config has a ``delete_fraction``).

        A worker leaves once the virtual clock passes ``until`` (the op
        it was thinking about still runs) or as soon as ``stop()`` turns
        true (checked again after every think, so no op follows it).
        """
        for client, rng, model in zip(self.clients, self.rngs, self.models):
            self.sim.process(
                self._worker(client, rng, model, until, stop, size_of),
                name="%s-load" % client.name,
            )

    def _worker(self, client, rng, model, until, stop, size_of):
        config, sim = self.config, self.sim
        delete_fraction = getattr(config, "delete_fraction", 0.0)
        write_fraction = delete_fraction + config.set_fraction
        while (until is None or sim.now < until) and not (stop and stop()):
            yield sim.timeout(rng.expovariate(1.0 / config.op_gap))
            if stop is not None and stop():
                return
            key = "%s:k%03d" % (model.name, rng.randrange(config.key_space))
            roll = rng.random()
            if roll < delete_fraction:
                model.counts["delete_attempts"] += 1
                try:
                    yield from client.delete(key)
                except KVStoreError:
                    model.note_delete(key, ok=False)
                else:
                    model.note_delete(key, ok=True)
            elif roll < write_fraction:
                model.seq += 1
                model.counts["set_attempts"] += 1
                size = (
                    size_of(key, model.seq) if size_of else config.value_size
                )
                data = value_bytes(key, model.seq, size)
                model.inflight.add(key)
                try:
                    acked = yield from client.set(key, Payload.from_bytes(data))
                except KVStoreError:
                    acked = False
                model.inflight.discard(key)
                model.note_set(key, data, ok=bool(acked))
            else:
                model.counts["get_attempts"] += 1
                started = sim.now
                try:
                    value = yield from client.get(key)
                except KVStoreError:
                    model.counts["unavailable"] += 1
                    continue
                if value is not None and value.has_data:
                    self.get_hits.append((sim.now, sim.now - started))
                model.counts[self.check_read(model, key, value, "run")] += 1

    def check_read(self, model: RegisterModel, key, value, stage: str) -> str:
        """Judge one read against the model; record any violation."""
        data = value.data if value is not None and value.has_data else None
        verdict = model.check(key, data)
        if verdict not in LEGAL_VERDICTS:
            kind, reason = _VIOLATIONS[verdict]
            if key in model.uncertain:
                reason = "uncertain-mismatch"
            self.violations.setdefault(kind, []).append(
                {"key": key, "stage": stage, "reason": reason}
            )
        return verdict

    # -- crash repair ------------------------------------------------------
    def tracked_keys(self) -> List[str]:
        """Every key any client ever touched, sorted."""
        return sorted(set().union(*(m.keys_touched() for m in self.models)))

    def holes_on(self, name: str) -> List[str]:
        """Acked keys still mapping a chunk onto ``name`` that it lacks."""
        from repro.resilience.erasure import chunk_key

        scheme = self.cluster.scheme
        server = self.cluster.servers.get(name)
        if server is None or not hasattr(scheme, "chunk_servers"):
            return []
        holes = []
        for model in self.models:
            for key in model.acked:
                placed = scheme.chunk_servers(self.cluster.ring, key)
                if any(
                    holder == name
                    and (
                        not server.alive
                        or server.cache.peek(chunk_key(key, index)) is None
                    )
                    for index, holder in enumerate(placed)
                ):
                    holes.append(key)
        return holes

    def repair_on_crash(self, throttle=None) -> None:
        """Rebuild every crashed server in-run, freeing its fault budget."""
        if self.chaos is not None:
            self.chaos.on_crash = lambda name: self.sim.process(
                self._repair([name], attempts=3, settle=0.01, throttle=throttle),
                name="soak-repair-%s" % name,
            )

    def _repair(self, names, attempts: int, settle: float, throttle=None):
        from repro.resilience.recovery import RepairManager

        scheme = self.cluster.scheme
        manager = RepairManager(self.cluster, scheme, throttle=throttle)
        # stripe packing keeps pre-seal journal copies the chunk repair
        # cannot see; the scheme re-replicates those itself
        journal_repair = getattr(scheme, "repair_server", None)
        if journal_repair is not None:
            journal_client = self.cluster.add_client(name_hint="jrepair")
            journal_client.default_lane = "bg"
        for name in names:
            for _attempt in range(attempts):
                if settle:
                    yield self.sim.timeout(settle)
                yield from manager.repair_server(name, self._repair_keys())
                if journal_repair is not None:
                    yield from journal_repair(journal_client, name)
                if self._repair_done(name):
                    break
            self.chaos.mark_repaired(name)

    # -- heal, final repair, clean-room sweep ------------------------------
    def heal(self) -> None:
        """End the chaos: heal every fault and detach the engine."""
        if self.chaos is not None:
            self.chaos.heal_all()
            self.chaos.uninstall()

    def final_repairs(self) -> None:
        """Repair servers still unrepaired at the horizon, to quiescence."""
        if self.chaos is None:
            return
        leftovers = sorted(self.chaos.unrepaired & set(self.cluster.servers))
        if leftovers:
            self.sim.process(
                self._repair(leftovers, attempts=1, settle=0.0),
                name="soak-final-repair",
            )
            self.cluster.run()

    def sweep(self) -> None:
        """Re-read every touched key through a fresh client and judge it."""

        def _sweep():
            client = self.cluster.add_client(name_hint="sweep")
            for model in self.models:
                for key in sorted(model.keys_touched()):
                    try:
                        value = yield from client.get(key)
                    except KVStoreError as exc:
                        if model.certain(key):
                            self.violations["lost_writes"].append(
                                {"key": key, "stage": "sweep",
                                 "reason": str(exc)}
                            )
                        continue
                    self.check_read(model, key, value, "sweep")

        self.sim.process(_sweep(), name="soak-sweep")
        self.cluster.run()

    def finish(self) -> None:
        """Heal, repair what is left, sweep."""
        self.heal()
        self.final_repairs()
        self.sweep()

    # -- report blocks -----------------------------------------------------
    def ops(self, *names: str, get_ok: Sequence[str] = ("hit",)) -> dict:
        """Summed op counters plus ``get_ok`` over the named verdicts."""
        out = {
            name: sum(model.counts[name] for model in self.models)
            for name in names
        }
        out["get_ok"] = sum(
            model.counts[verdict] for model in self.models for verdict in get_ok
        )
        return out

    def metrics(self, *groups: str) -> dict:
        """The metrics snapshot filtered to the named top-level groups."""
        snapshot = self.cluster.metrics.snapshot()
        return {
            name: value
            for name, value in sorted(snapshot.items())
            if name.split(".")[0] in groups
        }

    def latencies(self, kind: str) -> List[float]:
        samples: List[float] = []
        for client in self.clients:
            samples.extend(client.latencies(kind))
        return samples

    def corruption_detected(self) -> int:
        return sum(
            server.corruption_detected
            for server in self.cluster.servers.values()
        )
