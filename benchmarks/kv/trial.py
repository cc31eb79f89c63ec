"""One trial: fresh cluster, load, timed run, fault/repair, audit.

Drives the program through its public API only and checks every returned
value against a reference model kept here.  A trial yields three kinds of
numbers: host-clock (``time.perf_counter``), virtual-clock (the
simulator's ``now``) and exact counts.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Dict, Generator, Iterable, List, Optional, Sequence

from repro import ErrorCode, Payload, build_cluster
from repro.resilience.recovery import RepairManager
from repro.store.client import KVStoreError

from loadgen import DELETE, GET, SET, Op, gets_of


class CorrectnessError(Exception):
    """A correctness gate failed: wrong bytes, a lost acked key, a hung
    client, or virtual-clock results that differ between trials."""


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample (exact, so identical
    runs give identical values)."""
    if not ordered:
        raise CorrectnessError("no samples for a latency percentile")
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


PHASES = ("count", "queue", "encode", "request", "wait", "decode")


class Recorder:
    """Tallies of one phase of one trial."""

    def __init__(self, split_phases: bool = False):
        self.attempted = 0
        self.verified = 0
        self.failed = 0
        self.wrong: List[str] = []
        self.user_bytes = 0
        #: virtual time the last client loop of the phase finished
        self.finished_at = 0.0
        self.set_latency: List[float] = []
        self.get_latency: List[float] = []
        self.degraded_latency: List[float] = []
        #: Fig. 9 phase sums (seconds) per op class, traced trial only
        self.phases: Optional[Dict[str, Dict[str, float]]] = (
            {kind: dict.fromkeys(PHASES, 0.0) for kind in ("set", "get")}
            if split_phases
            else None
        )

    def add_phases(self, kind: str, m) -> None:
        row = self.phases[kind]
        row["count"] += 1
        row["queue"] += m.started_at - m.enqueued_at
        row["encode"] += m.encode_time
        row["request"] += m.request_time
        row["wait"] += m.wait_time
        row["decode"] += m.decode_time


class State:
    """What the client processes of one trial share."""

    def __init__(self, cluster, clients, workload: "Workload", split_phases: bool):
        self.cluster = cluster
        self.clients = clients
        self.keys = workload.keys
        self.payload = workload.payload
        self.matches = workload.matches
        self.split_phases = split_phases
        #: reference model: key -> (offset, size) of its live value
        self.model: Dict[str, tuple] = {}
        #: key -> value of the Set now in flight on it; kept only when
        #: clients read keys another client writes (``shared_keys``), where
        #: a Get may legally return any value whose Set overlapped it
        self.inflight: Optional[Dict[str, tuple]] = (
            {} if workload.shared_keys else None
        )
        #: servers crashed and not yet repaired
        self.dead: set = set()
        self.width = cluster.scheme.n
        self.rec = Recorder()
        self.recorders: Dict[str, Recorder] = {}
        #: (virtual seconds, bytes read, bytes restored, keys) of repairs
        self.repaired = [0.0, 0, 0, 0]

    def phase(self, name: str) -> Recorder:
        """Start a new phase; ops from here on tally into its recorder."""
        self.rec = self.recorders[name] = Recorder(
            self.split_phases and name == "run"
        )
        return self.rec

    def holder_down(self, key: str) -> bool:
        return not self.dead.isdisjoint(
            self.cluster.ring.placement(key, self.width)
        )

    # -- outcome checks --------------------------------------------------
    def check_get(
        self, rec: Recorder, handle, degraded: bool, overlapped: tuple = ()
    ) -> None:
        """``overlapped``: values that were live or being written when the
        Get was issued (legal besides the ones live or being written now)."""
        rec.attempted += 1
        result = handle.result
        expected = self.model.get(handle.key)
        if expected is None:
            if result.error is ErrorCode.NOT_FOUND:
                rec.verified += 1
            elif result.ok:
                rec.wrong.append("get %r returned a deleted value" % handle.key)
            else:
                rec.failed += 1
            return
        if not result.ok:
            rec.failed += 1
            return
        if not self.matches(result.value, *expected):
            if self.inflight is not None:
                overlapped += (self.inflight.get(handle.key),)
            expected = next(
                (v for v in overlapped if v and self.matches(result.value, *v)),
                None,
            )
            if expected is None:
                rec.wrong.append("get %r returned wrong bytes" % handle.key)
                return
        rec.verified += 1
        rec.user_bytes += expected[1]
        if degraded:
            rec.degraded_latency.append(handle.metrics.latency)
        else:
            rec.get_latency.append(handle.metrics.latency)
        if rec.phases is not None:
            rec.add_phases("get", handle.metrics)

    def check_set(self, rec: Recorder, handle, offset: int, size: int) -> None:
        rec.attempted += 1
        if not handle.result.ok:
            rec.failed += 1
            return
        self.model[handle.key] = (offset, size)
        rec.verified += 1
        rec.user_bytes += size
        rec.set_latency.append(handle.metrics.latency)
        if rec.phases is not None:
            rec.add_phases("set", handle.metrics)

    def check_delete(self, rec: Recorder, key: str, existed) -> None:
        rec.attempted += 1
        live = self.model.pop(key, None) is not None
        if existed is None or (live and not existed):
            rec.failed += 1
        elif existed and not live:
            rec.wrong.append("delete %r found a deleted value" % key)
        else:
            rec.verified += 1

    # -- driving ---------------------------------------------------------
    def drive(self, generators: Iterable[Generator]) -> float:
        """Run the processes to completion; returns host seconds."""
        sim = self.cluster.sim
        procs = [sim.process(g) for g in generators]
        start = time.perf_counter()
        self.cluster.run()
        elapsed = time.perf_counter() - start
        if not all(p.triggered for p in procs):
            raise CorrectnessError("a client process never completed")
        return elapsed

    def closed_loop(self, client, ops: Iterable[Op]):
        """One closed-loop client: issue, wait, check, (think,) next."""
        keys, rec, dead, sim = self.keys, self.rec, self.dead, self.cluster.sim
        model, inflight = self.model, self.inflight
        overlapped = ()
        for kind, key_index, offset, size, think in ops:
            key = keys[key_index]
            if kind == GET:
                degraded = bool(dead) and self.holder_down(key)
                if inflight is not None:
                    overlapped = (model.get(key), inflight.get(key))
                handle = client.iget(key)
                yield handle.done
                self.check_get(rec, handle, degraded, overlapped)
            elif kind == SET:
                if inflight is not None:
                    inflight[key] = (offset, size)
                handle = client.iset(key, self.payload(offset, size))
                yield handle.done
                self.check_set(rec, handle, offset, size)
                if inflight is not None:
                    del inflight[key]
            elif kind == DELETE:
                try:
                    existed = yield from client.delete(key)
                except KVStoreError:
                    existed = None
                self.check_delete(rec, key, existed)
            if think:
                yield sim.timeout(think)
        rec.finished_at = sim.now

    def batched_round(self, client, batches, write: bool, degraded: bool):
        """Non-blocking bulk I/O: post a batch, wait for all of it, check.

        ``batches`` is a list of lists of (key index, offset, size); with
        a batch wider than the client's ARPE window the surplus queues in
        the engine, as a burst-buffer flush does.
        """
        keys, rec = self.keys, self.rec
        for batch in batches:
            if write:
                handles = [
                    client.iset(keys[i], self.payload(offset, size))
                    for i, offset, size in batch
                ]
            else:
                handles = [client.iget(keys[i]) for i, _, _ in batch]
            yield client.wait(handles)
            for handle, (_, offset, size) in zip(handles, batch):
                if write:
                    self.check_set(rec, handle, offset, size)
                else:
                    self.check_get(rec, handle, degraded)
        rec.finished_at = self.cluster.sim.now

    # -- faults ----------------------------------------------------------
    def crash(self, victims: Sequence[str]) -> None:
        self.cluster.fail_servers(victims)
        self.dead.update(victims)

    def repair(
        self, victims: Sequence[str], since: Optional[float] = None
    ) -> Generator:
        """Process: rebuild what ``victims`` held; clears them from ``dead``.

        Recovery time counts from ``since`` (the crash) when given.
        """
        cluster = self.cluster
        start = cluster.sim.now if since is None else since
        manager = RepairManager(cluster, cluster.scheme)
        keys = cluster.scheme.known_keys()
        for victim in victims:
            yield from manager.repair_server(victim, keys)
        # stripe packing keeps pre-seal journal copies RepairManager cannot see
        journal_repair = getattr(cluster.scheme, "repair_server", None)
        if journal_repair is not None:
            client = cluster.add_client(name_hint="jrepair")
            client.default_lane = "bg"
            for victim in victims:
                yield from journal_repair(client, victim)
        self.dead.difference_update(victims)
        self.repaired[0] += cluster.sim.now - start
        self.repaired[1] += manager.bytes_read_for_repair
        self.repaired[2] += manager.repaired_bytes
        self.repaired[3] += manager.repaired_keys

    def restart_and_repair(self, victims: Sequence[str]) -> None:
        """Restart ``victims`` empty and rebuild their chunks onto them
        (a cluster of exactly k+m servers has no other substitute)."""
        self.cluster.recover_servers(victims)
        self.drive([self.repair(victims)])

    # -- bookkeeping -----------------------------------------------------
    def mark(self) -> dict:
        """Counters whose run-phase delta the trial reports."""
        cluster = self.cluster
        fabric = cluster.metrics.snapshot("fabric.")
        return {
            "now": cluster.sim.now,
            "events": cluster.sim.processed_events,
            "messages": fabric["fabric.messages"],
            "wire_bytes": fabric["fabric.bytes_sent"],
            "server_requests": sum(
                row["requests"] for row in cluster.server_stats()
            ),
        }


#: per-layer count -> the program's own counter in cluster.metrics.snapshot()
_PROGRAM_COUNTERS = {
    "resilience.degraded_reads": "reads.degraded",
    "resilience.read_repairs": "reads.read_repair",
    "resilience.chunk_retries": "writes.chunk_retries",
    "stripes.sealed": "stripes.sealed",
    "stripes.compactions": "stripes.compactions",
    "stripes.journal_writes": "stripes.journal_writes",
    "stripes.slice_reads": "stripes.slice_reads",
    "stripes.bytes_reclaimed": "stripes.bytes_reclaimed",
    "membership.moves": "rebuild.moves",
    "membership.reencode_moves": "rebuild.reencode_moves",
    "membership.rebuild_bytes": "rebuild.bytes",
}


class TrialResult:
    """Everything one trial measured."""

    def __init__(self):
        self.setup_s = 0.0
        self.run_s = 0.0
        self.run_ops = 0
        self.attempted = 0
        self.failed = 0
        #: exact virtual-clock and count metrics (must repeat bit for bit)
        self.sim: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        #: host seconds of named segments of the run phase
        self.segments: Dict[str, List[float]] = {}
        #: run-phase deltas and whole-trial counters (per-layer metrics)
        self.counts: Dict[str, float] = {}
        self.phases: Optional[Dict[str, Dict[str, float]]] = None
        self.tracer = None
        self.registry = None


class Workload:
    """A named workload: seeded inputs plus the trial that runs them.

    Subclasses set the cluster shape, build their inputs in ``__init__``
    and implement :meth:`load` and :meth:`run_phase`; the default
    :meth:`recover_phase` crashes one server, reads a sample of keys
    degraded, then restarts and repairs it.
    """

    name = ""
    why = ""
    profile = "sdsc-comet"
    servers = 5
    clients = 1
    client_hosts: Optional[int] = None
    window = 1
    #: clients read keys that another client writes (each key still has
    #: one writer): a Get may return any value whose Set overlapped it
    shared_keys = False
    #: values carry real bytes (size-only payloads never reach a codec kernel)
    real_bytes = True
    #: the servers the workload crashes (fixed names: which server dies
    #: must not depend on the seed, or ring shares add noise to recovery)
    victims: Sequence[str] = ("server-1",)
    #: degraded Gets per client in the default recover phase
    degraded_gets = 0

    keys: List[str]
    #: per key, the (offset, size) of the value the load phase stores
    initial: List[tuple]
    #: per client, the run phase's op stream
    streams: List[List[Op]]

    def features(self):
        return None

    def payload(self, offset: int, size: int) -> Payload:
        raise NotImplementedError

    def matches(self, value: Payload, offset: int, size: int) -> bool:
        raise NotImplementedError

    def load(self, st: State) -> None:
        st.drive(
            st.closed_loop(
                client,
                [(SET, i, *self.initial[i], 0.0) for i in self.partition(index)],
            )
            for index, client in enumerate(st.clients)
        )

    def run_phase(self, st: State, result: TrialResult) -> None:
        st.drive(
            st.closed_loop(client, ops)
            for client, ops in zip(st.clients, self.streams)
        )

    def partition(self, client_index: int) -> range:
        """Key indices owned by one client (disjoint across clients)."""
        return range(client_index, len(self.keys), self.clients)

    def recover_phase(self, st: State) -> None:
        st.crash(self.victims)
        st.drive(
            st.closed_loop(
                client, gets_of(self.partition(index)[: self.degraded_gets])
            )
            for index, client in enumerate(st.clients)
        )
        st.restart_and_repair(self.victims)

    def audit(self, st: State) -> None:
        """Read every key back; the model decides what each must return."""
        st.drive(
            st.closed_loop(client, gets_of(self.partition(index)))
            for index, client in enumerate(st.clients)
        )

    def trial(
        self,
        trace: bool = False,
        profiler=None,
        split_phases: bool = False,
        corrupt_model: bool = False,
    ) -> TrialResult:
        gc.collect()
        result = TrialResult()
        start = time.perf_counter()
        cluster = build_cluster(
            profile=self.profile,
            scheme="era-ce-cd",
            servers=self.servers,
            k=3,
            m=2,
            trace=trace,
            config=self.features(),
        )
        clients = [
            cluster.add_client(
                host=(
                    "host-%d" % (i % self.client_hosts)
                    if self.client_hosts
                    else None
                ),
                window=self.window,
            )
            for i in range(self.clients)
        ]
        st = State(cluster, clients, self, split_phases)
        st.phase("load")
        self.load(st)
        result.setup_s = time.perf_counter() - start

        if corrupt_model:
            # self-test hook: expect one byte more than was stored
            key, (offset, size) = next(iter(st.model.items()))
            st.model[key] = (offset, size + 1)

        run = st.phase("run")
        before = st.mark()
        if profiler is not None:
            profiler.enable()
        host_start = time.perf_counter()
        self.run_phase(st, result)
        result.run_s = time.perf_counter() - host_start
        if profiler is not None:
            profiler.disable()
        after = st.mark()

        st.phase("recover")
        self.recover_phase(st)
        st.phase("audit")
        self.audit(st)

        recorders = st.recorders.values()
        wrong = [w for rec in recorders for w in rec.wrong]
        if wrong:
            raise CorrectnessError(
                "%s: %d wrong values, first: %s" % (self.name, len(wrong), wrong[0])
            )
        audit = st.recorders["audit"]
        if audit.failed:
            raise CorrectnessError(
                "%s: audit lost %d acked keys" % (self.name, audit.failed)
            )
        result.attempted = sum(rec.attempted for rec in recorders)
        result.failed = sum(rec.failed for rec in recorders)
        result.run_ops = run.verified
        self._collect(st, result, before, after)
        if trace:
            result.tracer = cluster.tracer
            result.registry = cluster.metrics
        return result

    def _collect(self, st: State, result: TrialResult, before, after) -> None:
        cluster = st.cluster
        run = st.recorders["run"]
        degraded = run.degraded_latency + st.recorders["recover"].degraded_latency
        classes = {
            "sim_set": run.set_latency,
            "sim_get": run.get_latency,
            "sim_degraded_get": degraded,
        }
        for prefix, samples in classes.items():
            ordered = sorted(samples)
            # p99 needs ten samples beyond it; a smaller class reports p95
            tail = 99 if len(ordered) >= 1000 else 95
            result.sim[prefix + "_p50_us"] = percentile(ordered, 50) * 1e6
            result.sim[prefix + "_p99_us"] = percentile(ordered, tail) * 1e6
            result.samples[prefix] = len(ordered)
        # to the last client op, not to quiescence: background work
        # (seal timers, compaction) may trail the foreground
        duration = run.finished_at - before["now"]
        wire_bytes = after["wire_bytes"] - before["wire_bytes"]
        live_bytes = sum(size for _, size in st.model.values())
        repair_s, repair_read, repair_restored, repaired_keys = st.repaired
        if not repair_restored:
            raise CorrectnessError("%s: the repair restored nothing" % self.name)
        result.sim.update(
            sim_ops_per_s=run.verified / duration,
            verified_op_ratio=1.0 - result.failed / result.attempted,
            stored_bytes_per_user_byte=cluster.total_stored_bytes / live_bytes,
            wire_bytes_per_user_byte=wire_bytes / run.user_bytes,
            sim_recovery_s=repair_s,
            repair_bytes_read_per_byte_restored=repair_read / repair_restored,
        )

        ops = run.verified
        # by prefix: a full snapshot would also summarise every histogram
        counters = {}
        for prefix in ("reads.", "writes.", "stripes.", "rebuild."):
            counters.update(cluster.metrics.snapshot(prefix))
        events = after["events"] - before["events"]
        messages = after["messages"] - before["messages"]
        requests = after["server_requests"] - before["server_requests"]
        result.counts = {
            "simulation.events": events,
            "simulation.events_per_op": events / ops,
            "network.messages": messages,
            "network.messages_per_op": messages / ops,
            "network.wire_bytes": wire_bytes,
            "store.server_requests_per_op": requests / ops,
            "store.slab_evictions": cluster.total_evictions,
            "ec.bytes_coded": run.user_bytes if self.real_bytes else 0,
            "resilience.repaired_keys": repaired_keys,
            "resilience.repair_bytes_read": repair_read,
            "resilience.repair_bytes_restored": repair_restored,
        }
        for name, counter in _PROGRAM_COUNTERS.items():
            result.counts[name] = counters.get(counter, 0)
        result.phases = run.phases
