"""Failure injection and (extension) background repair.

The paper evaluates degraded reads under "maximum tolerable server
failures" (Figure 8(c)) but leaves recovery optimization to future work.
:class:`FailureInjector` drives the failure schedules for those
experiments; :class:`RepairManager` implements the natural extension — a
background process that re-materializes the chunks a dead server held onto
the remaining live nodes, restoring full fault tolerance.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, Tuple

from repro.simulation import REBUILD_WINDOW, Event, Simulator, run_window


class FailureInjector:
    """Schedules server crashes and recoveries at fixed virtual times.

    Every injected crash and restart is written through the cluster's
    membership table too — the failure detector and the chaos engine
    then share one source of liveness truth, so a node can never be
    simultaneously "detector-suspect" and "chaos-recovered" (the
    double-bookkeeping bug the membership tests pin down) — and is a
    ``chaos.fault`` event (``fail``/``recover``) in its event log.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.sim: Simulator = cluster.sim

    def _set_alive(self, name: str, alive: bool) -> None:
        server, table = self.cluster.servers[name], self.cluster.membership
        if alive:
            server.recover()
            table.mark_alive(name)
        else:
            server.fail()
            table.mark_dead(name)
        self.cluster.events.emit(
            "chaos.fault", fault="recover" if alive else "fail", detail=name
        )

    def _at(self, name: str, when: float, alive: bool) -> Event:
        if name not in self.cluster.servers:
            raise KeyError("unknown server %r" % name)
        timer = self.sim.timeout(max(0.0, when - self.sim.now))
        timer.callbacks.append(lambda _event: self._set_alive(name, alive))
        return timer

    def fail_at(self, server_name: str, when: float) -> Event:
        """Crash ``server_name`` at virtual time ``when``."""
        return self._at(server_name, when, alive=False)

    def recover_at(self, server_name: str, when: float) -> Event:
        """Restart ``server_name`` (empty memory) at virtual time ``when``."""
        return self._at(server_name, when, alive=True)

    def fail_now(self, server_names: Iterable[str]) -> None:
        """Immediately crash the given servers."""
        for name in server_names:
            self._set_alive(name, False)

    def recover_now(self, server_names: Iterable[str]) -> None:
        """Immediately restart the given servers (empty memory)."""
        for name in server_names:
            self._set_alive(name, True)


class RepairManager:
    """Extension: rebuild the chunks a failed server held.

    For every erasure-coded key that placed a chunk on the failed node,
    :meth:`ErasureScheme.rebuild_chunks` re-derives what was lost from
    the survivors; this class decides where each rebuilt chunk goes,
    paces the traffic and keeps the repair counters.  Keys are repaired
    :data:`~repro.simulation.REBUILD_WINDOW` at a time through the
    rebuild scheduler's worker window (:func:`~repro.simulation.run_window`).

    One decode restores every chunk of a key its gather proved lost, not
    only the failed node's: after a double failure the second victim's
    chunks often come back while the first is repaired.  The manager
    remembers what it restored, so a later :meth:`repair_server` pass
    does not rebuild a chunk that is still held where it was written.
    """

    def __init__(self, cluster, scheme, throttle=None):
        self.cluster = cluster
        #: a stripe-packing wrapper repairs through the erasure scheme
        #: that stores its carriers — unwrapped here, once, for everyone
        self.scheme = getattr(scheme, "inner", scheme)
        self.sim: Simulator = cluster.sim
        #: optional :class:`repro.membership.rebuild.BandwidthThrottle` —
        #: when the cluster runs a rebuild scheduler, repair traffic
        #: shares its bandwidth cap instead of bursting unmetered
        self.throttle = throttle
        self.repaired_keys = 0
        self.repaired_bytes = 0
        self.local_repairs = 0
        self.bytes_read_for_repair = 0
        #: (key, index) -> (server, its crash count) of every chunk this
        #: manager wrote: held there until that server crashes again
        self._restored: Dict[Tuple[str, int], Tuple[str, int]] = {}

    def repair_server(self, failed_name: str, keys: Iterable[str]) -> Generator:
        """Process generator: repair ``failed_name``'s chunks of ``keys``,
        :data:`~repro.simulation.REBUILD_WINDOW` keys at a time.

        Keys start in order; each worker runs one key's gather, decode
        and write-backs before taking the next.  The throttle, when set,
        paces all workers together.  A chunk an earlier pass of this
        manager already restored onto ``failed_name`` is skipped while
        that node has not crashed since.  Returns how many keys this pass
        left whole (repaired or already restored).
        """
        client = self.cluster.add_client(name_hint="repair")
        # repair traffic rides the background lane: admission-controlled
        # servers never let it starve foreground Gets/Sets
        client.default_lane = "bg"
        whole = 0

        def repair(key: str) -> Generator:
            nonlocal whole
            if (yield from self._repair_key(client, key, failed_name)):
                whole += 1
                self.repaired_keys += 1

        yield from run_window(
            self.sim, keys, repair, REBUILD_WINDOW, name="repair-worker"
        )
        return whole

    def _held(self, key: str, index: int, name: str) -> bool:
        """Whether this manager wrote chunk ``index`` of ``key`` onto
        ``name`` and that node has not crashed since."""
        server = self.cluster.servers.get(name)
        return (
            server is not None
            and self._restored.get((key, index)) == (name, server.crashes)
        )

    def _repair_key(self, client, key: str, failed_name: str) -> Generator:
        from repro.resilience.erasure import chunk_key  # cycle avoidance

        scheme = self.scheme
        # The failed node may hold chunks beyond its ring assignment —
        # earlier repairs relocate rebuilt chunks to substitutes — so
        # repair against the *actual* chunk locations, relocations
        # included, or relocated chunks silently stay lost.
        locations = scheme.chunk_servers(self.cluster.ring, key)
        placed = [
            index
            for index, name in enumerate(locations)
            if name == failed_name
        ]
        if not placed:
            return False
        missing = [
            index for index in placed
            if not self._held(key, index, failed_name)
        ]
        if not missing:
            return True
        rebuilt = yield from scheme.rebuild_chunks(client, key, missing)
        if rebuilt is None:
            return False
        read, chunks, local = rebuilt
        if local:
            self.local_repairs += 1

        # Place each chunk on a live node holding no other chunk of this
        # key.  Only the *surviving* holders are excluded: a victim that
        # restarted empty is the natural home for what it lost (and on a
        # cluster of exactly n servers, the only one).  A chunk the
        # gather proved lost goes back to the live holder that lost it,
        # its current location.
        used = {
            name
            for index, name in enumerate(locations)
            if index not in missing
        }
        all_ok = True
        restored = 0
        unpaced = read  # the gather's bytes are paced and counted once
        for index, (chunk, meta) in chunks.items():
            if index in missing:
                target = next(scheme.substitutes(client.fabric, used), None)
                if target is None:
                    all_ok = False
                    continue
            else:
                target = locations[index]
            if self.throttle is not None:
                yield from self.throttle.acquire(unpaced + chunk.size)
                unpaced = 0
            response = yield client.request(
                target, "set", chunk_key(key, index), value=chunk, meta=meta
            )
            if not response.ok:
                if index in missing:
                    all_ok = False
                continue
            restored += chunk.size
            if not response.meta.get("stale"):
                # a stale drop means a concurrent overwrite superseded the
                # rebuilt version; its own placement is authoritative,
                # not this one
                self._restored[(key, index)] = (
                    target, self.cluster.servers[target].crashes
                )
                if index in missing:
                    scheme.record_relocation(key, index, target)
        if restored:
            self.repaired_bytes += restored
            self.bytes_read_for_repair += read
        return all_ok
