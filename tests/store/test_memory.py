"""Payloads die by reference counting, not by the cycle collector.

A decoded value is the largest object a Get makes.  If anything that
outlives the op points back at whatever points at the value — a
completed handle's ``done`` event carrying the handle itself, say — the
value becomes cyclic garbage and stays in memory until a full
collection, which a long run reaches rarely.  This test runs a real-byte
mix with the collector switched off and then asks it what it would have
had to free: no payload, result, handle or metrics object may be among
it.
"""

import gc
import random

from repro import Payload, build_cluster
from repro.resilience.recovery import RepairManager
from repro.store.arpe import OpMetrics, RequestHandle
from repro.store.result import OpResult

KEYS = ["bulk-%02d" % i for i in range(48)]
VICTIMS = ["server-1", "server-2"]
PAYLOAD_TYPES = (Payload, OpResult, RequestHandle, OpMetrics)


def _mix():
    """6-server Era-CE-CD RS(3,2): Set and Get 48 ~256 KiB values, fail
    two servers, Get them all blocking and once more as one ``iget``
    batch, then restart both victims and repair them through one
    :class:`RepairManager`.  Returns the cluster (kept alive by the
    caller, so only op-scoped objects can become garbage) and the clock
    and event count just before the restart."""
    cluster = build_cluster(scheme="era-ce-cd", servers=6, k=3, m=2)
    client = cluster.add_client()
    rng = random.Random(7)
    values = {key: rng.randbytes(262144 + i) for i, key in enumerate(KEYS)}

    def body():
        for key, value in values.items():
            assert (yield from client.set(key, Payload.from_bytes(value)))
        for key, value in values.items():
            assert bytes((yield from client.get(key)).data) == value
        cluster.fail_servers(VICTIMS)
        for key, value in values.items():
            assert bytes((yield from client.get(key)).data) == value
        handles = [client.iget(key) for key in KEYS]
        yield client.wait(handles)
        for handle in handles:
            assert bytes(handle.result.value.data) == values[handle.key]

    cluster.sim.process(body())
    cluster.run()
    before_restart = (cluster.sim.now, cluster.sim.processed_events)
    cluster.recover_servers(VICTIMS)
    repair = RepairManager(cluster, cluster.scheme)
    for victim in VICTIMS:
        cluster.sim.run(cluster.sim.process(repair.repair_server(victim, KEYS)))
    assert repair.repaired_keys > 0
    return cluster, before_restart


def test_no_payload_is_cyclic_garbage():
    gc.collect()  # start from a clean slate: nothing left by earlier tests
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cluster, before_restart = _mix()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, PAYLOAD_TYPES)]
        census = {
            cls.__name__: sum(isinstance(obj, cls) for obj in leaked)
            for cls in PAYLOAD_TYPES
        }
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert census == dict.fromkeys(census, 0)
    # host memory only: the virtual clock and the engine are untouched
    assert before_restart == (0.025019744992481604, 4249)
    assert cluster.alive_servers()  # the cluster itself stayed referenced
