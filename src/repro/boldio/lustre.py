"""Lustre parallel-filesystem model.

The paper's RI-QDR cluster backs Boldio with a small HDD-based Lustre
setup (five storage nodes, 1 TB).  The model captures what matters for
Figure 13:

- a metadata server (MDS) charging a fixed service time per open/create;
- object storage targets (OSTs) on fabric endpoints, each with a
  FIFO-timeline disk: writes stream at ``ost_write_bandwidth`` (journaled,
  mostly sequential), reads at ``ost_read_bandwidth`` (many concurrent
  TestDFSIO streams seek against each other, so the effective rate is far
  below the sequential number — this asymmetry is what makes
  ``Lustre-Direct`` reads so slow in the paper);
- round-robin striping of 1 MB stripes across OSTs.

File *contents* are not stored — Lustre here is a persistence/timing
substrate; data integrity is exercised end-to-end in the KV layer above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.network.fabric import Fabric
from repro.simulation import Event, Simulator
from repro.store import protocol
from repro.store.hashring import stable_hash
from repro.store.protocol import Request, Response

MIB = 1024 * 1024

#: MDS service time per metadata operation (open/create/stat).
MDS_SERVICE_TIME = 40e-6


class DiskTimeline:
    """FIFO disk bandwidth reservation (same idea as a network Link)."""

    def __init__(self, sim: Simulator, write_bandwidth: float, read_bandwidth: float):
        self.sim = sim
        self.write_bandwidth = write_bandwidth
        self.read_bandwidth = read_bandwidth
        self.busy_until = 0.0
        self.bytes_written = 0
        self.bytes_read = 0

    def reserve(self, nbytes: int, is_write: bool) -> float:
        """Queue an I/O; returns the delay until it completes."""
        bandwidth = self.write_bandwidth if is_write else self.read_bandwidth
        start = max(self.sim.now, self.busy_until)
        end = start + nbytes / bandwidth
        self.busy_until = end
        if is_write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes
        return end - self.sim.now


class OstServer:
    """One object storage target: a fabric endpoint fronting a disk."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        name: str,
        write_bandwidth: float,
        read_bandwidth: float,
    ):
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.endpoint = fabric.add_node(name)
        self.disk = DiskTimeline(sim, write_bandwidth, read_bandwidth)
        self.requests_served = 0
        sim.process(self._dispatch_loop(), name="%s.dispatch" % name)

    def _dispatch_loop(self) -> Generator:
        while True:
            message = yield self.endpoint.inbox.get()
            request = message.payload
            if isinstance(request, Request):
                self.sim.process(self._serve(request))

    def _serve(self, request: Request) -> Generator:
        self.requests_served += 1
        if request.op == "ost_write":
            size = request.value.size if request.value else 0
            yield self.sim.timeout(self.disk.reserve(size, is_write=True))
            response = Response(
                req_id=request.req_id, ok=True, server=self.name
            )
        elif request.op == "ost_read":
            size = int(request.meta.get("size", 0))
            yield self.sim.timeout(self.disk.reserve(size, is_write=False))
            from repro.common.payload import Payload

            response = Response(
                req_id=request.req_id,
                ok=True,
                server=self.name,
                value=Payload.sized(size),
            )
        else:
            response = Response(
                req_id=request.req_id,
                ok=False,
                server=self.name,
                error=protocol.ERR_UNKNOWN_OP,
            )
        send = self.fabric.send(
            self.name,
            request.reply_to,
            size=response.wire_size(),
            payload=response,
            tag=protocol.TAG_RESPONSE,
        )
        send.defuse()


@dataclass
class LustreFile:
    """Metadata for one file (size known after writes complete)."""

    path: str
    size: int = 0
    stripe_count: int = 0
    created_at: float = 0.0


class LustreFS:
    """The filesystem facade: MDS bookkeeping + striped OST I/O.

    Clients are any fabric endpoints with a :class:`PendingTable` whose
    dispatch loop routes responses (KV clients, Boldio servers, and the
    TestDFSIO DataNode drivers all qualify).
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        num_osts: int = 5,
        stripe_size: int = MIB,
        ost_write_bandwidth: float = 440e6,
        ost_read_bandwidth: float = 195e6,
    ):
        if num_osts < 1:
            raise ValueError("need at least one OST")
        self.sim = sim
        self.fabric = fabric
        self.stripe_size = stripe_size
        self.osts = [
            OstServer(
                sim,
                fabric,
                "ost-%d" % i,
                write_bandwidth=ost_write_bandwidth,
                read_bandwidth=ost_read_bandwidth,
            )
            for i in range(num_osts)
        ]
        self.files: Dict[str, LustreFile] = {}
        self._mds_busy_until = 0.0

    # -- metadata ---------------------------------------------------------
    def _mds_delay(self) -> float:
        """FIFO MDS service queue: one metadata op at a time."""
        start = max(self.sim.now, self._mds_busy_until)
        end = start + MDS_SERVICE_TIME
        self._mds_busy_until = end
        return end - self.sim.now

    def create(self, path: str) -> Event:
        """Create (or truncate) a file; returns the MDS completion event."""
        self.files[path] = LustreFile(
            path=path, stripe_count=len(self.osts), created_at=self.sim.now
        )
        return self.sim.timeout(self._mds_delay())

    def stat(self, path: str) -> Optional[LustreFile]:
        """File metadata, or None when absent (no MDS time charged)."""
        return self.files.get(path)

    def exists(self, path: str) -> bool:
        """Whether the path has been created."""
        return path in self.files

    # -- striping ---------------------------------------------------------
    def ost_for(self, path: str, stripe_index: int) -> OstServer:
        """Round-robin striping with a per-file starting offset."""
        base = stable_hash(path) % len(self.osts)
        return self.osts[(base + stripe_index) % len(self.osts)]

    # -- data path ----------------------------------------------------------
    def write_stripe(
        self,
        node,
        path: str,
        stripe_index: int,
        size: int,
    ) -> Event:
        """Write one stripe from ``node`` (non-blocking; event on ack).

        ``node`` must expose ``name``, ``pending`` and a request sequence
        like :class:`repro.store.server.MemcachedServer` does.
        """
        from repro.common.payload import Payload

        file = self.files.get(path)
        if file is None:
            raise KeyError("write to non-existent file %r" % path)
        file.size = max(file.size, stripe_index * self.stripe_size + size)
        ost = self.ost_for(path, stripe_index)
        request = Request(
            op="ost_write",
            key="%s#%d" % (path, stripe_index),
            req_id=node.next_req_id(),
            reply_to=node.name,
            value=Payload.sized(size),
        )
        return protocol.issue_request(self.fabric, node.pending, request, ost.name)

    def read_stripe(
        self,
        node,
        path: str,
        stripe_index: int,
        size: int,
    ) -> Event:
        """Read one stripe into ``node`` (non-blocking; event on data)."""
        ost = self.ost_for(path, stripe_index)
        request = Request(
            op="ost_read",
            key="%s#%d" % (path, stripe_index),
            req_id=node.next_req_id(),
            reply_to=node.name,
            meta={"size": size},
        )
        return protocol.issue_request(self.fabric, node.pending, request, ost.name)

    # -- accounting ------------------------------------------------------------
    @property
    def total_bytes_written(self) -> int:
        """Bytes landed on all OST disks."""
        return sum(o.disk.bytes_written for o in self.osts)

    @property
    def total_bytes_read(self) -> int:
        """Bytes served from all OST disks."""
        return sum(o.disk.bytes_read for o in self.osts)
