"""repro — reproduction of "High-Performance and Resilient Key-Value Store
with Online Erasure Coding for Big Data Workloads" (ICDCS 2017).

The package builds the paper's full stack in simulation:

- :mod:`repro.simulation` — deterministic discrete-event engine.
- :mod:`repro.network` — RDMA fabric model (QDR/FDR/EDR + IPoIB).
- :mod:`repro.ec` — GF(2^8) erasure codecs (RS-Vandermonde, Cauchy-RS,
  RAID-6 Liberation) plus the Figure-4-calibrated cost model.
- :mod:`repro.store` — Memcached-like servers and the non-blocking
  client/ARPE stack.
- :mod:`repro.resilience` — the paper's contribution: Sync/Async
  replication and the four online-erasure-coding placements.
- :mod:`repro.model` — the analytical latency models (Equations 1-8).
- :mod:`repro.obs` — span tracing, metrics, and Chrome-trace export.
- :mod:`repro.workloads` — OHB micro-benchmarks, YCSB, TestDFSIO.
- :mod:`repro.boldio` — the Boldio burst-buffer over a Lustre model.
- :mod:`repro.harness` — the experiment table: every figure, study and
  soak, with the claims its report must satisfy.

Quickstart::

    from repro import build_cluster, Payload

    cluster = build_cluster(scheme="era-ce-cd", servers=5, k=3, m=2)
    client = cluster.add_client()

    def app():
        yield from client.set("k", Payload.from_bytes(b"v" * 4096))
        value = yield from client.get("k")
        assert value.data == b"v" * 4096

    cluster.sim.process(app())
    cluster.run()
"""

from repro.common.payload import Payload
from repro.core.cluster import KVCluster, build_cluster
from repro.obs import MetricsRegistry, Tracer, write_chrome_trace
from repro.store.result import ErrorCode, OpResult

__version__ = "1.0.0"

__all__ = [
    "ErrorCode",
    "KVCluster",
    "MetricsRegistry",
    "OpResult",
    "Payload",
    "Tracer",
    "__version__",
    "build_cluster",
    "write_chrome_trace",
]
