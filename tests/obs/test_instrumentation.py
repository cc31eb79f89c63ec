"""End-to-end instrumentation: spans and metrics from real runs.

The tentpole assertions live here — most importantly that the ARPE's
pipelining makes a client *encode* span overlap an in-flight fabric
*transfer* span (the paper's T_encode-hiding claim, Section IV-A), which
scalar latency numbers can never show.
"""

import json

import pytest

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.harness.figures import fig11_12_ycsb
from repro.obs.trace import NullTracer, Tracer
from repro.workloads.ycsb import WORKLOAD_A

KIB = 1024
MIB = 1024 * 1024


def drive(cluster, gen):
    return cluster.sim.run(cluster.sim.process(gen))


@pytest.fixture
def traced_cluster():
    return build_cluster(
        scheme="era-ce-cd",
        servers=5,
        memory_per_server=256 * MIB,
        trace=True,
    )


class TestClusterWiring:
    def test_trace_flag_attaches_real_tracer(self, traced_cluster):
        assert isinstance(traced_cluster.tracer, Tracer)
        client = traced_cluster.add_client()
        assert client.tracer is traced_cluster.tracer
        assert traced_cluster.fabric.tracer is traced_cluster.tracer
        for server in traced_cluster.servers.values():
            assert server.tracer is traced_cluster.tracer

    def test_untraced_cluster_uses_null_tracer(self):
        cluster = build_cluster(
            scheme="era-ce-cd", servers=5, memory_per_server=256 * MIB
        )
        assert isinstance(cluster.tracer, NullTracer)
        client = cluster.add_client()

        def body():
            yield from client.set("k", Payload.sized(64 * KIB))

        drive(cluster, body())
        assert cluster.tracer.finished_spans() == []

    def test_shared_metrics_registry(self, traced_cluster):
        client = traced_cluster.add_client()
        assert client.metrics is traced_cluster.metrics
        assert traced_cluster.fabric.metrics is traced_cluster.metrics


class TestSpanEmission:
    def test_blocking_set_emits_span_tree(self, traced_cluster):
        client = traced_cluster.add_client()

        def body():
            yield from client.set("k", Payload.sized(256 * KIB))

        drive(traced_cluster, body())
        tracer = traced_cluster.tracer
        (op,) = tracer.by_category("op")
        assert op.name == "set:k"
        child_cats = {s.category for s in tracer.children_of(op)}
        # era-ce-cd Set: client encode, per-chunk posts, transfers, wait
        assert {"encode", "post", "transfer", "wait"} <= child_cats

    def test_get_emits_decode_and_server_service(self, traced_cluster):
        client = traced_cluster.add_client()

        def body():
            yield from client.set("k", Payload.sized(256 * KIB))
            yield from client.get("k")

        drive(traced_cluster, body())
        tracer = traced_cluster.tracer
        assert tracer.by_category("decode")
        service = tracer.by_category("server-service")
        assert service
        assert all(s.track.startswith("server-") for s in service)

    def test_set_emits_server_service_per_chunk(self, traced_cluster):
        client = traced_cluster.add_client()
        value = Payload.from_bytes(bytes(range(256)) * 64)

        def body():
            yield from client.set("k", value)

        drive(traced_cluster, body())
        service = traced_cluster.tracer.by_category("server-service")
        placement = traced_cluster.ring.placement("k", 5)
        assert sorted(s.track for s in service) == sorted(placement)
        assert {s.name for s in service} == {"service:set"}
        # each span covers the CRC-stamped store, from arrival to reply
        assert all(s.finished and s.duration > 0 for s in service)
        assert all(s.args["ok"] for s in service)

    def test_transfer_spans_live_on_net_tracks(self, traced_cluster):
        client = traced_cluster.add_client()

        def body():
            yield from client.set("k", Payload.sized(64 * KIB))

        drive(traced_cluster, body())
        transfers = traced_cluster.tracer.by_category("transfer")
        assert transfers
        assert all(s.track.startswith("net:") for s in transfers)

    def test_nonblocking_handles_close_op_spans(self, traced_cluster):
        client = traced_cluster.add_client()

        def body():
            handles = [
                client.iset("k%d" % i, Payload.sized(64 * KIB))
                for i in range(4)
            ]
            yield client.wait(handles)

        drive(traced_cluster, body())
        ops = traced_cluster.tracer.by_category("op")
        assert len(ops) == 4
        assert all(s.finished for s in ops)
        assert all(s.args.get("ok") for s in ops)


class TestEncodeTransferOverlap:
    def test_pipelined_sets_hide_encode_behind_transfer(self, traced_cluster):
        """The tentpole: with the ARPE window open, operation i+1's encode
        runs while operation i's chunks are still on the wire."""
        client = traced_cluster.add_client(window=4)

        def body():
            handles = [
                client.iset("k%d" % i, Payload.sized(MIB)) for i in range(8)
            ]
            yield client.wait(handles)

        drive(traced_cluster, body())
        tracer = traced_cluster.tracer
        assert tracer.by_category("encode")
        pairs = tracer.overlapping_pairs("encode", "transfer")
        assert pairs, "no encode span overlapped any transfer span"
        # and the overlapping spans belong to different operations
        assert any(e.parent_id != t.parent_id for e, t in pairs)

    def test_blocking_sets_do_not_overlap_own_transfer(self):
        """One blocking op at a time: its encode strictly precedes its own
        transfers (sanity check on the span timestamps)."""
        cluster = build_cluster(
            scheme="era-ce-cd", servers=5, memory_per_server=256 * MIB,
            trace=True,
        )
        client = cluster.add_client()

        def body():
            yield from client.set("k", Payload.sized(MIB))

        drive(cluster, body())
        (encode,) = cluster.tracer.by_category("encode")
        transfers = cluster.tracer.by_category("transfer")
        assert all(t.start >= encode.end for t in transfers)


class TestMetricsUnderLoad:
    def test_saturating_imget_burst_populates_histograms(self):
        cluster = build_cluster(
            scheme="era-ce-cd", servers=5, memory_per_server=256 * MIB
        )
        client = cluster.add_client(window=2, buffer_pool=4)

        def body():
            set_handles = [
                client.iset("k%d" % i, Payload.sized(64 * KIB))
                for i in range(32)
            ]
            yield client.wait(set_handles)
            handles = client.imget(["k%d" % i for i in range(32)])
            yield client.wait(handles)
            return handles

        handles = drive(cluster, body())
        assert all(h.result.ok for h in handles)
        occupancy = cluster.metrics.histogram("arpe.window_occupancy")
        buffer_wait = cluster.metrics.histogram("arpe.buffer_wait")
        assert occupancy.count == 64
        assert occupancy.maximum == 2  # the window saturates
        assert buffer_wait.count == 64
        assert buffer_wait.maximum > 0  # 32 ops queued behind 4 buffers

    def test_fabric_counters_accumulate(self):
        cluster = build_cluster(
            scheme="era-ce-cd", servers=5, memory_per_server=256 * MIB
        )
        client = cluster.add_client()

        def body():
            yield from client.set("k", Payload.sized(64 * KIB))

        drive(cluster, body())
        assert cluster.metrics.counter("fabric.bytes_sent").value > 64 * KIB
        assert cluster.metrics.counter("fabric.messages").value >= 5

    def test_server_queue_depth_observed(self):
        # The histogram records queue *transitions*: single-threaded
        # workers plus a burst of concurrent ops force real queueing,
        # and every enqueue/dequeue must be observed with a non-zero
        # depth somewhere in the burst.
        cluster = build_cluster(
            scheme="era-ce-cd",
            servers=5,
            memory_per_server=256 * MIB,
            worker_threads=1,
        )
        client = cluster.add_client()
        for server in cluster.servers.values():
            # gray-node throttle: service time dwarfs arrival spacing,
            # so the single worker thread actually builds a queue
            server.cpu_throttle = 200.0

        def body():
            handles = [
                client.iset("k%d" % i, Payload.sized(256 * KIB))
                for i in range(8)
            ]
            yield client.wait(handles)

        drive(cluster, body())
        hists = [
            cluster.metrics.histogram("server.%s.queue_depth" % name)
            for name in cluster.servers
        ]
        assert sum(h.count for h in hists) > 0
        assert max(h.maximum for h in hists if h.count) > 0

    def test_server_queue_depth_silent_when_uncontended(self):
        # An uncontended request never queues, so the depth histogram
        # must stay empty — the old once-per-arrival observation recorded
        # a meaningless zero for every request.
        cluster = build_cluster(
            scheme="era-ce-cd", servers=5, memory_per_server=256 * MIB
        )
        client = cluster.add_client()

        def body():
            yield from client.set("k", Payload.sized(64 * KIB))

        drive(cluster, body())
        depths = [
            cluster.metrics.histogram("server.%s.queue_depth" % name).count
            for name in cluster.servers
        ]
        assert sum(depths) == 0

    def test_degraded_reads_counted(self):
        cluster = build_cluster(
            scheme="era-ce-cd", servers=5, memory_per_server=256 * MIB
        )
        client = cluster.add_client(window=1)

        def body():
            yield from client.set("k", Payload.sized(64 * KIB))
            # the first K placement servers hold the data chunks; killing
            # two of them forces a parity-assisted (degraded) read
            cluster.fail_servers(cluster.ring.placement("k", 5)[:2])
            value = yield from client.get("k")
            return value

        value = drive(cluster, body())
        assert value is not None
        assert cluster.metrics.counter("reads.degraded").value == 1

    def test_slab_eviction_counters(self):
        cluster = build_cluster(
            scheme="no-rep", servers=1, memory_per_server=3 * MIB
        )
        client = cluster.add_client()

        def body():
            for i in range(8):
                yield from client.set("k%d" % i, Payload.sized(MIB))

        drive(cluster, body())
        evictions = sum(
            cluster.metrics.counter("slab.%s.evictions" % name).value
            for name in cluster.servers
        )
        assert evictions > 0
        assert evictions == cluster.total_evictions


class TestHarnessTraceExport:
    def test_ycsb_writes_valid_chrome_trace_with_overlap(self, tmp_path):
        """Acceptance: a traced YCSB run exports Chrome trace JSON in which
        some client encode span overlaps an in-flight transfer span."""
        fig11_12_ycsb(
            workloads=(WORKLOAD_A,),
            value_sizes=(64 * KIB,),
            schemes=("era-ce-cd",),
            num_clients=4,
            client_hosts=2,
            record_count=60,
            ops_per_client=30,
            trace_dir=str(tmp_path),
        )
        trace_files = sorted(tmp_path.glob("*.trace.json"))
        assert len(trace_files) == 1
        assert trace_files[0].name == "ycsb-ycsb-a-era-ce-cd-65536.trace.json"
        with open(trace_files[0]) as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        assert any(e["ph"] == "M" for e in events)
        encodes = [
            e for e in events if e["ph"] == "X" and e["cat"] == "encode"
        ]
        transfers = [
            e for e in events if e["ph"] == "X" and e["cat"] == "transfer"
        ]
        assert encodes and transfers
        assert any(
            enc["ts"] < xfer["ts"] + xfer["dur"]
            and xfer["ts"] < enc["ts"] + enc["dur"]
            for enc in encodes
            for xfer in transfers
        ), "no encode event overlapped a transfer event in the exported trace"
        # metrics snapshot rides along in otherData
        assert doc["otherData"]["metrics"]["arpe.submitted"] > 0
