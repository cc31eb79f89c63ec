"""The metric catalogue: every name the benchmark emits, in one place.

``BENCHMARK.json`` at the repository root lists exactly these names
(``run.py --print-manifest`` regenerates it; a self-test compares the two).
What the manifest's fixed keys cannot hold -- which clock a number comes
from and which end-to-end metric a layer metric is expected to move --
is recorded here and printed by ``run.py``.

Clocks: ``host`` is wall time (``time.perf_counter``) and varies run to
run; ``sim`` is the simulator's virtual clock and ``count`` an exact
tally -- both repeat bit for bit for one seed, so between two runs of one
seed *any* difference is a behaviour change.  The bounds below are wider
than that only because the acceptance procedure compares runs of
*different* seeds: each is about three times the quartile spread measured
across ten seeds on the reference box (see README.md).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" | "lower"
    clock: str  # "host" | "sim" | "count"
    #: end-to-end only: share of the parent's median it may worsen by
    bound: Optional[float]
    #: per-layer: what it should move and where; end-to-end: what it is
    note: str


END_TO_END: List[Metric] = [
    Metric("host_ops_per_s", "1/s", "higher", "host", 0.25,
           "verified client ops per wall second of the run phase"),
    Metric("setup_s", "s", "lower", "host", 0.25,
           "wall seconds for build_cluster + client attach + load phase"),
    Metric("host_peak_rss_mib", "MiB", "lower", "host", 0.20,
           "ru_maxrss of the benchmark process"),
    Metric("sim_set_p50_us", "us", "lower", "sim", 0.03,
           "Set issue-to-completion latency, median (paper Fig. 8/11)"),
    Metric("sim_set_p99_us", "us", "lower", "sim", 0.25,
           "Set latency tail: p99, or p95 under 1,000 samples"),
    Metric("sim_get_p50_us", "us", "lower", "sim", 0.03,
           "Get latency with every holder up, median"),
    Metric("sim_get_p99_us", "us", "lower", "sim", 0.25,
           "Get latency tail: p99, or p95 under 1,000 samples"),
    Metric("sim_degraded_get_p50_us", "us", "lower", "sim", 0.15,
           "latency of Gets issued while a holder of the key is down, median"),
    Metric("sim_degraded_get_p99_us", "us", "lower", "sim", 0.05,
           "degraded Get latency tail: p99, or p95 under 1,000 samples"),
    Metric("sim_ops_per_s", "1/s", "higher", "sim", 0.12,
           "run-phase ops per virtual second (paper Fig. 12)"),
    Metric("verified_op_ratio", "ratio", "higher", "count", 0.01,
           "ops whose outcome matched the model / ops attempted "
           "(1 - failed_op_ratio, which would be 0 on a healthy run)"),
    Metric("stored_bytes_per_user_byte", "ratio", "lower", "count", 0.12,
           "cluster.total_stored_bytes / live user bytes at the end (Fig. 10)"),
    Metric("wire_bytes_per_user_byte", "ratio", "lower", "count", 0.25,
           "fabric bytes sent / user bytes set + got, run phase"),
    Metric("sim_recovery_s", "s", "lower", "sim", 0.25,
           "virtual seconds from crash (or restart) to repair_server return"),
    Metric("repair_bytes_read_per_byte_restored", "ratio", "lower", "count", 0.01,
           "RepairManager.bytes_read_for_repair / repaired_bytes (k for RS)"),
]

#: the ``repro.*`` packages host time is rolled up by, plus the load
#: generator itself and whatever belongs to none of them
LAYERS = (
    "ec", "simulation", "network", "store", "resilience", "stripes",
    "membership", "core", "obs", "common", "bench", "other",
)

#: Features switches of the feature-tax table (the method name)
FEATURE_SWITCHES = (
    "harden", "with_overload", "with_admission_control", "with_integrity",
    "with_write_versioning", "with_membership", "with_small_object_stripes",
    "with_scrubbing",
)

_CONTROL = "host_ops_per_s on ycsb_a_4k, etc_small_stripes, churn_repair_16k"


def _layer(name, unit, better, clock, note) -> Metric:
    return Metric(name, unit, better, clock, None, note)


PER_LAYER: List[Metric] = [
    # -- layer ladder: direct timed calls, median of repeats -------------
    _layer("ec.gf256_apply_mbps", "MB/s", "higher", "host",
           "host_ops_per_s on bulk_256k_bytes; nothing on ycsb_a_4k; no sim metric"),
    _layer("ec.encode_mbps", "MB/s", "higher", "host",
           "host_ops_per_s and ec.write_round_host_s on bulk_256k_bytes"),
    _layer("ec.decode_mbps", "MB/s", "higher", "host",
           "host_ops_per_s and ec.degraded_round_host_s on bulk_256k_bytes"),
    _layer("simulation.events_per_s", "1/s", "higher", "host", _CONTROL),
    _layer("network.sends_per_s", "1/s", "higher", "host", _CONTROL),
    _layer("store.ring_placements_per_s", "1/s", "higher", "host",
           "host_ops_per_s on ycsb_a_4k"),
    _layer("store.slab_ops_per_s", "1/s", "higher", "host",
           "host_ops_per_s on ycsb_a_4k"),
    _layer("store.norep_ops_per_s", "1/s", "higher", "host",
           "host_ops_per_s on ycsb_a_4k (client+ARPE+fabric+server, no scheme)"),
    _layer("resilience.cecd_ops_per_s", "1/s", "higher", "host",
           "host_ops_per_s on ycsb_a_4k (minus the no-rep rung = the scheme)"),
    _layer("stripes.packed_ops_per_s", "1/s", "higher", "host",
           "host_ops_per_s on etc_small_stripes (512 B values down the packing path)"),
    _layer("core.build_cluster_s", "s", "lower", "host", "setup_s everywhere"),
    # -- untraced trials: run-phase segments (bulk_256k_bytes; else 0) ---
    _layer("ec.write_round_host_s", "s", "lower", "host",
           "host_ops_per_s on bulk_256k_bytes (encode)"),
    _layer("ec.read_round_host_s", "s", "lower", "host",
           "host_ops_per_s on bulk_256k_bytes (systematic reassembly)"),
    _layer("ec.degraded_round_host_s", "s", "lower", "host",
           "host_ops_per_s on bulk_256k_bytes (erasure decode)"),
]
# -- profiled trial: host self time rolled up by package -----------------
for _name in LAYERS:
    PER_LAYER.append(_layer(
        "%s.host_self_s" % _name, "s", "lower", "host",
        "host_ops_per_s on the workload where its share is largest"))
    PER_LAYER.append(_layer(
        "%s.host_share" % _name, "ratio", "lower", "host",
        "share of run-phase host time; the largest is where to win"))
PER_LAYER += [
    # -- traced trial: exact counts --------------------------------------
    _layer("simulation.events", "count", "lower", "count", _CONTROL),
    _layer("simulation.events_per_op", "count", "lower", "count", _CONTROL),
    _layer("network.messages", "count", "lower", "count", _CONTROL),
    _layer("network.messages_per_op", "count", "lower", "count",
           _CONTROL + "; wire_bytes_per_user_byte"),
    _layer("network.wire_bytes", "bytes", "lower", "count",
           "wire_bytes_per_user_byte"),
    _layer("store.server_requests_per_op", "count", "lower", "count", _CONTROL),
    _layer("store.slab_evictions", "count", "lower", "count",
           "verified_op_ratio (an evicted chunk is a lost chunk)"),
    _layer("ec.encode_calls", "count", "lower", "count",
           "host_ops_per_s on bulk_256k_bytes"),
    _layer("ec.decode_calls", "count", "lower", "count",
           "host_ops_per_s on bulk_256k_bytes"),
    _layer("ec.bytes_coded", "bytes", "lower", "count",
           "host_ops_per_s on bulk_256k_bytes"),
    # -- traced trial: the Fig. 9 phase split from handle.metrics --------
    _layer("resilience.set_encode_us", "us", "lower", "sim",
           "sim_set_* on ycsb_a_4k and bulk_256k_bytes"),
    _layer("resilience.set_request_us", "us", "lower", "sim",
           "sim_set_* on ycsb_a_4k and bulk_256k_bytes"),
    _layer("resilience.set_wait_us", "us", "lower", "sim",
           "sim_set_* on ycsb_a_4k and bulk_256k_bytes"),
    _layer("resilience.get_request_us", "us", "lower", "sim",
           "sim_get_* on ycsb_a_4k and bulk_256k_bytes"),
    _layer("resilience.get_wait_us", "us", "lower", "sim",
           "sim_get_* on ycsb_a_4k and bulk_256k_bytes"),
    _layer("resilience.get_decode_us", "us", "lower", "sim",
           "sim_get_* and sim_degraded_get_* on bulk_256k_bytes"),
    _layer("store.arpe_queue_us", "us", "lower", "sim",
           "sim_set_*/sim_get_* on bulk_256k_bytes (batches wider than the window)"),
    _layer("resilience.degraded_reads", "count", "lower", "count",
           "sim_degraded_get_*"),
    _layer("resilience.read_repairs", "count", "lower", "count",
           "sim_degraded_get_*, verified_op_ratio"),
    _layer("resilience.chunk_retries", "count", "lower", "count",
           "sim_set_p99_us, verified_op_ratio"),
    _layer("stripes.sealed", "count", "lower", "count",
           "stored_bytes_per_user_byte, sim_set_p50_us on etc_small_stripes"),
    _layer("stripes.compactions", "count", "lower", "count",
           "stored_bytes_per_user_byte on etc_small_stripes"),
    _layer("stripes.journal_writes", "count", "lower", "count",
           "sim_set_p50_us, wire_bytes_per_user_byte on etc_small_stripes"),
    _layer("stripes.slice_reads", "count", "higher", "count",
           "sim_get_p50_us on etc_small_stripes"),
    _layer("stripes.bytes_reclaimed", "bytes", "higher", "count",
           "stored_bytes_per_user_byte on etc_small_stripes"),
    _layer("membership.moves", "count", "lower", "count",
           "wire_bytes_per_user_byte, host_ops_per_s on churn_repair_16k"),
    _layer("membership.reencode_moves", "count", "lower", "count",
           "wire_bytes_per_user_byte on churn_repair_16k"),
    _layer("membership.rebuild_bytes", "bytes", "lower", "count",
           "wire_bytes_per_user_byte on churn_repair_16k"),
    _layer("resilience.repaired_keys", "count", "higher", "count",
           "sim_recovery_s"),
    _layer("resilience.repair_bytes_read", "bytes", "lower", "count",
           "repair_bytes_read_per_byte_restored, sim_recovery_s"),
    _layer("resilience.repair_bytes_restored", "bytes", "higher", "count",
           "repair_bytes_read_per_byte_restored"),
    _layer("obs.trace_overhead_ratio", "ratio", "lower", "host",
           "traced / untraced host seconds of one trial; the end-to-end "
           "numbers are taken with tracing off"),
]
# -- feature-tax table: quarter-size ycsb_a_4k, one switch on at a time --
for _name in FEATURE_SWITCHES:
    PER_LAYER.append(_layer(
        "core.feature_tax.%s" % _name, "ratio", "lower", "host",
        "host seconds per op with the switch on / default; "
        "host_ops_per_s on ycsb_a_4k (the default path must stay 1.00)"))
    PER_LAYER.append(_layer(
        "core.feature_sim_get_p50.%s" % _name, "ratio", "lower", "sim",
        "sim_get_p50_us with the switch on / default (exact)"))

BY_NAME = {metric.name: metric for metric in END_TO_END + PER_LAYER}
