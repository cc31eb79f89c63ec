#!/usr/bin/env python
"""Hybrid resilience on a realistic cache mix (paper future work).

The paper motivates its work with Facebook's Memcached analysis (its
reference [17]): real cache values are mostly tiny, but a heavy tail
carries most of the bytes.  Section VIII then proposes *hybrid*
erasure-coding/replication "for different workload data access patterns".

This example runs that exact evaluation: an ETC-shaped workload (Zipfian
keys, 30:1 GET:SET, Pareto-tailed sizes) against pure replication, pure
erasure coding, and the hybrid scheme that replicates values <= 16 KB and
erasure-codes the tail.

Run:  python examples/etc_hybrid_cache.py
"""

from repro import build_cluster
from repro.harness import format_table
from repro.workloads.etc import EtcSizeSampler, EtcSpec, run_etc

GIB = 1024 ** 3
MIB = 1024 * 1024


def main():
    spec = EtcSpec(record_count=5_000, ops_per_client=200)
    sizes = EtcSizeSampler(spec.size_seed).sample_sizes(spec.record_count)
    big = [s for s in sizes if s > 16 * 1024]
    print(
        "ETC dataset: %d keys, median %d B; %.1f%% of keys are >16 KiB"
        " yet hold %.0f%% of the bytes\n"
        % (
            len(sizes),
            sorted(sizes)[len(sizes) // 2],
            100.0 * len(big) / len(sizes),
            100.0 * sum(big) / sum(sizes),
        )
    )

    rows = []
    for scheme in ("async-rep", "era-ce-cd", "hybrid"):
        cluster = build_cluster(
            scheme=scheme, servers=5, memory_per_server=4 * GIB
        )
        result = run_etc(cluster, spec, num_clients=15, client_hosts=5)
        stats = cluster.stats()
        rows.append(
            [
                scheme,
                result.get_latency.mean * 1e6,
                result.get_latency.p99 * 1e6,
                result.stored_bytes / MIB,
                stats["load_imbalance"],
            ]
        )

    print(
        format_table(
            ["scheme", "get_mean_us", "get_p99_us", "stored_MiB",
             "load_imbalance"],
            rows,
        )
    )
    print(
        "\nhybrid = replication's single-RTT gets for the hot small keys"
        "\n       + erasure coding's memory bill for the byte-heavy tail."
    )


if __name__ == "__main__":
    main()
