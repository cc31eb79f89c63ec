#!/usr/bin/env python
"""Scheme shootout: compare every resilience design on one workload.

Replays the paper's core comparison — Sync-Rep, Async-Rep, and the four
online-erasure-coding placements — on an identical 5-server cluster and
prints per-scheme Set/Get latency, the degraded-read penalty after two
node failures, and the memory each scheme consumed.

This is the motivating experiment of the paper in one script: erasure
coding matches replication's speed at ~55% of its memory.

Run:  python examples/scheme_shootout.py [value_size_bytes]
"""

import sys

from repro import build_cluster
from repro.harness import format_table
from repro.workloads.keys import KeyValueSource
from repro.workloads.microbench import (
    load_keys,
    run_get_benchmark,
    run_set_benchmark,
)

MIB = 1024 * 1024
SCHEMES = (
    "sync-rep",
    "async-rep",
    "era-ce-cd",
    "era-se-cd",
    "era-se-sd",
    "era-ce-sd",
)


def evaluate(scheme, value_size, num_ops=300):
    cluster = build_cluster(
        profile="ri-qdr", scheme=scheme, servers=5,
        memory_per_server=4 * 1024 * MIB,
    )
    blocking = scheme == "sync-rep"
    client = cluster.add_client(window=4)

    set_result = run_set_benchmark(
        cluster, client, num_ops=num_ops, value_size=value_size,
        blocking=blocking,
    )
    get_result = run_get_benchmark(
        cluster, client, num_ops=num_ops, value_size=value_size,
        blocking=blocking, preload=False,
    )

    # Degraded reads: crash two servers, measure gets again (window=1
    # shows the per-op recovery latency rather than pipelined averages).
    degraded_client = cluster.add_client(window=1)
    source = KeyValueSource(prefix="d")
    load_keys(cluster, degraded_client, num_ops, value_size, source)
    cluster.fail_servers(["server-3", "server-4"])
    degraded = run_get_benchmark(
        cluster, degraded_client, num_ops=num_ops, value_size=value_size,
        preload=False, source=source,
    )

    stored = cluster.total_stored_bytes
    return [
        scheme,
        set_result.avg_latency * 1e6,
        get_result.avg_latency * 1e6,
        degraded.avg_latency * 1e6,
        stored / MIB,
        cluster.scheme.tolerated_failures,
    ]


def main():
    value_size = int(sys.argv[1]) if len(sys.argv) > 1 else 256 * 1024
    print(
        "Comparing schemes: %d-byte values, 5 servers, RS(3,2) / Rep=3\n"
        % value_size
    )
    rows = [evaluate(scheme, value_size) for scheme in SCHEMES]
    print(
        format_table(
            ["scheme", "set_us", "get_us", "degraded_get_us", "stored_MiB",
             "tolerates"],
            rows,
        )
    )
    print(
        "\nReading guide: era-* match async-rep latencies while storing"
        "\n~5/3x the data instead of 3x; degraded reads pay the decode;"
        "\nera-se-sd pays an extra server hop on every degraded get."
    )


if __name__ == "__main__":
    main()
