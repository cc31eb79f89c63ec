#!/usr/bin/env python
"""Offline analytics scenario: Boldio burst buffer for Hadoop I/O.

Reproduces Section VI-D at example scale: a TestDFSIO-style job writes
through (a) Lustre directly — the HPC default — and (b) a Boldio burst
buffer whose Memcached layer is protected by either async replication or
online erasure coding, with asynchronous persistence to Lustre behind
the scenes.

Run:  python examples/boldio_burst_buffer.py
"""

from repro import build_cluster
from repro.boldio import (
    BoldioSystem,
    LustreFS,
    run_dfsio_boldio,
    run_dfsio_lustre,
)
from repro.harness import format_table
from repro.network import Fabric, profile_by_name
from repro.simulation import Simulator

MIB = 1024 * 1024
GIB = 1024 ** 3
FILE_SIZE = 32 * MIB  # per map task; 8 DN x 4 maps = 1 GiB per phase


def boldio_phase(scheme):
    cluster = build_cluster(
        profile="ri-qdr", scheme=scheme, servers=5, memory_per_server=2 * GIB
    )
    lustre = LustreFS(cluster.sim, cluster.fabric)
    system = BoldioSystem(cluster, lustre)
    write = run_dfsio_boldio(system, mode="write", file_size=FILE_SIZE)
    read = run_dfsio_boldio(system, mode="read", file_size=FILE_SIZE)

    # Let the asynchronous flusher finish, then show persistence.
    def drain():
        yield from system.drain_flushes()

    cluster.sim.run(cluster.sim.process(drain()))
    return write, read, system


def lustre_phase():
    sim = Simulator()
    fabric = Fabric(sim, profile_by_name("ri-qdr"))
    lustre = LustreFS(sim, fabric)
    write = run_dfsio_lustre(
        sim, fabric, lustre, mode="write", num_datanodes=12,
        file_size=FILE_SIZE,
    )
    read = run_dfsio_lustre(
        sim, fabric, lustre, mode="read", num_datanodes=12,
        file_size=FILE_SIZE,
    )
    return write, read


def main():
    rows = []
    write, read = lustre_phase()
    rows.append(["lustre-direct", write.throughput_mib, read.throughput_mib, "-"])

    for scheme in ("async-rep", "era-ce-cd", "era-se-cd"):
        write, read, system = boldio_phase(scheme)
        rows.append(
            [
                write.backend,
                write.throughput_mib,
                read.throughput_mib,
                "%.0f MiB" % (system.flushed_bytes / MIB),
            ]
        )

    print("TestDFSIO, 1 GiB job, RI-QDR cluster\n")
    print(
        format_table(
            ["backend", "write_MiB_s", "read_MiB_s", "persisted"], rows
        )
    )
    print(
        "\nThe burst buffer absorbs I/O at interconnect speed and drains"
        "\nto Lustre in the background; erasure coding keeps that speed"
        "\nwhile cutting the buffer's memory bill from 3x to 5/3x."
    )


if __name__ == "__main__":
    main()
