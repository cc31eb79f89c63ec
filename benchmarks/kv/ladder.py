"""Layer ladder: one direct, untraced probe per layer of the program.

Each probe times calls into a layer's public functions and nothing else,
``REPEATS`` times, and reports the median (with quartiles), so a
regression in an end-to-end number can be walked down to the layer that
moved.  Probe sizes are fixed: the ladder does not depend on the seed.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro import Payload, build_cluster
from repro.core.features import Features
from repro.ec.base import split_matrix
from repro.ec.gf256 import GFMatrix
from repro.ec.matrix import systematic_rs_matrix
from repro.ec.registry import make_codec
from repro.network.fabric import Fabric
from repro.network.profiles import profile_by_name
from repro.simulation import Simulator
from repro.store.hashring import HashRing
from repro.store.slab import SlabCache

REPEATS = 5
KIB = 1024
K, M = 3, 2
VALUE = 256 * KIB


def _bytes(size: int) -> bytes:
    return np.random.default_rng(7).bytes(size)


def _gf256_apply() -> Tuple[Callable[[], object], float]:
    kernel = GFMatrix(systematic_rs_matrix(K + M, K)[K:])
    data = split_matrix(_bytes(VALUE), K)
    return (lambda: [kernel.apply(data) for _ in range(8)]), 8 * VALUE / 1e6


def _encode() -> Tuple[Callable[[], object], float]:
    codec = make_codec("rs_van", K, M)
    data = _bytes(VALUE)
    return (lambda: [codec.encode(data) for _ in range(8)]), 8 * VALUE / 1e6


def _decode() -> Tuple[Callable[[], object], float]:
    codec = make_codec("rs_van", K, M)
    data = _bytes(VALUE)
    # both parities plus one data chunk survive: two data erasures
    survivors = codec.encode(data).subset([2, 3, 4])
    return (
        lambda: [codec.decode(survivors, VALUE) for _ in range(8)]
    ), 8 * VALUE / 1e6


def _events() -> Tuple[Callable[[], object], float]:
    tickers, ticks = 50, 800

    def ticker(sim):
        for i in range(ticks):
            yield sim.timeout(1e-6 * (1 + (i & 7)))

    def run():
        sim = Simulator()
        for _ in range(tickers):
            sim.process(ticker(sim))
        sim.run()

    return run, tickers * ticks


def _sends() -> Tuple[Callable[[], object], float]:
    count = 10_000

    def run():
        sim = Simulator()
        fabric = Fabric(sim, profile_by_name("sdsc-comet"))
        fabric.add_node("a")
        fabric.add_node("b").on_message = lambda message: None
        for _ in range(count):
            fabric.send("a", "b", size=4 * KIB)
        sim.run()

    return run, count


def _ring_placements() -> Tuple[Callable[[], object], float]:
    servers = ["server-%d" % i for i in range(10)]
    keys = ["ladder:%d" % i for i in range(20_000)]

    def run():
        ring = HashRing(servers)  # fresh ring: cold placement cache
        for key in keys:
            ring.placement(key, K + M)

    return run, len(keys)


def _slab_ops() -> Tuple[Callable[[], object], float]:
    keys = ["ladder:%d" % i for i in range(10_000)]

    def run():
        cache = SlabCache(memory_limit=256 * KIB * KIB)
        for key in keys:
            cache.set(key, 4 * KIB)
        for key in keys:
            cache.get(key)

    return run, 2 * len(keys)


def _closed_loop(scheme: str, value: Payload, stripes: bool = False):
    """Closed-loop Set-then-Get of ``count`` keys by one client."""
    count = 300
    keys = ["ladder:%d" % i for i in range(count)]

    def run():
        cluster = build_cluster(
            profile="sdsc-comet", scheme=scheme, servers=5, k=K, m=M,
            config=Features().with_small_object_stripes() if stripes else None,
        )
        client = cluster.add_client(window=1)

        def loop():
            for key in keys:
                yield client.iset(key, value).done
            for key in keys:
                yield client.iget(key).done

        cluster.sim.process(loop())
        cluster.run()

    return run, 2 * count


def _build_cluster() -> Tuple[Callable[[], object], float]:
    return (
        lambda: build_cluster(
            profile="sdsc-comet", scheme="era-ce-cd", servers=10, k=K, m=M
        )
    ), 1.0


#: name -> (probe factory, True when the metric is work per second,
#: False when it is seconds per call)
PROBES: Dict[str, Tuple[Callable, bool]] = {
    "ec.gf256_apply_mbps": (_gf256_apply, True),
    "ec.encode_mbps": (_encode, True),
    "ec.decode_mbps": (_decode, True),
    "simulation.events_per_s": (_events, True),
    "network.sends_per_s": (_sends, True),
    "store.ring_placements_per_s": (_ring_placements, True),
    "store.slab_ops_per_s": (_slab_ops, True),
    "store.norep_ops_per_s": (
        lambda: _closed_loop("no-rep", Payload.sized(4 * KIB)), True),
    "resilience.cecd_ops_per_s": (
        lambda: _closed_loop("era-ce-cd", Payload.sized(4 * KIB)), True),
    "stripes.packed_ops_per_s": (
        lambda: _closed_loop(
            "era-ce-cd", Payload.from_bytes(_bytes(512)), stripes=True
        ),
        True,
    ),
    "core.build_cluster_s": (_build_cluster, False),
}


def run_ladder(repeats: int = REPEATS) -> Dict[str, dict]:
    """Run every probe; ``{name: {"value", "q1", "q3", "n"}}``."""
    results = {}
    for name, (factory, is_rate) in PROBES.items():
        call, work = factory()
        call()  # warm-up: tables, decode-matrix caches, allocator
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            elapsed = time.perf_counter() - start
            samples.append(work / elapsed if is_rate else elapsed / work)
        q1, _, q3 = statistics.quantiles(samples, n=4)
        results[name] = {
            "value": statistics.median(samples),
            "q1": q1,
            "q3": q3,
            "n": len(samples),
        }
    return results
