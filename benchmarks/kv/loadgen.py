"""Seeded load generator: keys, Zipfian popularity, ETC sizes, value bytes.

Everything a workload feeds the store is made here from ``--seed`` and
nothing else.  This module imports nothing from ``repro`` on purpose: a
later change to the program (including ``repro.workloads``) cannot change
the load it is measured under.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

GET, SET, DELETE = 0, 1, 2

#: one op of a client's stream: (kind, key index, value offset, value size,
#: think seconds before the next op)
Op = Tuple[int, int, int, int, float]

# Facebook ETC value sizes (Atikoglu et al., SIGMETRICS'12): discrete
# spikes for tiny values, generalized-Pareto body for the rest.
_ETC_HEAD_SIZES = np.array([2, 11, 100, 300])
_ETC_HEAD_CDF = np.cumsum([0.01, 0.05, 0.20, 0.15])
_ETC_PARETO_SCALE = 250.0
_ETC_PARETO_SHAPE = 0.9
_ETC_MIN, _ETC_MAX = 64, 128 * 1024


def stream(seed: int, *path: int) -> np.random.Generator:
    """An independent generator for ``(seed, path...)``."""
    return np.random.default_rng([seed, *path])


def uniforms(rng: np.random.Generator, count: int) -> np.ndarray:
    """The midpoints of ``count`` equal slices of [0, 1), in seeded order.

    Inverse-CDF sampling through these gives every seed the same
    histogram (of sizes, op kinds, key popularity) in a different order on
    different keys, so a tail percentile moves with the program and not
    with how many large values one seed happened to draw.
    """
    return rng.permutation((np.arange(count) + 0.5) / count)


def key_names(rng: np.random.Generator, prefix: str, count: int) -> List[str]:
    """``count`` distinct key names whose hash placement depends on the seed."""
    tokens = rng.integers(0, 1 << 32, size=count).tolist()
    return ["%s:%08x:%d" % (prefix, token, i) for i, token in enumerate(tokens)]


def zipfian(
    rng: np.random.Generator, items: int, theta: float, count: int
) -> np.ndarray:
    """``count`` key indices, popularity rank r drawn with weight 1/r^theta.

    Ranks are scattered over the key space by a seeded permutation so the
    hot keys do not share a name prefix (or a hash neighbourhood).
    """
    weights = 1.0 / np.power(np.arange(1, items + 1, dtype=np.float64), theta)
    cdf = np.cumsum(weights / weights.sum())
    ranks = np.minimum(np.searchsorted(cdf, uniforms(rng, count)), items - 1)
    return rng.permutation(items)[ranks]


def etc_sizes(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` value sizes from the ETC-shaped distribution."""
    head = np.searchsorted(_ETC_HEAD_CDF, uniforms(rng, count), side="right")
    body = _ETC_PARETO_SCALE * (
        np.power(1.0 - uniforms(rng, count), -_ETC_PARETO_SHAPE) - 1.0
    ) / _ETC_PARETO_SHAPE
    body = np.clip(body, _ETC_MIN, _ETC_MAX).astype(np.int64)
    in_head = head < len(_ETC_HEAD_SIZES)
    return np.where(
        in_head, _ETC_HEAD_SIZES[np.minimum(head, len(_ETC_HEAD_SIZES) - 1)], body
    )


def sizes_near(rng: np.random.Generator, nominal: int, count: int) -> np.ndarray:
    """``count`` sizes uniform within 1/16 of ``nominal``.

    Equal sizes would make every uncontended latency one constant, so a
    percentile would not depend on the seed at all; real values also
    rarely divide evenly into k chunks.
    """
    spread = nominal // 16
    return rng.integers(nominal - spread, nominal + spread + 1, size=count)


class ValuePool:
    """Random bytes that values are cut from: value = pool[off:off+size].

    A value is named by ``(offset, size)``; the reference model keeps that
    pair and :meth:`matches` compares returned bytes against the pool
    without copying.
    """

    def __init__(self, rng: np.random.Generator, pool_bytes: int):
        self.blob = rng.bytes(pool_bytes)
        self._view = memoryview(self.blob)

    def offsets(self, rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
        """A seeded offset for each size, so every value fits in the pool."""
        room = len(self.blob) - np.asarray(sizes, dtype=np.int64)
        return (rng.random(len(room)) * room).astype(np.int64)

    def cut(self, offset: int, size: int) -> bytes:
        return self.blob[offset : offset + size]

    def matches(self, data: bytes, offset: int, size: int) -> bool:
        return data == self._view[offset : offset + size]


def op_stream(
    kinds: np.ndarray,
    key_idx: np.ndarray,
    offsets: np.ndarray,
    sizes: np.ndarray,
    think: np.ndarray = None,
) -> List[Op]:
    """Columns -> the list of plain tuples a client loop iterates over."""
    if think is None:
        think = np.zeros(len(kinds))
    return list(
        zip(
            kinds.tolist(),
            key_idx.tolist(),
            offsets.tolist(),
            sizes.tolist(),
            think.tolist(),
        )
    )


def gets_of(key_idx) -> List[Op]:
    """A read-back stream: one Get per key."""
    return [(GET, i, 0, 0, 0.0) for i in key_idx]


def mix(rng: np.random.Generator, count: int, get: float, set_: float) -> np.ndarray:
    """``count`` op kinds: GET with probability ``get``, SET with ``set_``,
    DELETE with the remainder."""
    u = uniforms(rng, count)
    return np.where(u < get, GET, np.where(u < get + set_, SET, DELETE)).astype(
        np.int64
    )
