"""Locally Repairable Codes (Azure-style LRC) — the paper's future work.

Section VIII: "we plan to minimize our recovery overheads by incorporating
optimized erasure codes such as locally repairable codes".  An
LRC(K, L, R) splits the K data chunks into L local groups, adds one local
XOR parity per group, and R global Reed-Solomon parities:

- a *single* lost data chunk is repaired by XOR-ing its group — reading
  ``K/L`` chunks instead of ``K`` (the recovery win);
- larger failure patterns fall back to solving the full linear system
  using the global parities.

Unlike the MDS codes here, LRC is not any-K-of-N: decode picks a linearly
independent set of surviving rows.  Guaranteed fault tolerance is
computed exhaustively at construction (Azure's LRC(12, 2, 2) tolerates
any 3 failures; this construction reproduces that property for the
geometries the tests cover).

Chunk layout: ``[data 0..K-1 | local parities K..K+L-1 | globals ...]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.ec import gf256, matrix
from repro.ec.base import ErasureCodec, ErasureCodingError
from repro.ec.matrix import SingularMatrixError


class LocalReconstructionCode(ErasureCodec):
    """LRC(K, L, R): K data, L local XOR parities, R global RS parities."""

    name = "lrc"

    def __init__(self, k: int, local_groups: int = 2, global_parities: int = 2):
        if local_groups < 1 or k % local_groups:
            raise ValueError(
                "k=%d must divide evenly into %d local groups"
                % (k, local_groups)
            )
        if global_parities < 0:
            raise ValueError("global_parities must be >= 0")
        self.local_groups = local_groups
        self.global_parities = global_parities
        self.group_size = k // local_groups
        super().__init__(k, local_groups + global_parities)
        self.generator = self._build_generator()
        self._parity_kernel = gf256.GFMatrix(self.generator[self.k :])
        self._tolerated: Optional[int] = None  # computed lazily (brute force)
        self._decode_cache: Dict[tuple, tuple] = {}

    @property
    def tolerated(self) -> int:
        """Guaranteed failures survived (computed exhaustively, cached)."""
        if self._tolerated is None:
            self._tolerated = self._max_guaranteed_failures()
        return self._tolerated

    @property
    def tolerated_failures(self) -> int:
        """LRC is not MDS: the guarantee is below L + R."""
        return self.tolerated

    # -- construction ---------------------------------------------------------
    def _build_generator(self) -> matrix.Matrix:
        """Rows: identity (data), local XOR rows, global parity rows.

        Global coefficients are found by a deterministic search for a
        *maximally recoverable* instance — one whose guaranteed tolerance
        reaches ``r + 1`` (Azure's LRC(12, 2, 2) tolerates any 3
        failures).  Candidate rows are Vandermonde-style powers of a
        shifting evaluation base; the first candidate set achieving the
        target tolerance wins, and the best seen is kept otherwise.
        """
        base_rows = matrix.identity(self.k)
        for group in range(self.local_groups):
            row = [0] * self.k
            start = group * self.group_size
            for j in range(start, start + self.group_size):
                row[j] = 1
            base_rows.append(row)
        if not self.global_parities:
            return base_rows

        target = self.global_parities + 1
        best_gen: Optional[matrix.Matrix] = None
        best_tolerance = -1
        for seed in range(1, 40):
            globals_rows = [
                [
                    gf256.gf_pow((seed + j) % 255 + 1, power + 1)
                    for j in range(self.k)
                ]
                for power in range(self.global_parities)
            ]
            candidate = [list(r) for r in base_rows] + globals_rows
            tolerance = _guaranteed_tolerance(
                candidate, self.k, self.n, cap=target
            )
            if tolerance > best_tolerance:
                best_tolerance = tolerance
                best_gen = candidate
            if tolerance >= target:
                break
        return best_gen

    def _max_guaranteed_failures(self) -> int:
        """Largest t such that every t-failure pattern is decodable."""
        return _guaranteed_tolerance(self.generator, self.k, self.n)

    def _solvable(self, survivor_indices: Sequence[int]) -> bool:
        rows = matrix.submatrix(self.generator, survivor_indices)
        return _gf_rank(rows) == self.k

    # -- group topology ----------------------------------------------------
    def group_of(self, data_index: int) -> int:
        """Local group a data chunk belongs to."""
        if not 0 <= data_index < self.k:
            raise ValueError("not a data chunk index: %d" % data_index)
        return data_index // self.group_size

    def local_parity_index(self, group: int) -> int:
        """Chunk index of a group's local XOR parity."""
        if not 0 <= group < self.local_groups:
            raise ValueError("no such group: %d" % group)
        return self.k + group

    def group_members(self, group: int) -> List[int]:
        """Data chunk indices of one local group."""
        start = group * self.group_size
        return list(range(start, start + self.group_size))

    def local_repair_sources(
        self, lost_index: int, available: Sequence[int]
    ) -> Optional[List[int]]:
        """The cheap repair set for one lost chunk, if it exists.

        For a data chunk: the rest of its group plus the group's local
        parity.  For a local parity: its group's data chunks.  Returns
        ``None`` when any needed chunk is also missing (fall back to
        global decode).
        """
        available_set = set(available)
        if lost_index < self.k:
            group = self.group_of(lost_index)
            needed = [
                i for i in self.group_members(group) if i != lost_index
            ] + [self.local_parity_index(group)]
        elif lost_index < self.k + self.local_groups:
            needed = self.group_members(lost_index - self.k)
        else:
            return None  # global parities need a full re-encode
        if all(i in available_set for i in needed):
            return needed
        return None

    def repair_chunk(
        self, lost_index: int, sources: Dict[int, bytes]
    ) -> bytes:
        """XOR-rebuild one chunk from its local repair sources."""
        expected = self.local_repair_sources(lost_index, list(sources))
        if expected is None or set(expected) != set(sources):
            raise ErasureCodingError(
                "sources %s are not the local repair set for chunk %d"
                % (sorted(sources), lost_index)
            )
        acc = None
        for data in sources.values():
            arr = np.frombuffer(data, dtype=np.uint8)
            acc = arr.copy() if acc is None else acc ^ arr
        return acc.tobytes()

    def can_decode(self, indices) -> bool:
        """Rank check: do these survivor rows span the data space?"""
        ordered = sorted(set(indices))
        if len(ordered) < self.k:
            return False
        return self._solvable(ordered)

    def decode_indices(self, available) -> Optional[List[int]]:
        """A linearly independent fetch plan from the survivors."""
        return _independent_subset(self.generator, sorted(set(available)), self.k)

    # -- coding ------------------------------------------------------------
    def _encode_parity(self, data_rows: List[np.ndarray]) -> np.ndarray:
        return self._parity_kernel.apply(data_rows)

    def _decode_data(self, available: Dict[int, np.ndarray]) -> np.ndarray:
        chosen, kernel = self._decode_plan(tuple(sorted(available)))
        return kernel.apply([available[i] for i in chosen])

    def _decode_plan(self, indices: tuple):
        """Pick K independent survivor rows and invert them (cached)."""
        cached = self._decode_cache.get(indices)
        if cached is None:
            chosen = _independent_subset(self.generator, indices, self.k)
            if chosen is None:
                raise ErasureCodingError(
                    "survivors %s cannot reconstruct the data" % (indices,)
                )
            inverse = matrix.invert(matrix.submatrix(self.generator, chosen))
            cached = (chosen, gf256.GFMatrix(inverse))
            self._decode_cache[indices] = cached
        return cached


def _guaranteed_tolerance(
    generator: matrix.Matrix, k: int, n: int, cap: Optional[int] = None
) -> int:
    """Largest t (up to ``cap``) with every t-erasure pattern decodable."""
    import itertools

    limit = cap if cap is not None else n - k + 1
    for t in range(1, limit + 1):
        for erased in itertools.combinations(range(n), t):
            survivors = [i for i in range(n) if i not in erased]
            if _gf_rank(matrix.submatrix(generator, survivors)) < k:
                return t - 1
    return limit


def _gf_rank(rows: matrix.Matrix) -> int:
    """Rank of a GF(2^8) matrix via forward elimination."""
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = gf256.gf_inv(work[rank][col])
        work[rank] = [gf256.gf_mul(inv, v) for v in work[rank]]
        for r in range(nrows):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [
                    a ^ gf256.gf_mul(factor, b)
                    for a, b in zip(work[r], work[rank])
                ]
        rank += 1
        if rank == min(nrows, ncols):
            break
    return rank


def _independent_subset(
    generator: matrix.Matrix, indices: Sequence[int], k: int
) -> Optional[List[int]]:
    """Greedily pick ``k`` indices whose generator rows are independent.

    Data rows come first (identity rows are always independent of each
    other), so the systematic chunks are reused maximally.
    """
    ordered = sorted(indices, key=lambda i: (i >= k, i))
    chosen: List[int] = []
    for index in ordered:
        candidate = chosen + [index]
        if _gf_rank(matrix.submatrix(generator, candidate)) == len(candidate):
            chosen.append(index)
            if len(chosen) == k:
                return chosen
    return None
