"""Systematic LT (Luby Transform) fountain code — paper future work.

Section VIII: "... and explore ... linear time fountain codes".  A
fountain code generates coded symbols as XORs of random data-chunk
subsets; decoding *peels*: a coded symbol covering exactly one unknown
chunk reveals it, which may reduce other symbols to degree one, and so
on.  Peeling touches each byte O(1) times — the "linear time" appeal.

Classic LT is rateless with probabilistic decoding, and whole-chunk XOR
codes *cannot* be MDS for more than one parity (binary MDS codes beyond
simple parity do not exist) — the fountain trade is extra storage for
dirt-cheap XOR coding.  This codec fixes ``m`` coded chunks whose
neighbourhoods come from a (robust-)soliton-inspired degree distribution
chosen by a deterministic seeded search that maximizes the *verified*
guaranteed tolerance (every erasure pattern up to that size decodes;
checked exhaustively at construction).  ``tolerated_failures`` reports
that verified guarantee — typically ``m - 1`` — and
:meth:`decode_success_rate` quantifies the probabilistic regime beyond
it.  Decoding prefers the linear-time peeler and falls back to binary
Gaussian elimination for the rare patterns peeling alone cannot finish.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ec.base import ErasureCodec, ErasureCodingError
from repro.store.hashring import stable_hash


def _degree_sequence(k: int, m: int, seed: int) -> List[int]:
    """Coded-symbol degrees: soliton-flavoured, deterministic per seed.

    The ideal soliton puts most mass on small degrees; we keep degree >= 2
    (degree-1 coded symbols would just duplicate a data chunk) and include
    one high-degree symbol to cover the tail, mirroring the robust
    soliton's spike.
    """
    degrees = []
    for i in range(m):
        h = stable_hash("lt-deg-%d-%d-%d" % (seed, k, i))
        if i == m - 1:
            degrees.append(k)  # the high-degree "spike" covers everyone
        else:
            # favour 2 and 3 like the soliton's 1/(d(d-1)) decay
            roll = h % 100
            if roll < 55:
                degrees.append(2)
            elif roll < 85:
                degrees.append(min(3, k))
            else:
                degrees.append(min(4 + h % 3, k))
    return degrees


def _neighbourhoods(k: int, m: int, seed: int) -> List[Tuple[int, ...]]:
    """Choose each coded symbol's data-chunk subset deterministically."""
    out = []
    for i, degree in enumerate(_degree_sequence(k, m, seed)):
        chosen: List[int] = []
        cursor = 0
        while len(chosen) < degree:
            h = stable_hash("lt-nb-%d-%d-%d-%d" % (seed, k, i, cursor))
            candidate = h % k
            if candidate not in chosen:
                chosen.append(candidate)
            cursor += 1
        out.append(tuple(sorted(chosen)))
    return out


class FountainLT(ErasureCodec):
    """Fixed-rate systematic LT code with guaranteed m-failure recovery."""

    name = "lt"

    def __init__(self, k: int, m: int, max_seeds: int = 60):
        if m < 1:
            raise ValueError("fountain code needs at least one coded chunk")
        super().__init__(k, m)
        self.neighbourhoods, self.guaranteed = self._search_neighbourhoods(
            max_seeds
        )

    @property
    def tolerated_failures(self) -> int:
        """The exhaustively *verified* guarantee (< m for XOR codes)."""
        return self.guaranteed

    def can_decode(self, indices) -> bool:
        """Rank check over the survivor rows (LT is not any-K-of-N)."""
        ordered = sorted(set(indices))
        if len(ordered) < self.k:
            return False
        return self._rank_sufficient(self.neighbourhoods, ordered)

    def decode_indices(self, available) -> Optional[List[int]]:
        """All survivors (the peeler decides what it needs), or None."""
        ordered = sorted(set(available))
        if not self.can_decode(ordered):
            return None
        return ordered

    def decode_success_rate(self, failures: int) -> float:
        """Fraction of ``failures``-erasure patterns that decode."""
        total = 0
        good = 0
        for erased in itertools.combinations(range(self.n), failures):
            survivors = [i for i in range(self.n) if i not in erased]
            total += 1
            if self._rank_sufficient(self.neighbourhoods, survivors):
                good += 1
        return good / total if total else 1.0

    # -- construction ---------------------------------------------------------
    def _search_neighbourhoods(
        self, max_seeds: int
    ) -> Tuple[List[Tuple[int, ...]], int]:
        best: Optional[List[Tuple[int, ...]]] = None
        best_guarantee = -1
        for seed in range(max_seeds):
            candidate = _neighbourhoods(self.k, self.m, seed)
            guarantee = self._guaranteed_tolerance(candidate)
            if guarantee > best_guarantee:
                best, best_guarantee = candidate, guarantee
            if guarantee >= self.m - 1:
                break  # the best an XOR code can generally do
        if best is None or best_guarantee < 1:
            raise ErasureCodingError(
                "no LT neighbourhood set tolerates even one failure "
                "for k=%d, m=%d within %d seeds" % (self.k, self.m, max_seeds)
            )
        return best, best_guarantee

    def _guaranteed_tolerance(
        self, neighbourhoods: Sequence[Tuple[int, ...]]
    ) -> int:
        for t in range(1, self.m + 1):
            for erased in itertools.combinations(range(self.n), t):
                survivors = [i for i in range(self.n) if i not in erased]
                if not self._rank_sufficient(neighbourhoods, survivors):
                    return t - 1
        return self.m

    def _rank_sufficient(
        self, neighbourhoods: Sequence[Tuple[int, ...]], survivors: Sequence[int]
    ) -> bool:
        rows = []
        for index in survivors:
            row = np.zeros(self.k, dtype=np.uint8)
            if index < self.k:
                row[index] = 1
            else:
                for j in neighbourhoods[index - self.k]:
                    row[j] = 1
            rows.append(row)
        from repro.ec.bitmatrix import bitmatrix_rank

        return bitmatrix_rank(np.array(rows, dtype=np.uint8)) == self.k

    # -- coding ------------------------------------------------------------
    def _encode_parity(self, data_rows: List[np.ndarray]) -> np.ndarray:
        parity = np.empty((self.m, data_rows[0].size), dtype=np.uint8)
        for acc, neighbourhood in zip(parity, self.neighbourhoods):
            np.copyto(acc, data_rows[neighbourhood[0]])
            for j in neighbourhood[1:]:
                np.bitwise_xor(acc, data_rows[j], out=acc)
        return parity

    def _decode_data(self, available: Dict[int, np.ndarray]) -> List[np.ndarray]:
        known: Dict[int, np.ndarray] = {
            i: available[i] for i in available if i < self.k
        }
        # Peeling: reduce coded symbols by everything already known, then
        # repeatedly release degree-one symbols (linear time).
        pending: List[Tuple[set, np.ndarray]] = []
        for index in sorted(available):
            if index < self.k:
                continue
            cover = set(self.neighbourhoods[index - self.k])
            acc = available[index].copy()
            for j in list(cover):
                if j in known:
                    np.bitwise_xor(acc, known[j], out=acc)
                    cover.discard(j)
            if cover:
                pending.append((cover, acc))

        progress = True
        while progress and len(known) < self.k:
            progress = False
            for cover, acc in pending:
                newly_known = [j for j in cover if j in known]
                for j in newly_known:
                    np.bitwise_xor(acc, known[j], out=acc)
                    cover.discard(j)
                if len(cover) == 1:
                    (j,) = cover
                    known[j] = acc.copy()
                    cover.clear()
                    progress = True
            pending = [(c, a) for c, a in pending if c]

        if len(known) < self.k:
            self._gaussian_fallback(known, pending)
        if len(known) < self.k:
            raise ErasureCodingError(
                "fountain decode failed with survivors %s"
                % sorted(available)
            )
        return [known[i] for i in range(self.k)]

    def _gaussian_fallback(
        self,
        known: Dict[int, np.ndarray],
        pending: List[Tuple[set, np.ndarray]],
    ) -> None:
        """Binary elimination over the unresolved symbols (rare path)."""
        unknown = sorted(set(range(self.k)) - set(known))
        col_of = {j: c for c, j in enumerate(unknown)}
        rows: List[Tuple[np.ndarray, np.ndarray]] = []
        for cover, acc in pending:
            mask = np.zeros(len(unknown), dtype=np.uint8)
            for j in cover:
                mask[col_of[j]] = 1
            rows.append((mask, acc.copy()))

        solved_cols: List[int] = []
        for col in range(len(unknown)):
            pivot = next(
                (r for r in range(len(solved_cols), len(rows)) if rows[r][0][col]),
                None,
            )
            if pivot is None:
                continue
            target = len(solved_cols)
            rows[target], rows[pivot] = rows[pivot], rows[target]
            pivot_mask, pivot_acc = rows[target]
            for r in range(len(rows)):
                if r != target and rows[r][0][col]:
                    np.bitwise_xor(rows[r][0], pivot_mask, out=rows[r][0])
                    np.bitwise_xor(rows[r][1], pivot_acc, out=rows[r][1])
            solved_cols.append(col)
        for mask, acc in rows:
            set_cols = np.flatnonzero(mask)
            if len(set_cols) == 1:
                known[unknown[int(set_cols[0])]] = acc

    # -- introspection --------------------------------------------------------
    def average_degree(self) -> float:
        """Mean coded-symbol degree — the decode-cost driver for LT."""
        return sum(len(n) for n in self.neighbourhoods) / self.m
