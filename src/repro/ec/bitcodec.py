"""Shared machinery for bit-matrix (XOR-only) codecs.

Both Cauchy-RS and the Liberation RAID-6 code encode by XOR-combining
*packets* according to a binary generator matrix; they differ only in how
that matrix is constructed.  This base class owns the packetization,
encode/decode loops, and per-erasure-pattern decode-matrix caching.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.ec import bitmatrix
from repro.ec.base import ErasureCodec


class BitMatrixCodec(ErasureCodec):
    """Erasure codec driven by a binary generator matrix.

    Subclasses must set ``word_size`` (packets per chunk) and build
    ``bit_generator``: an ``(n * w) x (k * w)`` binary matrix whose top
    ``k * w`` rows are the identity (systematic form).
    """

    word_size: int = 8

    #: a chunk is ``w`` packets that XOR across each other, so a byte
    #: range of the survivors does not decode the same range
    columnar = False

    def __init__(self, k: int, m: int):
        super().__init__(k, m)
        self.chunk_alignment = self.word_size
        self.bit_generator = self._build_bit_generator()
        expected = ((self.n * self.word_size), (k * self.word_size))
        if self.bit_generator.shape != expected:
            raise ValueError(
                "bit generator shape %s, expected %s"
                % (self.bit_generator.shape, expected)
            )
        self._parity_selections = bitmatrix.compile_selections(
            self.bit_generator[k * self.word_size :]
        )
        self._decode_cache: Dict[tuple, List[np.ndarray]] = {}

    def _build_bit_generator(self) -> np.ndarray:
        raise NotImplementedError

    # -- coding ------------------------------------------------------------
    def _packetize(self, rows: List[np.ndarray]) -> List[np.ndarray]:
        """Zero-copy split of chunk rows into their packets.

        Each chunk splits into ``w`` consecutive packets — exactly
        Jerasure's packet layout, with no data movement.
        """
        w = self.word_size
        return [packet for row in rows for packet in row.reshape(w, -1)]

    def _encode_parity(self, data_rows: List[np.ndarray]) -> np.ndarray:
        parity_packets = bitmatrix.apply_selections(
            self._parity_selections, self._packetize(data_rows)
        )
        return parity_packets.reshape(self.m, -1)

    def _decode_data(self, available: Dict[int, np.ndarray]) -> np.ndarray:
        # MDS: any K chunks work, so take the K lowest indices.
        indices = tuple(sorted(available)[: self.k])
        data_packets = bitmatrix.apply_selections(
            self._decode_matrix(indices),
            self._packetize([available[i] for i in indices]),
        )
        return data_packets.reshape(self.k, -1)

    def _decode_matrix(self, indices: tuple) -> List[np.ndarray]:
        """Compiled inverse of the surviving block-rows, cached per pattern."""
        cached = self._decode_cache.get(indices)
        if cached is None:
            w = self.word_size
            row_ids = [i * w + b for i in indices for b in range(w)]
            survivor_rows = self.bit_generator[row_ids]
            cached = bitmatrix.compile_selections(
                bitmatrix.bitmatrix_invert(survivor_rows)
            )
            self._decode_cache[indices] = cached
        return cached
