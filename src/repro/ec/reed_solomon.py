"""Reed-Solomon coding with a (systematized) Vandermonde matrix.

This is Jerasure's ``RS_Van`` — the code the paper selects for online
erasure coding of 1 KB - 1 MB key-value pairs (Section III-B, Figure 4).
Encoding multiplies the K data chunks by the M parity rows of a systematic
generator matrix; decoding inverts the K x K submatrix of generator rows
corresponding to the surviving chunks.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.ec import gf256, matrix
from repro.ec.base import ErasureCodec


class ReedSolomonVandermonde(ErasureCodec):
    """Systematic RS(K, M) over GF(2^8) built from a Vandermonde seed."""

    name = "rs_van"

    def __init__(self, k: int, m: int):
        super().__init__(k, m)
        self.generator = matrix.systematic_rs_matrix(self.n, k)
        self._parity_kernel = gf256.GFMatrix(self.generator[self.k :])
        self._decode_cache: Dict[tuple, gf256.GFMatrix] = {}

    def _encode_parity(self, data_rows: List[np.ndarray]) -> np.ndarray:
        return self._parity_kernel.apply(data_rows)

    def _decode_data(self, available: Dict[int, np.ndarray]) -> np.ndarray:
        # MDS: any K chunks work, so take the K lowest indices.
        indices = tuple(sorted(available)[: self.k])
        return self._decode_matrix(indices).apply(
            [available[i] for i in indices]
        )

    def _decode_matrix(self, indices: tuple) -> gf256.GFMatrix:
        """Kernel for the inverse of the surviving chunks' generator rows.

        Cached per erasure pattern: a workload that repeatedly reads during
        the same failure scenario (Figure 8(c)) pays the inversion (and the
        kernel's table compilation) once, mirroring how Jerasure callers
        cache decoding matrices.
        """
        cached = self._decode_cache.get(indices)
        if cached is None:
            rows = matrix.submatrix(self.generator, indices)
            cached = gf256.GFMatrix(matrix.invert(rows))
            self._decode_cache[indices] = cached
        return cached
