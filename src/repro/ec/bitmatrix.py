"""Bit-matrix (binary) coding machinery.

Jerasure's Cauchy-RS and RAID-6 Liberation codes do not multiply in
GF(2^w) on the data path; they convert the generator matrix into a binary
*bit matrix* and encode/decode with pure XORs of word-sized packets.  This
module provides the conversion (via the classic companion-matrix
representation of GF(2^w) elements), XOR-based encode over packets, and
Gauss-Jordan inversion over GF(2).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.ec import gf256
from repro.ec.matrix import SingularMatrixError


def element_to_bitmatrix(a: int, w: int = 8) -> np.ndarray:
    """The ``w x w`` binary matrix representing multiplication by ``a``.

    Column ``j`` holds the bit decomposition of ``a * x^j`` in GF(2^w);
    multiplying this matrix by the bit-vector of ``b`` yields the bit
    vector of ``a * b``.  Only ``w == 8`` is supported for GF arithmetic
    (our field tables are GF(2^8)).
    """
    if w != 8:
        raise ValueError("element_to_bitmatrix supports w=8 only")
    out = np.zeros((w, w), dtype=np.uint8)
    for j in range(w):
        product = gf256.gf_mul(a, 1 << j)
        for i in range(w):
            out[i, j] = (product >> i) & 1
    return out


def matrix_to_bitmatrix(mat: Sequence[Sequence[int]], w: int = 8) -> np.ndarray:
    """Expand a GF(2^8) matrix into its binary equivalent (blocks of w x w)."""
    rows, cols = len(mat), len(mat[0])
    out = np.zeros((rows * w, cols * w), dtype=np.uint8)
    for r in range(rows):
        for c in range(cols):
            out[r * w : (r + 1) * w, c * w : (c + 1) * w] = element_to_bitmatrix(
                mat[r][c], w
            )
    return out


def shift_identity(w: int, shift: int) -> np.ndarray:
    """Cyclic-shift permutation matrix: output row ``(j + shift) % w`` of I."""
    out = np.zeros((w, w), dtype=np.uint8)
    for j in range(w):
        out[(j + shift) % w, j] = 1
    return out


def bitmatrix_rank(mat: np.ndarray) -> int:
    """Rank over GF(2) by forward elimination (non-destructive)."""
    work = mat.copy()
    rows, cols = work.shape
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if work[r, col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
        for r in range(rows):
            if r != rank and work[r, col]:
                work[r] ^= work[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def bitmatrix_invert(mat: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inversion over GF(2); raises on singular input."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("bitmatrix_invert requires a square matrix")
    work = mat.copy()
    inv = np.eye(n, dtype=np.uint8)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r, col]), None)
        if pivot is None:
            raise SingularMatrixError("binary matrix singular at column %d" % col)
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        for r in range(n):
            if r != col and work[r, col]:
                work[r] ^= work[col]
                inv[r] ^= inv[col]
    return inv


def encode_packets(bit_rows: np.ndarray, packets: List[np.ndarray]) -> List[np.ndarray]:
    """XOR-combine ``packets`` according to binary coefficient rows.

    ``bit_rows`` is ``(out_packets, in_packets)``; output packet ``i`` is
    the XOR of every input packet whose column bit is set in row ``i``.
    This is exactly Jerasure's ``jerasure_bitmatrix_encode`` inner loop.
    """
    packet_size = packets[0].size
    out = []
    for row in bit_rows:
        acc = np.zeros(packet_size, dtype=np.uint8)
        for bit, packet in zip(row, packets):
            if bit:
                np.bitwise_xor(acc, packet, out=acc)
        out.append(acc)
    return out


def compile_selections(bit_rows: np.ndarray) -> List[np.ndarray]:
    """Per output row, the input-packet indices with a set bit.

    The blocked encode path XOR-reduces ``packets[selection]`` directly,
    replacing :func:`encode_packets`' per-bit Python loop with one numpy
    reduction per output packet.  Compile once per matrix and cache.
    """
    return [np.flatnonzero(row) for row in bit_rows]


def apply_selections(
    selections: List[np.ndarray], packets: Sequence[np.ndarray]
) -> np.ndarray:
    """XOR-combine equal-sized input packets into a ``(out, size)`` matrix.

    Output row ``i`` is the XOR of ``packets[selections[i]]`` — the
    vectorized equivalent of :func:`encode_packets`, reading the packets
    in place (zero-copy views of the chunk rows).
    """
    out = np.empty((len(selections), len(packets[0])), dtype=np.uint8)
    for i, selection in enumerate(selections):
        dest = out[i]
        if selection.size == 0:
            dest.fill(0)
        elif selection.size == 1:
            np.copyto(dest, packets[selection[0]])
        else:
            np.bitwise_xor(packets[selection[0]], packets[selection[1]], out=dest)
            for j in selection[2:]:
                np.bitwise_xor(dest, packets[j], out=dest)
    return out


def chunk_to_packets(chunk: np.ndarray, w: int) -> List[np.ndarray]:
    """Split one chunk into ``w`` equal packets (caller pads to multiple)."""
    if chunk.size % w:
        raise ValueError("chunk size %d not divisible by w=%d" % (chunk.size, w))
    packet_size = chunk.size // w
    return [chunk[i * packet_size : (i + 1) * packet_size] for i in range(w)]


def packets_to_chunk(packets: List[np.ndarray]) -> np.ndarray:
    """Reassemble one chunk from its packets."""
    return np.concatenate(packets)
