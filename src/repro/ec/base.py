"""Codec interface shared by all erasure codes in this package."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.ec import gf256


def _prime_large_alloc_reuse() -> None:
    """Teach glibc to serve MiB-scale coding buffers from the heap.

    glibc only raises its dynamic mmap threshold when an mmap-backed
    block is *freed*.  The zero-copy encode path never frees a large
    block, so without this nudge every multi-MiB decode temporary is
    mmapped and munmapped per call — ~500 minor page faults per 1 MiB
    decode, a measured ~3x throughput loss.  Allocating and freeing one
    big block at import makes all later coding temporaries reuse warm
    heap pages.  Harmless (one transient allocation) on other mallocs.
    """
    buf = bytearray(8 << 20)
    del buf


_prime_large_alloc_reuse()


class ErasureCodingError(Exception):
    """Raised on unrecoverable coding situations (e.g. fewer than K chunks)."""


@dataclass
class ChunkSet:
    """The output of an encode: K data + M parity chunks plus metadata.

    ``chunks[i]`` for ``i < k`` are the data chunks (systematic codes pass
    data through unchanged); ``chunks[i]`` for ``i >= k`` are parity.
    Chunks are read-only ``memoryview`` objects — slices of the value, of
    its zero-padded tail and of the parity block; encode copies no chunk
    the value fills — so a checksum memoized on a chunk stays true.  A
    chunk kept without its siblings needs an owning ``bytes(chunk)``
    copy, or it pins the whole value or parity block it views:
    ``ErasureScheme.stamped_chunks`` makes that copy for every rebuilt
    chunk, while a Set stores all K data chunks and copies none.
    ``data_len`` records the unpadded original length so decode can strip
    the zero padding of the last data chunk.
    """

    k: int
    m: int
    data_len: int
    chunks: List[bytes] = field(default_factory=list)

    @property
    def n(self) -> int:
        """Total chunks (data + parity)."""
        return self.k + self.m

    @property
    def chunk_size(self) -> int:
        """Bytes per chunk."""
        return len(self.chunks[0]) if self.chunks else 0

    def subset(self, indices) -> Dict[int, bytes]:
        """Pick the chunks at ``indices`` — models surviving fragments."""
        return {i: self.chunks[i] for i in indices}


def pad_data(data: bytes, k: int, alignment: int = 1) -> bytes:
    """``data`` zero-padded to K equal chunks of the aligned chunk size.

    Returns ``data`` itself (no copy) when it already divides evenly; a
    single concatenation otherwise.  ``alignment`` rounds the chunk size
    up to a multiple (bit-matrix codecs need chunks divisible into ``w``
    packets).  An empty value still produces K minimal chunks so that the
    chunk bookkeeping (one fragment per server) stays uniform.
    """
    chunk_size = max(1, -(-len(data) // k))  # ceil division, min 1 byte
    if chunk_size % alignment:
        chunk_size += alignment - (chunk_size % alignment)
    total = chunk_size * k
    if len(data) == total:
        return data
    return data + bytes(total - len(data))


def split_matrix(data: bytes, k: int, alignment: int = 1) -> np.ndarray:
    """View ``data`` as a zero-copy ``(k, chunk_size)`` uint8 matrix.

    Pads first via :func:`pad_data` (itself a no-op when the value
    already divides evenly); the returned rows are the K data chunks.
    """
    padded = pad_data(data, k, alignment)
    return np.frombuffer(padded, dtype=np.uint8).reshape(k, -1)


class ErasureCodec(ABC):
    """Systematic (K, M) erasure codec over bytes.

    ``encode`` produces ``k + m`` equal-sized chunks; ``decode``
    reconstructs the original value from *any* ``k`` of them.  Subclasses
    implement the parity generation and the reconstruction math; padding
    and chunk bookkeeping live here.
    """

    #: registry name, e.g. ``"rs_van"``; set by subclasses.
    name: str = ""

    #: chunk sizes are rounded up to a multiple of this (bit-matrix codecs
    #: set it to their word size ``w`` so chunks divide into packets).
    chunk_alignment: int = 1

    #: every byte column codes independently: byte ``j`` of any chunk is
    #: a function of byte ``j`` of the data chunks alone, so the same
    #: byte range of K survivors decodes that range of the lost chunks.
    columnar: bool = True

    def __init__(self, k: int, m: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        if m < 0:
            raise ValueError("m must be >= 0")
        if k + m > gf256.FIELD_SIZE:
            raise ValueError("k + m must be <= 256 for GF(2^8) codes")
        self.k = k
        self.m = m

    @property
    def n(self) -> int:
        """Total chunks (data + parity)."""
        return self.k + self.m

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per data byte: N/K (paper Section I-A)."""
        return self.n / self.k

    @property
    def tolerated_failures(self) -> int:
        """Simultaneous chunk losses survived (M for MDS codes)."""
        return self.m

    def can_decode(self, indices) -> bool:
        """Whether the given chunk indices suffice to reconstruct the data.

        MDS codes need any K; non-MDS codes (LRC) override this with a
        rank check.
        """
        return len(set(indices)) >= self.k

    def decode_indices(self, available) -> Optional[List[int]]:
        """A decodable subset of ``available`` indices (fetch plan).

        Returns ``None`` when the survivors cannot reconstruct the data.
        MDS codes take the K lowest indices; non-MDS codes override.
        """
        indices = sorted(set(available))
        if len(indices) < self.k:
            return None
        return indices[: self.k]

    def local_repair_sources(
        self, lost_index: int, available: Sequence[int]
    ) -> Optional[List[int]]:
        """The chunks that rebuild ``lost_index`` without a full decode.

        ``None`` means there is no such set: codes without local groups
        rebuild every chunk from a full decode.  LRC overrides this.
        """
        return None

    def chunk_length(self, data_len: int) -> int:
        """Size of each of the K+M chunks for a ``data_len``-byte value.

        Matches :meth:`encode`'s padding, so size-only payloads get
        byte-identical accounting to real encodes.
        """
        size = max(1, -(-data_len // self.k))
        if size % self.chunk_alignment:
            size += self.chunk_alignment - (size % self.chunk_alignment)
        return size

    def encode(self, data: bytes) -> ChunkSet:
        """Encode ``data`` into a :class:`ChunkSet` of K+M chunks.

        Zero-copy data plane: every data chunk the value fills is a
        ``memoryview`` slice of it; only the chunks reaching past its end
        are copied, into one zero-padded tail block.  Parity rows are
        views of the kernel's single output block.
        """
        view = memoryview(data).cast("B").toreadonly()
        size = self.chunk_length(len(view))
        full = min(len(view) // size, self.k)
        chunks: List[bytes] = [
            view[i * size : (i + 1) * size] for i in range(full)
        ]
        if full < self.k:
            pad = bytes(self.k * size - len(view))
            tail = memoryview(b"".join((view[full * size :], pad)))
            chunks.extend(
                tail[i * size : (i + 1) * size] for i in range(self.k - full)
            )
        parity = self._encode_parity(
            [np.frombuffer(chunk, dtype=np.uint8) for chunk in chunks]
        )
        if parity.shape != (self.m, size):
            raise ErasureCodingError(
                "%s produced parity of shape %s, expected %s"
                % (type(self).__name__, parity.shape, (self.m, size))
            )
        # read-only like the data chunks: a chunk's CRC gets memoized
        parity.flags.writeable = False
        chunks.extend(memoryview(row) for row in parity)
        return ChunkSet(k=self.k, m=self.m, data_len=len(view), chunks=chunks)

    def decode(self, available: Mapping[int, bytes], data_len: int) -> bytes:
        """Rebuild the original value from surviving chunks.

        ``available`` maps chunk index (0..n-1) to chunk bytes.  When every
        data chunk survived, their bytes are joined as they are; otherwise
        MDS codes use the first K entries in index order and non-MDS codes
        (LRC) pick a linearly independent subset.  Either way the value is
        copied once, into the returned ``bytes``.  Raises
        :class:`ErasureCodingError` when the survivors cannot reconstruct
        the data.
        """
        if len(available) < self.k:
            raise ErasureCodingError(
                "need %d chunks to decode, got %d" % (self.k, len(available))
            )
        indices = sorted(available)
        sizes = {len(available[i]) for i in indices}
        if len(sizes) != 1:
            raise ErasureCodingError("chunk sizes differ: %s" % sorted(sizes))
        if any(i < 0 or i >= self.n for i in indices):
            raise ErasureCodingError("chunk index out of range 0..%d" % (self.n - 1))
        (size,) = sizes
        if data_len > self.k * size:
            raise ErasureCodingError(
                "data_len %d exceeds decoded payload %d"
                % (data_len, self.k * size)
            )
        if all(i in available for i in range(self.k)):
            rows = [available[i] for i in range(self.k)]  # no math at all
        else:
            rows = self._decode_data(
                {
                    i: np.frombuffer(available[i], dtype=np.uint8)
                    for i in indices
                }
            )
        full, rest = divmod(data_len, size)
        parts = [rows[i] for i in range(full)]
        if rest:
            parts.append(memoryview(rows[full])[:rest])
        return b"".join(parts)

    # -- subclass hooks ----------------------------------------------------
    @abstractmethod
    def _encode_parity(self, data_rows: List[np.ndarray]) -> np.ndarray:
        """The ``(m, size)`` parity block of the K data rows (1-D uint8)."""

    @abstractmethod
    def _decode_data(self, available: Dict[int, np.ndarray]):
        """Rebuild the K data rows from the surviving rows (>= K, some
        data row missing).

        May return a list of K row arrays or a ``(k, size)`` matrix.
        """
