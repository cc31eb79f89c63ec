"""Blocked GF(256) kernel: byte-identical to the scalar reference path.

The GEMM-style :class:`~repro.ec.gf256.GFMatrix` kernel replaced the
row-by-row ``addmul_bytes`` loops in every matrix codec.  These tests pin
the kernel (and the codecs built on it) to the scalar path bit-for-bit,
across geometries, chunk sizes (including 0 and non-multiples of K), and
all erasure patterns up to each codec's tolerance.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import available_codecs, bitmatrix, gf256, make_codec, matrix
from repro.ec.reed_solomon import ReedSolomonVandermonde


def scalar_matmul(coefs: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Reference product: the old per-coefficient addmul_bytes loop."""
    coefs = np.asarray(coefs, dtype=np.uint8)
    out = np.zeros((coefs.shape[0], data.shape[1]), dtype=np.uint8)
    for r in range(coefs.shape[0]):
        for c in range(coefs.shape[1]):
            gf256.addmul_bytes(out[r], int(coefs[r, c]), data[c])
    return out


class TestKernelMatchesScalar:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=261),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_matrices(self, rows, cols, width, seed):
        rng = np.random.default_rng(seed)
        coefs = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
        data = rng.integers(0, 256, size=(cols, width), dtype=np.uint8)
        kernel = gf256.GFMatrix(coefs)
        assert np.array_equal(kernel.apply(data), scalar_matmul(coefs, data))

    @pytest.mark.parametrize("width", [0, 1, 2, 3, 17, 64, 65, 4096])
    def test_even_and_odd_widths(self, width):
        rng = np.random.default_rng(width)
        coefs = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
        data = rng.integers(0, 256, size=(4, width), dtype=np.uint8)
        kernel = gf256.GFMatrix(coefs)
        assert np.array_equal(kernel.apply(data), scalar_matmul(coefs, data))

    def test_zero_and_identity_coefficients(self):
        # coefficient 0 rows must zero-fill; coefficient 1 must copy/XOR
        # without any table gather — both short-circuit in the row plans.
        coefs = np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 1], [2, 1, 0]], dtype=np.uint8
        )
        rng = np.random.default_rng(5)
        data = rng.integers(0, 256, size=(3, 130), dtype=np.uint8)
        kernel = gf256.GFMatrix(coefs)
        out = kernel.apply(data)
        assert np.array_equal(out, scalar_matmul(coefs, data))
        assert not out[0].any()
        assert np.array_equal(out[1], data[0])

    def test_empty_matrix(self):
        kernel = gf256.GFMatrix(np.zeros((0, 0), dtype=np.uint8))
        out = kernel.apply(np.zeros((0, 16), dtype=np.uint8))
        assert out.shape == (0, 16)

    def test_noncontiguous_input(self):
        rng = np.random.default_rng(11)
        coefs = rng.integers(0, 256, size=(2, 3), dtype=np.uint8)
        wide = rng.integers(0, 256, size=(3, 256), dtype=np.uint8)
        data = wide[:, ::2]  # non-contiguous view
        kernel = gf256.GFMatrix(coefs)
        assert np.array_equal(kernel.apply(data), scalar_matmul(coefs, data))

    @pytest.mark.parametrize("width", [1, 3, 87_383, 65_537, 131_073])
    def test_odd_widths_across_block_boundaries(self, width):
        # pair tables over the even prefix, 8-bit tables on the last
        # column; the last two widths cross a 64 Ki block boundary
        rng = np.random.default_rng(width)
        coefs = rng.integers(0, 256, size=(3, 3), dtype=np.uint8)
        coefs[0] = 1  # a plain-XOR row beside the gathered ones
        data = rng.integers(0, 256, size=(3, width), dtype=np.uint8)
        kernel = gf256.GFMatrix(coefs)
        assert np.array_equal(kernel.apply(data), scalar_matmul(coefs, data))

    @pytest.mark.parametrize("width", [0, 1, 2, 3, 1001, 87_383])
    def test_row_sequence_input_reads_rows_in_place(self, width):
        # a decode passes survivor rows as they are: separate buffers,
        # some starting on odd addresses, none stacked
        rng = np.random.default_rng(width + 1)
        coefs = rng.integers(0, 256, size=(2, 3), dtype=np.uint8)
        blob = rng.integers(0, 256, size=3 * width + 1, dtype=np.uint8)
        rows = [blob[1 + i * width : 1 + (i + 1) * width] for i in range(3)]
        kernel = gf256.GFMatrix(coefs)
        expected = scalar_matmul(coefs, np.stack(rows))
        assert np.array_equal(kernel.apply(rows), expected)
        assert np.array_equal(kernel.apply(tuple(rows)), expected)

    def test_row_sequence_shape_is_checked(self):
        kernel = gf256.GFMatrix(np.ones((2, 3), dtype=np.uint8))
        row = np.zeros(8, dtype=np.uint8)
        with pytest.raises(ValueError):
            kernel.apply([row, row])  # two rows for three columns
        with pytest.raises(ValueError):
            kernel.apply([row, row, row[:7]])  # ragged


def scalar_bit_parity(codec, data_mat: np.ndarray):
    """Reference bit-matrix parity: explicit packet XOR per generator row."""
    w = codec.word_size
    packets = []
    for r in range(codec.k):
        packets.extend(bitmatrix.chunk_to_packets(data_mat[r], w))
    parity = []
    for p in range(codec.m):
        rows = codec.bit_generator[(codec.k + p) * w : (codec.k + p + 1) * w]
        out_rows = []
        for row in rows:
            acc = np.zeros(data_mat.shape[1] // w, dtype=np.uint8)
            for j in np.flatnonzero(row):
                acc ^= packets[j]
            out_rows.append(acc)
        parity.append(np.concatenate(out_rows))
    return parity


#: data sizes exercised per codec: empty, single byte, non-multiples of K,
#: exact multiples, and a few KiB.
SIZES = [0, 1, 7, 97, 1000, 4099]

#: geometries per registry name (some codecs constrain (k, m)).
GEOMETRIES = {
    "rs_van": [(1, 0), (2, 1), (3, 2), (4, 2), (6, 3)],
    "crs": [(2, 1), (3, 2), (4, 2)],
    "r6_lib": [(2, 2), (4, 2), (5, 2)],
    "lrc": [(4, 3), (6, 4)],
    "lt": [(3, 2), (4, 2)],
}


def _sample(size: int, salt: int) -> bytes:
    return bytes((i * 31 + salt * 17 + 11) % 256 for i in range(size))


class TestCodecParityMatchesScalar:
    @pytest.mark.parametrize("geometry", GEOMETRIES["rs_van"][1:] + [(4, 3)])
    def test_rs_van_parity(self, geometry):
        k, m = geometry
        codec = make_codec("rs_van", k, m)
        data = _sample(4099, k + m)
        chunk_set = codec.encode(data)
        data_mat = np.stack(
            [np.frombuffer(chunk_set.chunks[i], dtype=np.uint8) for i in range(k)]
        )
        expected = scalar_matmul(
            np.array(codec.generator[k:], dtype=np.uint8), data_mat
        )
        for i in range(m):
            got = np.frombuffer(chunk_set.chunks[k + i], dtype=np.uint8)
            assert np.array_equal(got, expected[i])

    @pytest.mark.parametrize("name", ["crs", "r6_lib"])
    def test_bitmatrix_parity(self, name):
        for k, m in GEOMETRIES[name]:
            codec = make_codec(name, k, m)
            data = _sample(2048, k)
            chunk_set = codec.encode(data)
            data_mat = np.stack(
                [
                    np.frombuffer(chunk_set.chunks[i], dtype=np.uint8)
                    for i in range(k)
                ]
            )
            expected = scalar_bit_parity(codec, data_mat)
            for i in range(m):
                got = np.frombuffer(chunk_set.chunks[k + i], dtype=np.uint8)
                assert np.array_equal(got, expected[i]), "%s parity %d" % (
                    codec.name,
                    i,
                )


class TestEveryCodecRoundTrips:
    @pytest.mark.parametrize("name", sorted(available_codecs()))
    def test_all_erasure_patterns_up_to_tolerance(self, name):
        for k, m in GEOMETRIES[name]:
            codec = make_codec(name, k, m)
            for size in SIZES:
                data = _sample(size, k)
                chunk_set = codec.encode(data)
                for t in range(codec.tolerated_failures + 1):
                    for erased in itertools.combinations(range(codec.n), t):
                        survivors = [
                            i for i in range(codec.n) if i not in erased
                        ]
                        out = codec.decode(chunk_set.subset(survivors), size)
                        assert out == data, (
                            "%s k=%d m=%d size=%d erased=%s"
                            % (name, k, m, size, erased)
                        )

    @pytest.mark.parametrize("name", sorted(available_codecs()))
    def test_chunks_are_read_only_and_decode_is_exact(self, name):
        # a chunk's CRC is memoized on its Payload, so no chunk may be
        # writable; decode hands back owning bytes of exactly data_len
        for k, m in GEOMETRIES[name]:
            codec = make_codec(name, k, m)
            for size in SIZES:
                data = _sample(size, k + m)
                chunk_set = codec.encode(data)
                assert all(chunk.readonly for chunk in chunk_set.chunks)
                survivors = list(range(codec.tolerated_failures, codec.n))
                out = codec.decode(chunk_set.subset(survivors), size)
                assert type(out) is bytes and out == data

    @settings(max_examples=15, deadline=None)
    @given(
        st.binary(min_size=0, max_size=1024),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=3),
    )
    def test_random_geometry_rs(self, data, k, m):
        codec = make_codec("rs_van", k, m)
        chunk_set = codec.encode(data)
        for erased_count in range(m + 1):
            survivors = list(range(erased_count, codec.n))[: codec.k]
            assert codec.decode(chunk_set.subset(survivors), len(data)) == data


class TestDecodeMatrixRegression:
    """Satellite: the decode-matrix cache and the systematic fast path."""

    def test_invert_once_per_erasure_pattern(self, monkeypatch):
        codec = ReedSolomonVandermonde(3, 2)  # fresh, private cache
        calls = []
        real_invert = matrix.invert

        def counting_invert(rows):
            calls.append(1)
            return real_invert(rows)

        monkeypatch.setattr(matrix, "invert", counting_invert)
        data = _sample(1500, 9)
        chunk_set = codec.encode(data)
        degraded = chunk_set.subset((1, 2, 3))  # data chunk 0 lost
        for _ in range(5):
            assert codec.decode(degraded, len(data)) == data
        assert len(calls) == 1, "repeated degraded GETs must hit the cache"
        # a different pattern triggers exactly one more inversion
        other = chunk_set.subset((0, 2, 4))
        for _ in range(3):
            assert codec.decode(other, len(data)) == data
        assert len(calls) == 2

    def test_systematic_fast_path_does_no_gf_math(self, monkeypatch):
        codec = ReedSolomonVandermonde(3, 2)
        data = _sample(1200, 3)
        chunk_set = codec.encode(data)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("GF math on the systematic all-data path")

        monkeypatch.setattr(gf256.GFMatrix, "apply", boom)
        monkeypatch.setattr(gf256, "addmul_bytes", boom)
        monkeypatch.setattr(gf256, "mul_bytes", boom)
        monkeypatch.setattr(matrix, "invert", boom)
        out = codec.decode(chunk_set.subset(range(3)), len(data))
        assert out == data
