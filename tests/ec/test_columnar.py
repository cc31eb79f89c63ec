"""``ErasureCodec.columnar``: does a byte range of K survivors decode
the same byte range of the data?

Stripe packing rebuilds a small object on a lost chunk from the same
``(offset, length)`` range of K survivors.  That is only sound when every
byte column codes independently, so each registered codec's ``columnar``
flag is pinned here against what its decode actually does.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import ErasureCodingError, available_codecs, make_codec

#: every registered codec, at a geometry it accepts
GEOMETRIES = {
    "rs_van": (3, 2),
    "crs": (3, 2),
    "r6_lib": (3, 2),
    "lrc": (4, 3),  # 2 local groups + 1 global parity
    "lt": (3, 2),
}


def codec_of(name):
    return make_codec(name, *GEOMETRIES[name])


def column_decode_matches(codec, value: bytes, lo: int, hi: int) -> bool:
    """For every erasure pattern the codec tolerates: does decoding bytes
    ``[lo, hi)`` of the planned survivors give bytes ``[lo, hi)`` of
    every data row of a full decode?"""
    chunks = codec.encode(value).chunks
    size = len(chunks[0])
    width = hi - lo
    for lost in range(codec.tolerated_failures + 1):
        for erased in itertools.combinations(range(codec.n), lost):
            alive = [i for i in range(codec.n) if i not in erased]
            plan = codec.decode_indices(alive)
            full = codec.decode({i: chunks[i] for i in plan}, codec.k * size)
            try:
                columns = codec.decode(
                    {i: bytes(chunks[i][lo:hi]) for i in plan},
                    codec.k * width,
                )
            except (ErasureCodingError, ValueError):
                return False
            want = b"".join(
                full[row * size + lo : row * size + hi]
                for row in range(codec.k)
            )
            if columns != want:
                return False
    return True


def battery(codec):
    """Fixed cases: odd and even chunk widths, ranges touching either
    end of the chunk, odd and even range widths."""
    rng = random.Random(31)
    for length in (3 * 67, 3 * 128, 3 * 201 - 1):
        value = rng.randbytes(length)
        size = codec.chunk_length(length)
        for lo, hi in (
            (0, size),
            (0, 1),
            (size - 1, size),
            (0, 8),
            (1, size - 1),
            (3, 19),
            (size - 16, size),
        ):
            yield value, lo, hi


def test_every_registered_codec_is_covered():
    assert set(GEOMETRIES) == set(available_codecs())


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_columnar_flag_matches_decode(name):
    codec = codec_of(name)
    matches = all(
        column_decode_matches(codec, value, lo, hi)
        for value, lo, hi in battery(codec)
    )
    assert codec.columnar == matches


@pytest.mark.parametrize(
    "name", sorted(n for n in GEOMETRIES if codec_of(n).columnar)
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_columnar_codecs_decode_any_byte_range(name, data):
    codec = codec_of(name)
    value = data.draw(st.binary(min_size=1, max_size=900), label="value")
    size = codec.chunk_length(len(value))
    lo = data.draw(
        st.one_of(st.just(0), st.integers(0, size - 1)), label="lo"
    )
    hi = data.draw(
        st.one_of(st.just(size), st.integers(lo + 1, size)), label="hi"
    )
    assert column_decode_matches(codec, value, lo, hi)
