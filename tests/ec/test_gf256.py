"""GF(2^8) arithmetic: field axioms and vectorized kernels."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ec import gf256

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestScalarField:
    def test_additive_identity(self):
        for a in range(256):
            assert gf256.gf_add(a, 0) == a

    def test_addition_is_xor_self_inverse(self):
        for a in range(256):
            assert gf256.gf_add(a, a) == 0

    def test_multiplicative_identity(self):
        for a in range(256):
            assert gf256.gf_mul(a, 1) == a

    def test_zero_annihilates(self):
        for a in range(256):
            assert gf256.gf_mul(a, 0) == 0

    @given(elements, elements)
    def test_multiplication_commutes(self, a, b):
        assert gf256.gf_mul(a, b) == gf256.gf_mul(b, a)

    @given(elements, elements, elements)
    def test_multiplication_associates(self, a, b, c):
        left = gf256.gf_mul(gf256.gf_mul(a, b), c)
        right = gf256.gf_mul(a, gf256.gf_mul(b, c))
        assert left == right

    @given(elements, elements, elements)
    def test_distributivity(self, a, b, c):
        left = gf256.gf_mul(a, b ^ c)
        right = gf256.gf_mul(a, b) ^ gf256.gf_mul(a, c)
        assert left == right

    @given(nonzero)
    def test_inverse(self, a):
        assert gf256.gf_mul(a, gf256.gf_inv(a)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.gf_inv(0)

    @given(elements, nonzero)
    def test_division_roundtrip(self, a, b):
        q = gf256.gf_div(a, b)
        assert gf256.gf_mul(q, b) == a

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.gf_div(5, 0)

    @given(nonzero)
    def test_pow_matches_repeated_mul(self, a):
        acc = 1
        for n in range(6):
            assert gf256.gf_pow(a, n) == acc
            acc = gf256.gf_mul(acc, a)

    def test_pow_of_zero(self):
        assert gf256.gf_pow(0, 0) == 1
        assert gf256.gf_pow(0, 5) == 0

    def test_mul_table_matches_reference(self):
        # Spot-check against slow carry-less multiplication.
        def slow_mul(a, b):
            result = 0
            while b:
                if b & 1:
                    result ^= a
                a <<= 1
                if a & 0x100:
                    a ^= gf256.PRIMITIVE_POLY
                b >>= 1
            return result

        for a in (1, 2, 3, 0x53, 0xCA, 255):
            for b in (1, 2, 0x0F, 0x80, 255):
                assert gf256.gf_mul(a, b) == slow_mul(a, b)

    def test_multiplicative_group_is_cyclic_of_order_255(self):
        seen = set()
        x = 1
        for _ in range(255):
            seen.add(x)
            x = gf256.gf_mul(x, 2)
        assert len(seen) == 255
        assert x == 1  # generator cycles back


class TestVectorKernels:
    def test_mul_bytes_zero_coefficient(self):
        data = np.arange(16, dtype=np.uint8)
        assert not gf256.mul_bytes(0, data).any()

    def test_mul_bytes_one_copies(self):
        data = np.arange(16, dtype=np.uint8)
        out = gf256.mul_bytes(1, data)
        assert np.array_equal(out, data)
        assert out is not data  # must not alias

    @given(elements)
    def test_mul_bytes_matches_scalar(self, coef):
        data = np.arange(256, dtype=np.uint8)
        out = gf256.mul_bytes(coef, data)
        for i in range(0, 256, 37):
            assert out[i] == gf256.gf_mul(coef, int(data[i]))

    @given(elements, elements)
    def test_addmul_bytes_matches_scalar(self, coef, start):
        acc = np.full(32, start, dtype=np.uint8)
        data = np.arange(32, dtype=np.uint8)
        expected = [
            start ^ gf256.gf_mul(coef, int(v)) for v in data
        ]
        gf256.addmul_bytes(acc, coef, data)
        assert list(acc) == expected

    def test_addmul_bytes_coefficient_zero_is_noop(self):
        acc = np.arange(8, dtype=np.uint8)
        before = acc.copy()
        gf256.addmul_bytes(acc, 0, np.ones(8, dtype=np.uint8))
        assert np.array_equal(acc, before)
