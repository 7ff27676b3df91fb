"""Vectorised Reed-Solomon equivalence against the scalar golden reference.

The seed's byte-at-a-time codec lives in ``tests/reference/fec.py`` as
``rs_encode_ref`` / ``rs_decode_ref``; these property tests pin the numpy
block path (and the one-row ``encode``/``decode``) to it bit-for-bit,
including erasures, error loads up to capacity, and beyond-capacity
failures.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fec.galois import GF
from repro.fec.reed_solomon import ReedSolomon, RSDecodeError
from tests.reference.fec import rs_decode_ref, rs_encode_ref


@pytest.fixture(scope="module")
def rs16() -> ReedSolomon:
    return ReedSolomon(nsym=16)


class TestGaloisTables:
    def test_mul_table_matches_scalar_mul(self):
        table = GF.mul_table
        rng = np.random.default_rng(0)
        for a, b in rng.integers(0, 256, (200, 2)):
            assert int(table[a, b]) == GF.mul(int(a), int(b))

    def test_mul_table_is_read_only(self):
        with pytest.raises(ValueError):
            GF.mul_table[0, 0] = 1

    def test_poly_eval_many_matches_poly_eval(self):
        rng = np.random.default_rng(1)
        poly = rng.integers(0, 256, 9)
        xs = np.arange(256)
        many = GF.poly_eval_many(poly, xs)
        for x in range(256):
            assert many[x] == GF.poly_eval(poly, x)

    def test_exp_vec_matches_exp(self):
        powers = np.arange(-10, 600)
        vec = GF.exp_vec(powers)
        for p, v in zip(powers, vec):
            assert v == GF.exp(int(p))


class TestEncodeEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        n_blocks=st.integers(min_value=1, max_value=8),
        k=st.integers(min_value=1, max_value=239),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_encode_blocks_matches_reference(self, rs16, n_blocks, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, (n_blocks, k), dtype=np.uint8)
        batch = rs16.encode_blocks(data)
        for i in range(n_blocks):
            assert batch[i].tobytes() == rs_encode_ref(rs16, data[i].tobytes())

    @pytest.mark.parametrize("nsym", [2, 4, 8, 32, 64])
    def test_other_strengths(self, nsym):
        rs = ReedSolomon(nsym)
        rng = np.random.default_rng(nsym)
        data = rng.integers(0, 256, (4, rs.max_data_len), dtype=np.uint8)
        batch = rs.encode_blocks(data)
        for i in range(4):
            assert batch[i].tobytes() == rs_encode_ref(rs, data[i].tobytes())

    def test_scalar_wrapper_matches_reference(self, rs16):
        data = bytes(range(100))
        assert rs16.encode(data) == rs_encode_ref(rs16, data)

    def test_validation_matches_reference(self, rs16):
        with pytest.raises(ValueError):
            rs16.encode_blocks(np.zeros((2, 0), dtype=np.uint8))
        with pytest.raises(ValueError):
            rs16.encode_blocks(np.zeros((2, 240), dtype=np.uint8))


class TestDecodeEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=20, max_value=239),
        n_errors=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_errors_up_to_capacity(self, rs16, k, n_errors, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, (3, k), dtype=np.uint8)
        coded = rs16.encode_blocks(data)
        for i in range(3):
            pos = rng.choice(k + 16, size=n_errors, replace=False)
            coded[i, pos] ^= rng.integers(1, 256, n_errors).astype(np.uint8)
        report = rs16.decode_blocks(coded)
        assert report.all_ok
        for i in range(3):
            ref = rs_decode_ref(rs16, coded[i].tobytes())
            assert report.data[i].tobytes() == ref.data
            assert report.corrected[i] == ref.corrected

    @settings(max_examples=25, deadline=None)
    @given(
        n_erasures=st.integers(min_value=0, max_value=16),
        n_errors=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_erasures_and_errors(self, rs16, n_erasures, n_errors, seed):
        if 2 * n_errors + n_erasures > 16:
            n_errors = (16 - n_erasures) // 2
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, (1, 100), dtype=np.uint8)
        coded = rs16.encode_blocks(data)
        corrupt = rng.choice(116, size=n_erasures + n_errors, replace=False)
        for pos in corrupt:
            coded[0, pos] ^= int(rng.integers(1, 256))
        erased = [int(p) for p in corrupt[:n_erasures]]
        report = rs16.decode_blocks(coded, [erased])
        ref = rs_decode_ref(rs16, coded[0].tobytes(), erase_pos=erased)
        assert report.all_ok
        assert report.data[0].tobytes() == ref.data
        assert report.corrected[0] == ref.corrected

    def test_beyond_capacity_flags_block(self, rs16):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, (2, 100), dtype=np.uint8)
        coded = rs16.encode_blocks(data)
        coded[1, :40] ^= rng.integers(1, 256, 40).astype(np.uint8)
        report = rs16.decode_blocks(coded)
        assert bool(report.ok[0]) and not bool(report.ok[1])
        assert report.errors[1] is not None
        with pytest.raises(RSDecodeError):
            rs_decode_ref(rs16, coded[1].tobytes())

    def test_wrapper_raises_like_reference(self, rs16):
        block = bytearray(rs16.encode(bytes(50)))
        for i in range(30):
            block[i] ^= 0xA5
        with pytest.raises(RSDecodeError):
            rs16.decode(bytes(block))
        with pytest.raises(RSDecodeError):
            rs_decode_ref(rs16, bytes(block))

    def test_too_many_erasures(self, rs16):
        coded = rs16.encode_blocks(np.zeros((1, 40), dtype=np.uint8))
        report = rs16.decode_blocks(coded, [list(range(17))])
        assert not report.ok[0]
        with pytest.raises(RSDecodeError):
            rs16.decode(coded[0].tobytes(), erase_pos=list(range(17)))

    def test_erasure_position_validated(self, rs16):
        coded = rs16.encode_blocks(np.zeros((1, 40), dtype=np.uint8))
        with pytest.raises(ValueError):
            rs16.decode_blocks(coded, [[56]])

    def test_mismatched_erasure_list_count(self, rs16):
        coded = rs16.encode_blocks(np.zeros((2, 40), dtype=np.uint8))
        with pytest.raises(ValueError):
            rs16.decode_blocks(coded, [[0]])
