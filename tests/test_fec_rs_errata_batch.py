"""Batched Reed-Solomon errata chain vs the scalar golden reference.

``decode_blocks`` now runs Berlekamp-Massey, the Chien search, and the
Forney correction over the whole batch of syndrome-failing blocks at
once.  These tests pin the batched chain block by block to the seed's
scalar decoder, ``tests/reference/fec.py::rs_decode_ref``: corrected
bytes, errata counts, success flags, and the *exact* failure strings for
beyond-capacity inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fec.reed_solomon import ReedSolomon, RSDecodeError
from tests.reference.fec import rs_decode_ref


@pytest.fixture(scope="module")
def rs16() -> ReedSolomon:
    return ReedSolomon(nsym=16)


def _assert_matches_reference(rs, blocks, erase):
    report = rs.decode_blocks(blocks, erase)
    for i in range(blocks.shape[0]):
        ep = erase[i] if erase is not None else None
        try:
            ref = rs_decode_ref(rs, blocks[i].tobytes(), ep)
        except RSDecodeError as exc:
            assert not report.ok[i]
            assert report.errors[i] == str(exc)
        else:
            assert report.ok[i] and report.errors[i] is None
            assert report.data[i].tobytes() == ref.data
            assert int(report.corrected[i]) == ref.corrected
    return report


class TestErrorsUpToCapacity:
    @settings(max_examples=30, deadline=None)
    @given(
        n_blocks=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=1, max_value=239),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_error_loads(self, rs16, n_blocks, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, (n_blocks, k), dtype=np.uint8)
        blocks = rs16.encode_blocks(data).copy()
        length = k + rs16.nsym
        for i in range(n_blocks):
            n_err = int(rng.integers(0, rs16.nsym // 2 + 1))
            pos = rng.choice(length, size=n_err, replace=False)
            blocks[i, pos] ^= rng.integers(1, 256, n_err).astype(np.uint8)
        report = _assert_matches_reference(rs16, blocks, None)
        assert report.all_ok
        assert (report.data == data).all()

    def test_mixed_clean_and_errored_batch(self, rs16):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, (8, 100), dtype=np.uint8)
        blocks = rs16.encode_blocks(data).copy()
        blocks[1, 3] ^= 0xFF
        blocks[4, [0, 50, 99, 110]] ^= 0x5A
        blocks[6, 10:18] ^= 7  # exactly t = 8 errors
        report = _assert_matches_reference(rs16, blocks, None)
        assert report.all_ok
        assert list(report.corrected) == [0, 1, 0, 0, 4, 0, 8, 0]


class TestErasureHeavyInputs:
    @settings(max_examples=30, deadline=None)
    @given(
        n_blocks=st.integers(min_value=1, max_value=8),
        k=st.integers(min_value=4, max_value=239),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_erasures_and_errors_within_budget(self, rs16, n_blocks, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, (n_blocks, k), dtype=np.uint8)
        blocks = rs16.encode_blocks(data).copy()
        length = k + rs16.nsym
        erase: list[list[int] | None] = []
        for i in range(n_blocks):
            n_era = int(rng.integers(0, rs16.nsym + 1))
            budget = (rs16.nsym - n_era) // 2
            n_err = int(rng.integers(0, budget + 1))
            pos = rng.choice(length, size=n_era + n_err, replace=False)
            era = sorted(int(p) for p in pos[:n_era])
            for p in era:
                blocks[i, p] = int(rng.integers(0, 256))
            if n_err:
                blocks[i, pos[n_era:]] ^= rng.integers(
                    1, 256, n_err
                ).astype(np.uint8)
            erase.append(era or None)
        report = _assert_matches_reference(rs16, blocks, erase)
        assert report.all_ok
        assert (report.data == data).all()

    def test_full_erasure_budget(self, rs16):
        """nsym erasures and zero errors is still decodable."""
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, (3, 60), dtype=np.uint8)
        blocks = rs16.encode_blocks(data).copy()
        erase = []
        for i in range(3):
            pos = sorted(int(p) for p in rng.choice(76, 16, replace=False))
            blocks[i, pos] = 0xEE
            erase.append(pos)
        report = _assert_matches_reference(rs16, blocks, erase)
        assert report.all_ok
        assert list(report.corrected) == [16, 16, 16]


class TestBeyondCapacity:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        extra=st.integers(min_value=1, max_value=6),
    )
    def test_too_many_errors_fail_like_reference(self, rs16, seed, extra):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, (4, 120), dtype=np.uint8)
        blocks = rs16.encode_blocks(data).copy()
        length = 120 + rs16.nsym
        for i in range(4):
            n_err = rs16.nsym // 2 + extra
            pos = rng.choice(length, size=n_err, replace=False)
            blocks[i, pos] ^= rng.integers(1, 256, n_err).astype(np.uint8)
        _assert_matches_reference(rs16, blocks, None)

    def test_failures_leave_other_blocks_intact(self, rs16):
        rng = np.random.default_rng(4)
        data = rng.integers(0, 256, (5, 80), dtype=np.uint8)
        blocks = rs16.encode_blocks(data).copy()
        # Block 2 is unrecoverable; 0/4 clean; 1/3 correctable.
        blocks[1, 7] ^= 1
        blocks[2, rng.choice(96, 14, replace=False)] ^= 0x3C
        blocks[3, [10, 20]] ^= 0x77
        report = _assert_matches_reference(rs16, blocks, None)
        assert list(report.ok) == [True, True, False, True, True]
        assert (report.data[[0, 1, 3, 4]] == data[[0, 1, 3, 4]]).all()

    @pytest.mark.parametrize("nsym", [4, 8, 32])
    def test_other_strengths(self, nsym):
        rs = ReedSolomon(nsym)
        rng = np.random.default_rng(nsym)
        k = rs.max_data_len
        data = rng.integers(0, 256, (6, k), dtype=np.uint8)
        blocks = rs.encode_blocks(data).copy()
        for i in range(6):
            n_err = int(rng.integers(0, nsym + 2))
            pos = rng.choice(k + nsym, size=n_err, replace=False)
            blocks[i, pos] ^= rng.integers(1, 256, n_err).astype(np.uint8)
        _assert_matches_reference(rs, blocks, None)
