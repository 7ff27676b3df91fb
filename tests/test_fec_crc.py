"""CRC implementations against reference values, zlib and the tables."""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.fec.crc import crc8, crc16_ccitt, crc32_ieee
from tests.reference.crc import crc16_ccitt_ref, crc32_ieee_ref

_CHUNKS = st.lists(st.binary(max_size=1000), min_size=1, max_size=4)


class TestMatchesTableReference:
    """The standard-library CRCs equal the table-driven ones they replaced,
    chunk by chunk, with each chunk's CRC the next chunk's ``initial``."""

    @given(_CHUNKS, st.integers(0, 0xFFFFFFFF))
    def test_crc32_chained(self, chunks, initial):
        crc = ref = initial
        for chunk in chunks:
            crc = crc32_ieee(chunk, crc)
            ref = crc32_ieee_ref(chunk, ref)
            assert crc == ref

    @given(_CHUNKS, st.integers(0, 0xFFFF))
    def test_crc16_chained(self, chunks, initial):
        crc = ref = initial
        for chunk in chunks:
            crc = crc16_ccitt(chunk, crc)
            ref = crc16_ccitt_ref(chunk, ref)
            assert crc == ref


class TestCrc32:
    @given(st.binary(max_size=300))
    def test_matches_zlib(self, data):
        assert crc32_ieee(data) == zlib.crc32(data)

    def test_known_vector(self):
        # The classic check value for "123456789".
        assert crc32_ieee(b"123456789") == 0xCBF43926

    @given(st.binary(min_size=1, max_size=100), st.binary(min_size=0, max_size=100))
    def test_incremental(self, a, b):
        assert crc32_ieee(b, crc32_ieee(a)) == crc32_ieee(a + b)

    def test_detects_single_bit_flip(self):
        data = bytearray(b"sonic frame payload")
        reference = crc32_ieee(bytes(data))
        data[5] ^= 0x10
        assert crc32_ieee(bytes(data)) != reference


class TestCrc16:
    def test_known_vector(self):
        # CRC-16/CCITT-FALSE check value.
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_empty(self):
        assert crc16_ccitt(b"") == 0xFFFF

    @given(st.binary(min_size=1, max_size=64))
    def test_flip_detected(self, data):
        flipped = bytes([data[0] ^ 0x01]) + data[1:]
        assert crc16_ccitt(data) != crc16_ccitt(flipped)


class TestCrc8:
    def test_known_vector(self):
        assert crc8(b"123456789") == 0xF4

    def test_range(self):
        for data in (b"", b"\x00", b"\xff" * 10):
            assert 0 <= crc8(data) <= 0xFF
