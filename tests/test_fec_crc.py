"""CRC implementations against reference values, zlib and the tables,
and the two CRC-16 message layouts built on them."""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.fec.crc import (
    crc8,
    crc16_ccitt,
    crc32_ieee,
    pack_u8_frame,
    pack_u16_frame,
    unpack_u8_frame,
    unpack_u16_frame,
)
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


class TestFraming:
    """Each CRC-16 message layout round-trips through its one builder
    and parser, and the parser rejects a zero length, a truncated frame
    and any single flipped CRC bit."""

    @given(st.binary(min_size=1, max_size=255), st.binary(max_size=8), st.data())
    def test_u8_frame(self, payload, tail, data):
        frame = pack_u8_frame(payload)
        assert frame[0] == len(payload) and len(frame) == len(payload) + 3
        assert unpack_u8_frame(frame + tail) == payload
        assert unpack_u8_frame(frame[: data.draw(st.integers(0, len(frame) - 1))]) is None
        assert unpack_u8_frame(_flip_crc_bit(frame, data.draw(st.integers(0, 15)))) is None
        empty = b"\x00" + crc16_ccitt(b"").to_bytes(2, "big")
        assert unpack_u8_frame(empty + tail) is None

    @given(
        st.binary(min_size=1, max_size=4_096),
        st.integers(0, 0xFFFF),
        st.binary(max_size=8),
        st.data(),
    )
    def test_u16_frame(self, payload, sync, tail, data):
        frame = pack_u16_frame(payload, sync)
        assert frame[:4] == b"\xaa\xaa" + sync.to_bytes(2, "big")
        body = frame[4:]  # what the parser reads after the sync word
        assert int.from_bytes(body[:2], "big") == len(payload)
        assert len(body) == len(payload) + 4
        assert unpack_u16_frame(body + tail) == payload
        assert unpack_u16_frame(body[: data.draw(st.integers(0, len(body) - 1))]) is None
        assert unpack_u16_frame(_flip_crc_bit(body, data.draw(st.integers(0, 15)))) is None
        empty = b"\x00\x00" + crc16_ccitt(b"").to_bytes(2, "big")
        assert unpack_u16_frame(empty + tail) is None


def _flip_crc_bit(frame: bytes, bit: int) -> bytes:
    """``frame`` with one bit of its trailing CRC-16 flipped."""
    out = bytearray(frame)
    out[-2 + bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(out)
