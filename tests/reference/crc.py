"""Table-driven CRC-32 and CRC-16 references.

``crc32_ieee_ref`` and ``crc16_ccitt_ref`` are the byte-at-a-time table
implementations that :mod:`repro.fec.crc` used before it called
:func:`zlib.crc32` and :func:`binascii.crc_hqx`, copied verbatim.  They
spell out the bit conventions (reflected CRC-32 with pre- and
post-inversion; MSB-first CRC-16 with no final XOR), and
``tests/test_fec_crc.py`` compares each with the product on random data
and chained ``initial`` values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["crc32_ieee_ref", "crc16_ccitt_ref"]


def _reflected_table(poly: int, width: int) -> np.ndarray:
    """Build a 256-entry table for a reflected (LSB-first) CRC."""
    mask = (1 << width) - 1
    table = np.zeros(256, dtype=np.uint64)
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ poly
            else:
                crc >>= 1
        table[byte] = crc & mask
    return table


def _forward_table(poly: int, width: int) -> np.ndarray:
    """Build a 256-entry table for a non-reflected (MSB-first) CRC."""
    mask = (1 << width) - 1
    top = 1 << (width - 1)
    table = np.zeros(256, dtype=np.uint64)
    for byte in range(256):
        crc = byte << (width - 8)
        for _ in range(8):
            if crc & top:
                crc = ((crc << 1) ^ poly) & mask
            else:
                crc = (crc << 1) & mask
        table[byte] = crc
    return table


_CRC32_TABLE = _reflected_table(0xEDB88320, 32)
_CRC16_TABLE = _forward_table(0x1021, 16)


def crc32_ieee_ref(data: bytes | bytearray, initial: int = 0) -> int:
    """CRC-32/IEEE-802.3 (the polynomial used by zlib and by Quiet).

    ``initial`` allows incremental computation over chunked input:
    ``crc32_ieee_ref(b, crc32_ieee_ref(a)) == crc32_ieee_ref(a + b)``.
    """
    crc = (initial ^ 0xFFFFFFFF) & 0xFFFFFFFF
    for byte in bytes(data):
        crc = int(_CRC32_TABLE[(crc ^ byte) & 0xFF]) ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc16_ccitt_ref(data: bytes | bytearray, initial: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE, MSB-first with init 0xFFFF."""
    crc = initial & 0xFFFF
    for byte in bytes(data):
        crc = (int(_CRC16_TABLE[((crc >> 8) ^ byte) & 0xFF]) ^ (crc << 8)) & 0xFFFF
    return crc
