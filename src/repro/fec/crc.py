"""Cyclic redundancy checks.

SONIC frames carry a CRC-32 (the Quiet ``crc32`` checksum) that gates
frame acceptance after FEC decoding: a frame whose checksum fails is a
*lost frame* in the paper's terminology.  CRC-16-CCITT and CRC-8 are used
by the lighter-weight control paths (SMS protocol, RDS groups).

CRC-32 and CRC-16 come from the standard library's C implementations
(:func:`zlib.crc32`, :func:`binascii.crc_hqx`); the table-driven code
they replaced stays in ``tests/reference/crc.py``, which spells out the
bit conventions and against which the tests pin both.  CRC-8 has no
standard-library form and stays table-driven here.
"""

from __future__ import annotations

import binascii
import zlib

import numpy as np

__all__ = ["crc32_ieee", "crc16_ccitt", "crc8"]


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


_CRC8_TABLE = _forward_table(0x07, 8)


def crc32_ieee(data: bytes | bytearray, initial: int = 0) -> int:
    """CRC-32/IEEE-802.3 (the polynomial used by zlib and by Quiet).

    ``initial`` allows incremental computation over chunked input:
    ``crc32_ieee(b, crc32_ieee(a)) == crc32_ieee(a + b)``.
    """
    return zlib.crc32(data, initial)


def crc16_ccitt(data: bytes | bytearray, initial: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE, MSB-first with init 0xFFFF."""
    return binascii.crc_hqx(data, initial)


def crc8(data: bytes | bytearray, initial: int = 0) -> int:
    """CRC-8 with polynomial 0x07 (ATM HEC)."""
    crc = initial & 0xFF
    for byte in bytes(data):
        crc = int(_CRC8_TABLE[crc ^ byte]) & 0xFF
    return crc
