"""Scalar reference for the SWebp decoder.

``swebp_decode_ref`` is the seed's sequential token walk: one Huffman
codeword at a time through a :class:`~repro.imaging.huffman.BitReader`,
a dense ``(n_blocks, 64)`` coefficient array per plane, one inverse DCT
over every block, then full-resolution chroma upsampling and colour
conversion.  Tests pin :meth:`~repro.imaging.codec.SWebpCodec.decode`
to it bit for bit, errors included (both raise
:class:`~repro.imaging.codec.CodecError` on the same malformed streams).
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft

from repro.imaging.codec import (
    _CHROMA_QUANT,
    _EOB,
    _HEADER_LEN,
    _LUMA_QUANT,
    _ZIGZAG,
    _ZRL,
    CodecError,
    SWebpHeader,
    _read_plane_header,
    _scaled_table,
)
from repro.imaging.color import upsample_420, ycbcr_to_rgb
from repro.imaging.huffman import BitReader


def swebp_decode_ref(data: bytes) -> np.ndarray:
    """Decompress an SWebp stream back to a uint8 image."""
    header = SWebpHeader.parse(data)
    h, w = header.height, header.width
    qy = _scaled_table(_LUMA_QUANT, header.quality)
    qc = _scaled_table(_CHROMA_QUANT, header.quality)
    offset = _HEADER_LEN

    if header.color:
        ch, cw = -(-h // 2), -(-w // 2)
        y, offset = _decode_plane_ref(data, offset, h, w, qy)
        cb, offset = _decode_plane_ref(data, offset, ch, cw, qc)
        cr, offset = _decode_plane_ref(data, offset, ch, cw, qc)
        ycc = np.stack([y, upsample_420(cb, h, w), upsample_420(cr, h, w)], axis=-1)
        return ycbcr_to_rgb(ycc)
    y, offset = _decode_plane_ref(data, offset, h, w, qy)
    return np.clip(np.round(y), 0, 255).astype(np.uint8)


def _decode_plane_ref(
    data: bytes, offset: int, h: int, w: int, qtable: np.ndarray
) -> tuple[np.ndarray, int]:
    dc_table, ac_table, payload, offset = _read_plane_header(data, offset)
    reader = BitReader(payload)

    dc_sym, dc_len = dc_table.peek_tables
    ac_sym, ac_len = ac_table.peek_tables
    rows, cols = -(-h // 8), -(-w // 8)
    n_blocks = rows * cols
    zz = np.zeros((n_blocks, 64), dtype=np.int64)
    prev_dc = 0
    try:
        for b in range(n_blocks):
            sym = int(dc_sym[reader.peek16()])
            if not 0 <= sym <= 15:
                raise CodecError("invalid DC code")
            reader.skip(int(dc_len[reader.peek16()]))
            diff = _read_signed(reader, sym)
            prev_dc += diff
            zz[b, 0] = prev_dc
            pos = 1
            while pos < 64:
                peek = reader.peek16()
                sym = int(ac_sym[peek])
                if sym < 0:
                    raise CodecError("invalid AC code")
                reader.skip(int(ac_len[peek]))
                if sym == _EOB:
                    break
                if sym == _ZRL:
                    pos += 16
                    if pos > 64:
                        raise CodecError("AC run overflow")
                    continue
                run, size = sym >> 4, sym & 0xF
                pos += run
                if pos >= 64:
                    raise CodecError("AC run overflow")
                zz[b, pos] = _read_signed(reader, size)
                pos += 1
    except (EOFError, ValueError) as exc:
        raise CodecError("bit stream exhausted mid-block") from exc

    quant = np.zeros((n_blocks, 64), dtype=np.float64)
    quant[:, _ZIGZAG] = zz
    blocks = quant.reshape(-1, 8, 8) * qtable
    pixels = sfft.idctn(blocks, axes=(1, 2), norm="ortho")
    plane = _unblockify(pixels, rows, cols, h, w) + 128.0
    return plane, offset


def _read_signed(reader: BitReader, size: int) -> int:
    if size == 0:
        return 0
    bits = reader.read(size)
    if bits < (1 << (size - 1)):
        return bits - (1 << size) + 1
    return bits


def _unblockify(blocks: np.ndarray, rows: int, cols: int, h: int, w: int) -> np.ndarray:
    plane = (
        blocks.reshape(rows, cols, 8, 8).transpose(0, 2, 1, 3).reshape(rows * 8, cols * 8)
    )
    return plane[:h, :w]
