"""Whole-image references for the SWebp encoder and decoder.

``swebp_encode_ref`` is the encoder as it was before it worked in row
bands: one YCbCr conversion and 4:2:0 subsampling of the whole image,
then one transform-and-token pass per plane.  Tests pin
:meth:`~repro.imaging.codec.SWebpCodec.encode` to it byte for byte.

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
    _BITLEN,
    _CHROMA_QUANT,
    _EOB,
    _HEADER_LEN,
    _LUMA_QUANT,
    _MAGIC,
    _ZIGZAG,
    _ZRL,
    CodecError,
    SWebpCodec,
    SWebpHeader,
    _blockify,
    _read_plane_header,
    _scaled_table,
)
from repro.imaging.color import (
    downsample_420,
    upsample_420,
    ycbcr_planes,
    ycbcr_to_rgb,
)
from repro.imaging.huffman import (
    BitReader,
    CanonicalHuffman,
    build_code_lengths,
    pack_fields,
)


def swebp_encode_ref(codec: SWebpCodec, image: np.ndarray) -> bytes:
    """Compress an (H, W, 3) colour or (H, W) grayscale uint8 image."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        raise ValueError("expected a uint8 image")
    color = image.ndim == 3
    if color and image.shape[2] != 3:
        raise ValueError(f"expected 3 channels, got {image.shape}")
    if image.ndim not in (2, 3):
        raise ValueError(f"expected 2-D or 3-D image, got shape {image.shape}")
    h, w = image.shape[:2]
    if not 1 <= h <= 65_535 or not 1 <= w <= 65_535:
        raise ValueError("image dimensions must fit in 16 bits")

    header = bytearray(_MAGIC)
    header.append(1)  # version
    header.append(1 if color else 0)
    header += w.to_bytes(2, "big") + h.to_bytes(2, "big")
    header.append(codec.quality)

    if color:
        yp, cb, cr = ycbcr_planes(image)
        planes = [
            (yp, codec._qy),
            (downsample_420(cb), codec._qc),
            (downsample_420(cr), codec._qc),
        ]
    else:
        planes = [(image.astype(np.float64), codec._qy)]

    body = bytearray()
    for plane, qtable in planes:
        body += _encode_plane_ref(plane, qtable)
    return bytes(header) + bytes(body)


def _encode_plane_ref(plane: np.ndarray, qtable: np.ndarray) -> bytes:
    blocks = _blockify(plane - 128.0)
    n_blocks = blocks.shape[0]
    b64 = blocks.reshape(n_blocks, 64)

    # Rendered pages are mostly flat (constant-colour) blocks, and a
    # flat block's transform depends only on its value — so the DCT,
    # quantisation, and zig-zag run on one representative per
    # distinct flat value plus every non-flat block.  The per-block
    # transform is independent of its batch, so each block's
    # coefficients are bit-identical to the all-blocks path.
    flat = (b64 == b64[:, :1]).all(axis=1)
    f_ids = np.nonzero(flat)[0]
    nf_ids = np.nonzero(~flat)[0]
    uvals, f_inv = np.unique(b64[f_ids, 0], return_inverse=True)
    nu = uvals.size
    reps = np.concatenate(
        [np.broadcast_to(uvals[:, None], (nu, 64)), b64[nf_ids]]
    )
    coeffs = sfft.dctn(reps.reshape(-1, 8, 8), axes=(1, 2), norm="ortho")
    quant = np.round(coeffs / qtable).astype(np.int64)
    zz_reps = quant.reshape(-1, 64)[:, _ZIGZAG]

    dc = np.empty(n_blocks, dtype=np.int64)
    dc[f_ids] = zz_reps[:nu, 0][f_inv]
    dc[nf_ids] = zz_reps[nu:, 0]

    if zz_reps[:nu, 1:].any():
        # A flat block quantised to nonzero AC (possible only at
        # extreme quality settings): fall back to the dense layout
        # so its AC tokens are emitted like any other block's.
        zz = np.empty((n_blocks, 64), dtype=np.int64)
        zz[f_ids] = zz_reps[:nu][f_inv]
        zz[nf_ids] = zz_reps[nu:]
        ac = zz[:, 1:]
        nz_b, nz_c = np.nonzero(ac)
        vals = ac[nz_b, nz_c]
    else:
        # Flat blocks contribute no AC tokens: scan only the rest.
        ac = zz_reps[nu:, 1:]
        nzl, nz_c = np.nonzero(ac)
        vals = ac[nzl, nz_c]
        nz_b = nf_ids[nzl]

    # --- DC tokens (differential) ---
    dc_diff = np.concatenate([[dc[0]], np.diff(dc)])
    dc_size = _BITLEN[np.minimum(np.abs(dc_diff), (1 << 15) - 1)]
    dc_extra = np.where(dc_diff >= 0, dc_diff, dc_diff + (1 << dc_size) - 1)
    dc_keys = np.arange(n_blocks, dtype=np.int64) * 66 * 100

    # --- AC tokens ---
    first_in_block = np.concatenate([[True], np.diff(nz_b) != 0])
    prev_c = np.concatenate([[0], nz_c[:-1]])
    runs = np.where(first_in_block, nz_c, nz_c - prev_c - 1)
    zrl_count = runs // 16
    run_rem = runs % 16
    sizes = _BITLEN[np.minimum(np.abs(vals), (1 << 15) - 1)]
    if np.any(np.abs(vals) >= (1 << 15)):
        raise CodecError("coefficient magnitude exceeds 15-bit limit")
    ac_syms = (run_rem.astype(np.int64) << 4) | sizes
    ac_extra = np.where(vals >= 0, vals, vals + (1 << sizes) - 1)
    ac_keys = (nz_b * 66 + 1 + nz_c) * 100

    # ZRL emissions: zrl_count[i] tokens just before symbol i.
    zrl_parent = np.repeat(np.arange(nz_b.size), zrl_count)
    if zrl_parent.size:
        # j-th ZRL of its parent gets a key just below the parent's.
        cum = np.concatenate([[0], np.cumsum(zrl_count)[:-1]])
        j = np.arange(zrl_parent.size) - cum[zrl_parent]
        k = zrl_count[zrl_parent]
        zrl_keys = ac_keys[zrl_parent] - (k - j)
    else:
        zrl_keys = np.zeros(0, dtype=np.int64)

    # EOB per block whose last nonzero is before position 62 (or empty).
    last_nz = np.full(n_blocks, -1, dtype=np.int64)
    last_nz[nz_b] = nz_c  # nonzeros are in order; the last write wins
    eob_blocks = np.nonzero(last_nz < 62)[0]
    eob_keys = (eob_blocks * 66 + 65) * 100

    # --- Huffman tables ---
    dc_freq = np.bincount(dc_size, minlength=256)
    ac_all_syms = np.concatenate(
        [
            ac_syms,
            np.full(zrl_keys.size, _ZRL, dtype=np.int64),
            np.full(eob_keys.size, _EOB, dtype=np.int64),
        ]
    )
    ac_freq = np.bincount(ac_all_syms, minlength=256)
    dc_table = CanonicalHuffman(build_code_lengths(dc_freq))
    ac_table = CanonicalHuffman(build_code_lengths(ac_freq))

    # --- Emissions: (key, code value, code length, extra, extra length) ---
    keys = np.concatenate([dc_keys, ac_keys, zrl_keys, eob_keys])
    code_vals = np.concatenate(
        [
            dc_table.codes[dc_size],
            ac_table.codes[ac_syms],
            np.full(zrl_keys.size, int(ac_table.codes[_ZRL]), dtype=np.int64),
            np.full(eob_keys.size, int(ac_table.codes[_EOB]), dtype=np.int64),
        ]
    ).astype(np.int64)
    code_lens = np.concatenate(
        [
            dc_table.lengths[dc_size],
            ac_table.lengths[ac_syms],
            np.full(zrl_keys.size, int(ac_table.lengths[_ZRL]), dtype=np.int64),
            np.full(eob_keys.size, int(ac_table.lengths[_EOB]), dtype=np.int64),
        ]
    ).astype(np.int64)
    extras = np.concatenate(
        [dc_extra, ac_extra, np.zeros(zrl_keys.size + eob_keys.size, dtype=np.int64)]
    )
    extra_lens = np.concatenate(
        [dc_size, sizes, np.zeros(zrl_keys.size + eob_keys.size, dtype=np.int64)]
    )

    order = np.argsort(keys, kind="stable")
    inter_vals = np.stack([code_vals[order], extras[order]], axis=1).reshape(-1)
    inter_lens = np.stack([code_lens[order], extra_lens[order]], axis=1).reshape(-1)
    payload = pack_fields(inter_vals, inter_lens)
    total_bits = int(np.sum(inter_lens))

    out = bytearray()
    out += dc_table.serialize()
    out += ac_table.serialize()
    out += total_bits.to_bytes(4, "big")
    out += payload
    return bytes(out)


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
