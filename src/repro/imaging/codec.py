"""SWebp: a from-scratch block-DCT lossy image codec.

Stands in for WebP in the reproduction (see DESIGN.md): same rate-quality
mechanism (transform coding with quality-scaled quantisation and entropy
coding) and the same 0-95 quality scale the paper sweeps in Figure 4(b).

Pipeline: RGB -> YCbCr -> 4:2:0 chroma subsampling -> 8x8 DCT ->
quality-scaled quantisation -> zig-zag + run-length tokens -> per-plane
canonical Huffman tables.  Both directions are vectorised: encoding
transforms the image in bands of whole macroblock rows (so its float
working set scales with a band, not the image) and lays out each
plane's tokens with cumulative offsets, and :meth:`SWebpCodec.decode`
is a table-driven batch decoder that transcodes the bit stream through
per-bit-position gather tables and reconstructs every block in single
numpy/scipy calls.  The tests pin the decoder bit for bit to the seed's
sequential token walk, ``tests/reference/swebp.py::swebp_decode_ref``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from repro.imaging.color import downsample_420, ycbcr_planes
from repro.imaging.huffman import CanonicalHuffman, build_code_lengths, pack_fields

__all__ = ["SWebpCodec", "SWebpHeader", "CodecError"]

_MAGIC = b"SWBP"
_HEADER_LEN = 11

# JPEG Annex K reference quantisation tables.
_LUMA_QUANT = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)
_CHROMA_QUANT = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.float64,
)


def _zigzag_order() -> np.ndarray:
    """Indices that map a flattened 8x8 block to zig-zag order."""
    coords = [(i, j) for i in range(8) for j in range(8)]
    coords.sort(key=lambda ij: (ij[0] + ij[1], ij[1] if (ij[0] + ij[1]) % 2 else ij[0]))
    return np.array([i * 8 + j for i, j in coords], dtype=np.int64)


_ZIGZAG = _zigzag_order()
_UNZIGZAG = np.argsort(_ZIGZAG)
_BITLEN = np.zeros(1 << 15, dtype=np.int64)
for _v in range(1, 1 << 15):
    _BITLEN[_v] = _v.bit_length()

_ZRL = 0xF0  # sixteen zeros
_EOB = 0x00  # end of block


class CodecError(Exception):
    """Raised on malformed or truncated SWebp streams."""


@dataclass(frozen=True)
class SWebpHeader:
    """The fixed 11-byte SWebp stream header, parsed once per decode."""

    color: bool
    width: int
    height: int
    quality: int

    @classmethod
    def parse(cls, data: bytes) -> "SWebpHeader":
        if data[:4] != _MAGIC:
            raise CodecError("bad magic")
        if len(data) < _HEADER_LEN:
            raise CodecError("truncated header")
        if data[4] != 1:
            raise CodecError(f"unsupported version {data[4]}")
        return cls(
            color=bool(data[5]),
            width=int.from_bytes(data[6:8], "big"),
            height=int.from_bytes(data[8:10], "big"),
            quality=data[10],
        )


def _read_plane_header(
    data: bytes, offset: int
) -> tuple[CanonicalHuffman, CanonicalHuffman, bytes, int]:
    """Huffman tables + entropy payload of one plane; returns new offset."""
    try:
        dc_table, offset = CanonicalHuffman.deserialize(data, offset)
        ac_table, offset = CanonicalHuffman.deserialize(data, offset)
        total_bits = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
    except (IndexError, ValueError) as exc:
        raise CodecError("truncated stream") from exc
    n_bytes = -(-total_bits // 8)
    payload = data[offset : offset + n_bytes]
    return dc_table, ac_table, payload, offset + n_bytes


def _scaled_table(base: np.ndarray, quality: int) -> np.ndarray:
    """libjpeg-style quality scaling of a reference quantisation table."""
    q = min(max(int(quality), 1), 100)
    scale = 5000.0 / q if q < 50 else 200.0 - 2.0 * q
    table = np.floor((base * scale + 50.0) / 100.0)
    return np.clip(table, 1, 255)


def _blockify(plane: np.ndarray) -> np.ndarray:
    """Pad to 8x8 multiples (edge mode); the (n, 8, 8) blocks in raster order."""
    h, w = plane.shape
    ph, pw = (-h) % 8, (-w) % 8
    if ph or pw:
        plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    hh, ww = plane.shape
    rows, cols = hh // 8, ww // 8
    return plane.reshape(rows, 8, cols, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)


#: Pixels per encode band.  :meth:`SWebpCodec.encode` works through the
#: image in bands of whole 16-row macroblock rows holding about this
#: many pixels (240 rows at 1080 px, 720 at 360 px), so chroma bands
#: stay on 8-row block boundaries.
_BAND_PIXELS = 1 << 18


def _band_rows(width: int) -> int:
    """Image rows per encode band at ``width`` (a multiple of 16)."""
    return max(1, _BAND_PIXELS // (16 * width)) * 16


def _band_planes(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """One band's float64 planes in stream order: Y, Cb, Cr (4:2:0), or
    the grayscale plane."""
    if rows.ndim == 2:
        return (rows.astype(np.float64),)
    yp, cb, cr = ycbcr_planes(rows)
    return yp, downsample_420(cb), downsample_420(cr)


def _band_coefficients(
    plane: np.ndarray, qtable: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quantised coefficients of one band of a plane.

    Returns ``(dc, nz_b, nz_c, vals)``: every block's zig-zag DC, and the
    band's nonzero AC coefficients as block index (within the band),
    zig-zag position (1..63) and value, in raster then zig-zag order.
    """
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
    return dc, nz_b, nz_c, vals


def _merge_bands(
    bands: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One plane's band coefficients as one raster-order set: each
    band's block indices are offset by the band's first block."""
    dcs, nz_bs, nz_cs, vals = zip(*bands)
    starts = np.cumsum([0] + [dc.size for dc in dcs[:-1]])
    return (
        np.concatenate(dcs),
        np.concatenate([b + s for b, s in zip(nz_bs, starts)]),
        np.concatenate(nz_cs),
        np.concatenate(vals),
    )


def _encode_tokens(
    dc: np.ndarray, nz_b: np.ndarray, nz_c: np.ndarray, vals: np.ndarray
) -> bytes:
    """Entropy-code one plane from its coefficients: DC differences,
    run/ZRL/EOB tokens, two canonical Huffman tables from the whole
    plane's frequencies, then the packed bit stream."""
    n_blocks = dc.size

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


class SWebpCodec:
    """Encoder/decoder at a fixed quality setting.

    >>> import numpy as np
    >>> image = np.full((16, 24, 3), 128, dtype=np.uint8)  # or (H, W)
    >>> codec = SWebpCodec(quality=10)
    >>> data = codec.encode(image)
    >>> restored = codec.decode(data)
    >>> restored.shape
    (16, 24, 3)
    """

    def __init__(self, quality: int = 10) -> None:
        if not 0 <= quality <= 95:
            raise ValueError("quality must be in [0, 95] (WebP scale)")
        self.quality = quality
        self._qy = _scaled_table(_LUMA_QUANT, quality)
        self._qc = _scaled_table(_CHROMA_QUANT, quality)

    # -- encoding ------------------------------------------------------------

    def encode(self, image: np.ndarray) -> bytes:
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
        header.append(self.quality)

        # Convert, subsample and transform one band of whole macroblock
        # rows at a time, so the float temporaries scale with a band, not
        # the image; the token stage then runs once per plane over the
        # merged coefficients.  A block's coefficients do not depend on
        # the batch it is transformed in, and raster block order is band
        # order, so the bytes are those of one whole-image pass
        # (``tests/reference/swebp.py::swebp_encode_ref``).
        qtables = (self._qy, self._qc, self._qc) if color else (self._qy,)
        bands: list[list[tuple]] = [[] for _ in qtables]
        step = _band_rows(w)
        for r0 in range(0, h, step):
            planes = _band_planes(image[r0 : r0 + step])
            for plane_bands, plane, qtable in zip(bands, planes, qtables):
                plane_bands.append(_band_coefficients(plane, qtable))
            del planes, plane  # free this band before converting the next

        body = bytearray()
        for plane_bands in bands:
            body += _encode_tokens(*_merge_bands(plane_bands))
        return bytes(header) + bytes(body)

    def encoded_size(self, image: np.ndarray) -> int:
        """Size in bytes of :meth:`encode`'s output for this image."""
        return len(self.encode(image))

    # -- decoding ------------------------------------------------------------

    def decode(self, data: bytes) -> np.ndarray:
        """Decompress an SWebp stream back to a uint8 image.

        Table-driven batch decoder: the per-plane bit stream is transcoded
        through gather tables precomputed for every bit position (a tight
        pointer-chase walk records token positions; values, signs, and the
        DC prefix sum are then extracted in whole-array passes), duplicate
        coefficient blocks are collapsed before a single inverse-DCT call,
        and colour conversion runs per unique 16x16 macroblock.  Output is
        bit-for-bit identical to the sequential token walk
        (``tests/reference/swebp.py::swebp_decode_ref``), errors included.
        """
        header = SWebpHeader.parse(data)
        h, w = header.height, header.width
        qy = _scaled_table(_LUMA_QUANT, header.quality)
        qc = _scaled_table(_CHROMA_QUANT, header.quality)
        offset = _HEADER_LEN

        if not header.color:
            upix, inv, offset = self._decode_plane_blocks(data, offset, h, w, qy)
            u8 = np.clip(np.round(upix), 0, 255).astype(np.uint8)
            rows, cols = inv.shape
            plane = u8[inv.ravel()].reshape(rows, cols, 8, 8)
            plane = plane.transpose(0, 2, 1, 3).reshape(rows * 8, cols * 8)
            return np.ascontiguousarray(plane[:h, :w])

        ch, cw = -(-h // 2), -(-w // 2)
        uy, invy, offset = self._decode_plane_blocks(data, offset, h, w, qy)
        ucb, invcb, offset = self._decode_plane_blocks(data, offset, ch, cw, qc)
        ucr, invcr, offset = self._decode_plane_blocks(data, offset, ch, cw, qc)
        return _assemble_color(uy, invy, ucb, invcb, ucr, invcr, h, w)

    def _decode_plane_blocks(
        self, data: bytes, offset: int, h: int, w: int, qtable: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Decode one plane into unique pixel blocks plus a block-id grid.

        Returns ``(upix, inv, offset)`` where ``upix`` is ``(U, 8, 8)``
        float64 pixel blocks (already +128) and ``inv`` is the
        ``(rows, cols)`` index of each grid position into ``upix``.
        """
        dc_table, ac_table, payload, offset = _read_plane_header(data, offset)
        rows, cols = -(-h // 8), -(-w // 8)
        n_blocks = rows * cols
        dc_vals, wb, wpos, ac_vals = _transcode_plane(
            payload, dc_table, ac_table, n_blocks
        )
        upix, inv = _reconstruct_blocks(dc_vals, wb, wpos, ac_vals, n_blocks, qtable)
        return upix, inv.reshape(rows, cols), offset


# -- batch decode internals --------------------------------------------------
#
# The entropy stream is a strict chain: a block's first bit is unknown
# until the previous block is fully decoded, so codeword *selection* can
# never fan out across blocks.  What can be vectorised is everything
# around the chain: for every bit position of the payload we precompute
# "if a DC/AC codeword started here, what symbol is it and how many bits
# does it advance" (one gather through the 16-bit peek tables), leaving a
# minimal integer pointer-chase to pick the token positions.  Values are
# then extracted, sign-extended, and differenced in whole-array passes,
# and only *unique* coefficient blocks reach the inverse DCT.

# Sentinels in the per-bit AC dispatch table (`dpos`): entries 1..16 are
# "coefficient lands run+1 positions on", _DPOS_ZRL is a ZRL token and
# _DPOS_EOB an end-of-block; -1 marks an invalid codeword.
_DPOS_ZRL = 1016
_DPOS_EOB = 1 << 20


def _transcode_plane(
    payload: bytes,
    dc_table: CanonicalHuffman,
    ac_table: CanonicalHuffman,
    n_blocks: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transcode one plane's bit stream into sparse coefficient arrays.

    Returns ``(dc_vals, wb, wpos, ac_vals)``: the per-block DC values
    (prefix sum already applied) and the AC writes as parallel arrays of
    block index, zig-zag position (1..63), and value.
    """
    n_bytes = len(payload)
    limit = n_bytes * 8
    b = np.zeros(n_bytes + 6, dtype=np.int64)
    b[:n_bytes] = np.frombuffer(payload, dtype=np.uint8)
    w40 = (b[:-4] << 32) | (b[1:-3] << 24) | (b[2:-2] << 16) | (b[3:-1] << 8) | b[4:]
    idx = np.arange(limit, dtype=np.int64)
    peek32 = (w40[idx >> 3] >> (8 - (idx & 7))) & 0xFFFFFFFF
    peek16 = peek32 >> 16
    del w40, idx

    dsym_t, dlen_t = dc_table.peek_tables
    dsym = dsym_t[peek16].astype(np.int64)
    d_adv = dlen_t[peek16] + dsym  # DC advance = code length + extra bits
    d_adv[(dsym < 0) | (dsym > 15)] = -1

    asym_t, alen_t = ac_table.peek_tables
    asym = asym_t[peek16].astype(np.int64)
    a_adv = alen_t[peek16] + (asym & 0xF)
    dpos = (asym >> 4) + 1
    dpos[asym == _ZRL] = _DPOS_ZRL
    dpos[asym == _EOB] = _DPOS_EOB
    dpos[asym < 0] = -1

    # Plain Python lists index ~3x faster than numpy scalars in the chase.
    d_adv_l = d_adv.tolist()
    a_adv_l = a_adv.tolist()
    a_dpos_l = dpos.tolist()
    del d_adv, a_adv, dpos

    dcp: list[int] = []  # bit position of each DC token
    wb: list[int] = []  # block index of each AC coefficient
    wpos: list[int] = []  # zig-zag position of each AC coefficient
    wtp: list[int] = []  # bit position of each AC coefficient token
    dcp_a, wb_a, wpos_a, wtp_a = dcp.append, wb.append, wpos.append, wtp.append
    pp = 0
    # Token advances are strictly positive, so `pp` is monotonic: running
    # off the end of the payload hits the lists' ends (IndexError) or the
    # final limit check below — the same streams the scalar walk rejects.
    try:
        for bi in range(n_blocks):
            a = d_adv_l[pp]
            if a < 0:
                raise CodecError("invalid DC code")
            dcp_a(pp)
            pp += a
            pos = 1
            while pos < 64:
                d = a_dpos_l[pp]
                if d <= 16:
                    if d < 0:
                        raise CodecError("invalid AC code")
                    pos += d
                    if pos > 64:
                        raise CodecError("AC run overflow")
                    wb_a(bi)
                    wpos_a(pos - 1)
                    wtp_a(pp)
                    pp += a_adv_l[pp]
                elif d == _DPOS_ZRL:
                    pos += 16
                    pp += a_adv_l[pp]
                    if pos > 64:
                        raise CodecError("AC run overflow")
                else:  # EOB
                    pp += a_adv_l[pp]
                    break
    except IndexError as exc:
        raise CodecError("bit stream exhausted mid-block") from exc
    if pp > limit:
        raise CodecError("bit stream exhausted mid-block")

    # Value extraction only at the recorded token positions.
    dcp_arr = np.asarray(dcp, dtype=np.int64)
    pk32 = peek32[dcp_arr]
    size = dsym_t[peek16[dcp_arr]].astype(np.int64)
    ln = dlen_t[peek16[dcp_arr]].astype(np.int64)
    extra = (pk32 >> (32 - ln - size)) & ((1 << size) - 1)
    half = (1 << size) >> 1
    dc_vals = np.cumsum(np.where(extra < half, extra - (1 << size) + 1, extra))

    if wtp:
        wtp_arr = np.asarray(wtp, dtype=np.int64)
        pk32 = peek32[wtp_arr]
        sym = asym_t[peek16[wtp_arr]].astype(np.int64)
        sz = sym & 0xF
        ln = alen_t[peek16[wtp_arr]].astype(np.int64)
        extra = (pk32 >> (32 - ln - sz)) & ((1 << sz) - 1)
        half = (1 << sz) >> 1
        ac_vals = np.where(extra < half, extra - (1 << sz) + 1, extra)
        wb_arr = np.asarray(wb, dtype=np.int64)
        wpos_arr = np.asarray(wpos, dtype=np.int64)
    else:
        ac_vals = np.zeros(0, dtype=np.int64)
        wb_arr = np.zeros(0, dtype=np.int64)
        wpos_arr = np.zeros(0, dtype=np.int64)
    return dc_vals, wb_arr, wpos_arr, ac_vals


def _reconstruct_blocks(
    dc_vals: np.ndarray,
    wb: np.ndarray,
    wpos: np.ndarray,
    ac_vals: np.ndarray,
    n_blocks: int,
    qtable: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Dequantise + inverse-DCT only the distinct coefficient blocks.

    Rendered pages are dominated by repeated blocks (flat background,
    tiled UI chrome), so the IDCT runs on the unique set and every grid
    position maps into it.  Returns ``(upix, inv)``: unique ``(U, 8, 8)``
    pixel blocks (already +128) and the per-block index into them.
    """
    if wb.size:
        n_writes = np.bincount(wb, minlength=n_blocks)
    else:
        n_writes = np.zeros(n_blocks, dtype=np.int64)
    flat = n_writes == 0
    f_ids = np.nonzero(flat)[0]
    nf_ids = np.nonzero(~flat)[0]

    inv = np.empty(n_blocks, dtype=np.int64)
    # DC-only blocks are identical iff their DC values are — no need to
    # materialise or sort their full 64-coefficient rows.
    uf_dc, uf_inv = np.unique(dc_vals[f_ids], return_inverse=True)
    inv[f_ids] = uf_inv
    n_flat_u = uf_dc.size

    if nf_ids.size:
        remap = np.empty(n_blocks, dtype=np.int64)
        remap[nf_ids] = np.arange(nf_ids.size)
        zz_nf = np.zeros((nf_ids.size, 64), dtype=np.int64)
        zz_nf[:, 0] = dc_vals[nf_ids]
        zz_nf[remap[wb], wpos] = ac_vals
        key = np.ascontiguousarray(zz_nf).view("V512").ravel()
        _, uidx, unf_inv = np.unique(key, return_index=True, return_inverse=True)
        inv[nf_ids] = n_flat_u + unf_inv
        zz_u = np.zeros((n_flat_u + uidx.size, 64), dtype=np.int64)
        zz_u[:n_flat_u, 0] = uf_dc
        zz_u[n_flat_u:] = zz_nf[uidx]
    else:
        zz_u = np.zeros((n_flat_u, 64), dtype=np.int64)
        zz_u[:, 0] = uf_dc

    quant = np.zeros((zz_u.shape[0], 64), dtype=np.float64)
    quant[:, _ZIGZAG] = zz_u
    blocks = quant.reshape(-1, 8, 8) * qtable
    upix = sfft.idctn(blocks, axes=(1, 2), norm="ortho")
    upix += 128.0
    return upix, inv


def _assemble_color(
    uy: np.ndarray,
    invy: np.ndarray,
    ucb: np.ndarray,
    invcb: np.ndarray,
    ucr: np.ndarray,
    invcr: np.ndarray,
    h: int,
    w: int,
) -> np.ndarray:
    """YCbCr -> RGB on unique 16x16 macroblocks, then one final gather.

    A macroblock's appearance is fully determined by its four luma block
    ids plus its chroma block ids, so colour conversion (the decoder's
    dominant full-resolution cost) collapses to the distinct id-tuples.
    The arithmetic matches :func:`repro.imaging.color.ycbcr_to_rgb` and
    nearest-neighbour 4:2:0 upsampling term for term, which keeps the
    result bit-identical to the full-resolution conversion of
    ``tests/reference/swebp.py::swebp_decode_ref``.
    """
    crows, ccols = invcb.shape
    # Pad the luma grid to the chroma grid's 2x coverage; padded slots
    # reference an arbitrary valid block and are cropped away below.
    ly = np.zeros((2 * crows, 2 * ccols), dtype=np.int64)
    ly[: invy.shape[0], : invy.shape[1]] = invy

    mbkey = np.empty((crows * ccols, 6), dtype=np.int32)
    mbkey[:, 0] = ly[0::2, 0::2].ravel()
    mbkey[:, 1] = ly[0::2, 1::2].ravel()
    mbkey[:, 2] = ly[1::2, 0::2].ravel()
    mbkey[:, 3] = ly[1::2, 1::2].ravel()
    mbkey[:, 4] = invcb.ravel()
    mbkey[:, 5] = invcr.ravel()
    kview = np.ascontiguousarray(mbkey).view("V24").ravel()
    _, uidx, minv = np.unique(kview, return_index=True, return_inverse=True)
    ukeys = mbkey[uidx]
    n_mb = ukeys.shape[0]

    y16 = np.empty((n_mb, 16, 16), dtype=np.float64)
    y16[:, :8, :8] = uy[ukeys[:, 0]]
    y16[:, :8, 8:] = uy[ukeys[:, 1]]
    y16[:, 8:, :8] = uy[ukeys[:, 2]]
    y16[:, 8:, 8:] = uy[ukeys[:, 3]]
    cb8 = ucb[ukeys[:, 4]] - 128.0
    cr8 = ucr[ukeys[:, 5]] - 128.0

    def up16(q: np.ndarray) -> np.ndarray:
        # Nearest-neighbour 2x upsample of (n_mb, 8, 8) chroma blocks.
        return np.broadcast_to(
            q[:, :, None, :, None], (n_mb, 8, 2, 8, 2)
        ).reshape(n_mb, 16, 16)

    rgb = np.empty((n_mb, 16, 16, 3), dtype=np.uint8)
    r = y16 + up16(1.402 * cr8)
    np.rint(r, out=r)
    np.clip(r, 0, 255, out=r)
    rgb[..., 0] = r
    g = y16 - up16(0.344136 * cb8)
    g -= up16(0.714136 * cr8)
    np.rint(g, out=g)
    np.clip(g, 0, 255, out=g)
    rgb[..., 1] = g
    bb = y16 + up16(1.772 * cb8)
    np.rint(bb, out=bb)
    np.clip(bb, 0, 255, out=bb)
    rgb[..., 2] = bb

    out = rgb[minv].reshape(crows, ccols, 16, 16, 3)
    out = out.transpose(0, 2, 1, 3, 4).reshape(crows * 16, ccols * 16, 3)
    return np.ascontiguousarray(out[:h, :w])
