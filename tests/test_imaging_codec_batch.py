"""Batch SWebp decoder equivalence against the scalar reference.

The seed's sequential token walk lives in ``tests/reference/swebp.py`` as
``swebp_decode_ref``; these tests pin the table-driven batch ``decode``
to it bit-for-bit across the quality scale, odd image geometries,
degenerate token streams (all-EOB, maximum ZRL chains), and malformed
input — where both paths must raise :class:`CodecError`, never a bare
``IndexError`` or silent corruption.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.imaging.codec import CodecError, SWebpCodec, SWebpHeader
from repro.imaging.huffman import CanonicalHuffman, pack_fields
from tests.reference.swebp import swebp_decode_ref


def _test_image(shape, color, seed=0):
    """Gradient + noise: compressible but exercises DC diffs and AC runs."""
    rng = np.random.default_rng(seed)
    h, w = shape
    grad = np.linspace(0, 200, w)[None, :] + np.linspace(0, 40, h)[:, None]
    if color:
        img = grad[..., None] + rng.normal(0, 20, (h, w, 3))
    else:
        img = grad + rng.normal(0, 20, (h, w))
    return np.clip(img, 0, 255).astype(np.uint8)


class TestBatchMatchesReference:
    @pytest.mark.parametrize("quality", [0, 10, 37, 50, 80, 95])
    @pytest.mark.parametrize("color", [False, True])
    def test_quality_sweep(self, quality, color):
        codec = SWebpCodec(quality)
        encoded = codec.encode(_test_image((24, 40), color, seed=quality))
        assert np.array_equal(codec.decode(encoded), swebp_decode_ref(encoded))

    @pytest.mark.parametrize(
        "shape", [(1, 1), (7, 9), (8, 8), (9, 17), (16, 16), (37, 53), (64, 48)]
    )
    @pytest.mark.parametrize("color", [False, True])
    def test_odd_geometries(self, shape, color):
        codec = SWebpCodec(10)
        encoded = codec.encode(_test_image(shape, color, seed=sum(shape)))
        decoded = codec.decode(encoded)
        assert decoded.shape == ((*shape, 3) if color else shape)
        assert np.array_equal(decoded, swebp_decode_ref(encoded))

    @pytest.mark.parametrize("color", [False, True])
    def test_flat_image_all_eob(self, color):
        """Uniform 128 quantises to all-zero blocks: pure DC+EOB stream."""
        shape = (33, 47, 3) if color else (33, 47)
        image = np.full(shape, 128, dtype=np.uint8)
        codec = SWebpCodec(10)
        encoded = codec.encode(image)
        decoded = codec.decode(encoded)
        assert np.array_equal(decoded, swebp_decode_ref(encoded))
        assert np.array_equal(decoded, image)  # DC-only blocks are exact

    def test_rendered_page(self, page_image):
        for quality in (10, 80):
            codec = SWebpCodec(quality)
            encoded = codec.encode(page_image)
            assert np.array_equal(
                codec.decode(encoded), swebp_decode_ref(encoded)
            )

    def test_photo(self, photo_image):
        codec = SWebpCodec(50)
        encoded = codec.encode(photo_image)
        assert np.array_equal(codec.decode(encoded), swebp_decode_ref(encoded))

    @settings(max_examples=25, deadline=None)
    @given(
        h=st.integers(min_value=1, max_value=40),
        w=st.integers(min_value=1, max_value=40),
        quality=st.integers(min_value=0, max_value=95),
        color=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_images(self, h, w, quality, color, seed):
        codec = SWebpCodec(quality)
        rng = np.random.default_rng(seed)
        shape = (h, w, 3) if color else (h, w)
        image = rng.integers(0, 256, shape, dtype=np.uint8)
        encoded = codec.encode(image)
        assert np.array_equal(codec.decode(encoded), swebp_decode_ref(encoded))


# -- hand-built streams -------------------------------------------------------
#
# A one-block 8x8 grayscale stream assembled bit by bit, with tiny Huffman
# tables we control: DC symbol 0 (size-0 diff) is the single-bit code '0';
# the AC alphabet {EOB, (run=14,size=1), ZRL, (run=15,size=1)} gets the
# canonical 2-bit codes 00/01/10/11.

_COEF14 = (14 << 4) | 1  # run 14, 1-bit coefficient
_COEF15 = (15 << 4) | 1  # run 15, 1-bit coefficient


def _dc_table(symbols=(0,)):
    lengths = np.zeros(256, dtype=np.uint8)
    code_len = max(1, int(np.ceil(np.log2(len(symbols)))))
    for s in symbols:
        lengths[s] = code_len
    return CanonicalHuffman(lengths)


def _ac_table():
    lengths = np.zeros(256, dtype=np.uint8)
    for s in (0x00, _COEF14, 0xF0, _COEF15):
        lengths[s] = 2
    return CanonicalHuffman(lengths)


def _gray_stream(dc_table, ac_table, fields, w=8, h=8, quality=50):
    """Wrap hand-packed (value, n_bits) fields in a full SWebp stream."""
    vals = np.array([v for v, _ in fields], dtype=np.int64)
    lens = np.array([n for _, n in fields], dtype=np.int64)
    payload = pack_fields(vals, lens)
    header = (
        b"SWBP"
        + bytes([1, 0])
        + w.to_bytes(2, "big")
        + h.to_bytes(2, "big")
        + bytes([quality])
    )
    body = (
        dc_table.serialize()
        + ac_table.serialize()
        + int(lens.sum()).to_bytes(4, "big")
        + payload
    )
    return header + body


def _ac_code(table, sym):
    return (int(table.codes[sym]), int(table.lengths[sym]))


class TestHandBuiltStreams:
    def test_max_zrl_chain_decodes(self):
        """DC + ZRL*3 + coefficient landing exactly on position 63."""
        dc, ac = _dc_table(), _ac_table()
        zrl = _ac_code(ac, 0xF0)
        fields = [(0, 1), zrl, zrl, zrl, _ac_code(ac, _COEF14), (1, 1)]
        stream = _gray_stream(dc, ac, fields)
        codec = SWebpCodec(50)
        ref = swebp_decode_ref(stream)
        assert np.array_equal(codec.decode(stream), ref)
        assert ref.shape == (8, 8)

    def test_zrl_past_64_raises(self):
        """DC + ZRL*4 runs to position 65: CodecError from both paths."""
        dc, ac = _dc_table(), _ac_table()
        zrl = _ac_code(ac, 0xF0)
        stream = _gray_stream(dc, ac, [(0, 1), zrl, zrl, zrl, zrl])
        codec = SWebpCodec(50)
        with pytest.raises(CodecError):
            swebp_decode_ref(stream)
        with pytest.raises(CodecError):
            codec.decode(stream)

    def test_coefficient_run_past_63_raises(self):
        """ZRL*3 then run=15 lands the coefficient past the block."""
        dc, ac = _dc_table(), _ac_table()
        zrl = _ac_code(ac, 0xF0)
        stream = _gray_stream(
            dc, ac, [(0, 1), zrl, zrl, zrl, _ac_code(ac, _COEF15)]
        )
        codec = SWebpCodec(50)
        with pytest.raises(CodecError):
            swebp_decode_ref(stream)
        with pytest.raises(CodecError):
            codec.decode(stream)

    def test_invalid_ac_code_raises(self):
        """A bit pattern outside the (incomplete) AC code set."""
        dc = _dc_table()
        lengths = np.zeros(256, dtype=np.uint8)
        lengths[0x00] = 2  # EOB = '00'; prefixes 1x map to no symbol
        ac = CanonicalHuffman(lengths)
        stream = _gray_stream(dc, ac, [(0, 1), (3, 2)])
        codec = SWebpCodec(50)
        with pytest.raises(CodecError):
            swebp_decode_ref(stream)
        with pytest.raises(CodecError):
            codec.decode(stream)

    def test_invalid_dc_code_raises(self):
        lengths = np.zeros(256, dtype=np.uint8)
        lengths[0] = 2  # DC size 0 = '00'; prefix '10' maps to no symbol
        dc = CanonicalHuffman(lengths)
        ac = _ac_table()
        stream = _gray_stream(dc, ac, [(2, 2), _ac_code(ac, 0x00)])
        codec = SWebpCodec(50)
        with pytest.raises(CodecError):
            swebp_decode_ref(stream)
        with pytest.raises(CodecError):
            codec.decode(stream)

    def test_dc_symbol_above_15_raises(self):
        """DC sizes only go to 15; a table smuggling symbol 20 is rejected."""
        dc = _dc_table(symbols=(0, 20))
        ac = _ac_table()
        # Canonical order gives symbol 20 the code '1'.
        stream = _gray_stream(dc, ac, [(1, 1)])
        codec = SWebpCodec(50)
        with pytest.raises(CodecError):
            swebp_decode_ref(stream)
        with pytest.raises(CodecError):
            codec.decode(stream)

    def test_truncated_payload_raises(self):
        """Dropping the payload's final byte exhausts the bit stream."""
        dc, ac = _dc_table(), _ac_table()
        zrl = _ac_code(ac, 0xF0)
        fields = [(0, 1), zrl, zrl, zrl, _ac_code(ac, _COEF14), (1, 1)]
        stream = _gray_stream(dc, ac, fields)[:-1]
        codec = SWebpCodec(50)
        with pytest.raises(CodecError):
            swebp_decode_ref(stream)
        with pytest.raises(CodecError):
            codec.decode(stream)


class TestMalformedStreams:
    def test_bad_magic(self):
        codec = SWebpCodec(10)
        for decode in (codec.decode, swebp_decode_ref):
            with pytest.raises(CodecError):
                decode(b"JUNKJUNKJUNK")

    def test_truncated_header(self):
        codec = SWebpCodec(10)
        for decode in (codec.decode, swebp_decode_ref):
            with pytest.raises(CodecError):
                decode(b"SWBP\x01")

    def test_unsupported_version(self):
        codec = SWebpCodec(10)
        encoded = bytearray(codec.encode(_test_image((8, 8), False)))
        encoded[4] = 9
        for decode in (codec.decode, swebp_decode_ref):
            with pytest.raises(CodecError):
                decode(bytes(encoded))

    def test_header_parse(self):
        codec = SWebpCodec(37)
        encoded = codec.encode(_test_image((13, 21), True))
        header = SWebpHeader.parse(encoded)
        assert (header.width, header.height) == (21, 13)
        assert header.color and header.quality == 37

    def test_truncation_sweep_parity(self):
        """Every truncation past the header errors identically in both paths.

        The batch transcoder detects exhaustion differently (list index
        overrun or the final limit check, not per-read EOF), so this pins
        the exception *type* — always CodecError — across the whole body.
        """
        codec = SWebpCodec(10)
        encoded = codec.encode(_test_image((17, 23), True, seed=3))
        step = max(1, (len(encoded) - 11) // 60)
        for cut in range(11, len(encoded), step):
            chopped = encoded[:cut]
            try:
                ref = swebp_decode_ref(chopped)
                ref_err = None
            except CodecError:
                ref_err = CodecError
            if ref_err is None:
                assert np.array_equal(codec.decode(chopped), ref)
            else:
                with pytest.raises(CodecError):
                    codec.decode(chopped)
