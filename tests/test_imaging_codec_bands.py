"""The SWebp encoder works in row bands and writes whole-image bytes.

:meth:`SWebpCodec.encode` converts, subsamples and transforms one band
of whole 16-row macroblock rows at a time, then entropy-codes each plane
once over the merged coefficients.  These tests pin it byte for byte to
the whole-image encoder frozen in ``tests/reference/swebp.py``
(``swebp_encode_ref``) over shapes that cross band boundaries, and pin
the working set that banding buys.
"""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.imaging.codec as codec_mod
from repro.imaging.codec import SWebpCodec, _band_rows
from repro.web.render import PageRenderer
from repro.web.sites import SiteGenerator
from tests.reference.swebp import swebp_encode_ref


def _image(kind: str, h: int, w: int, color: bool, seed: int) -> np.ndarray:
    """Uniform noise (every block busy) or 8x8-blocky noise (mostly flat
    blocks with many distinct values) of shape (h, w[, 3])."""
    rng = np.random.default_rng(seed)
    extra = (3,) if color else ()
    if kind == "noise":
        return rng.integers(0, 256, (h, w, *extra), dtype=np.uint8)
    cells = rng.integers(0, 256, (-(-h // 8), -(-w // 8), *extra), dtype=np.uint8)
    return np.repeat(np.repeat(cells, 8, axis=0), 8, axis=1)[:h, :w]


@st.composite
def _multi_band_shapes(draw):
    """(h, w) with at least one full band and a last band that usually
    ends on a partial macroblock row (h = 1..15 mod 16)."""
    w = draw(st.integers(min_value=1, max_value=4_096))
    band = _band_rows(w)
    full = draw(st.integers(min_value=1, max_value=2))
    mb_rows = draw(st.integers(min_value=0, max_value=band // 16 - 1))
    tail = draw(st.integers(min_value=0, max_value=15))
    h = min(full * band + 16 * mb_rows + tail, 65_535)
    return max(h, 1), w


class TestBandedMatchesWholeImage:
    @settings(max_examples=25, deadline=None)
    @given(
        shape=_multi_band_shapes(),
        quality=st.integers(min_value=0, max_value=95),
        color=st.booleans(),
        kind=st.sampled_from(["noise", "blocky"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_multi_band_shapes(self, shape, quality, color, kind, seed):
        codec = SWebpCodec(quality)
        image = _image(kind, *shape, color, seed)
        assert codec.encode(image) == swebp_encode_ref(codec, image)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(min_value=1, max_value=120),
        w=st.integers(min_value=1, max_value=70),
        band_pixels=st.sampled_from([1, 256, 1_024]),
        quality=st.integers(min_value=0, max_value=95),
        color=st.booleans(),
        kind=st.sampled_from(["noise", "blocky"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_many_small_bands(self, h, w, band_pixels, quality, color, kind, seed):
        """Smaller bands put many boundaries, and the ``w < 4`` chroma
        subsampling branch, inside small images."""
        codec = SWebpCodec(quality)
        image = _image(kind, h, w, color, seed)
        with patch.object(codec_mod, "_BAND_PIXELS", band_pixels):
            banded = codec.encode(image)
        assert banded == swebp_encode_ref(codec, image)

    @pytest.mark.parametrize(
        "width, height", [(1080, 2000), (1080, 3333), (720, 1555)]
    )
    def test_rendered_pages(self, width, height):
        gen = SiteGenerator(seed=42, n_sites=1)
        renderer = PageRenderer(width=width, max_height=height)
        image = renderer.render(gen.page(gen.all_urls()[1], 0)).image
        assert image.shape[0] > _band_rows(width)
        for quality in (10, 50):
            codec = SWebpCodec(quality)
            assert codec.encode(image) == swebp_encode_ref(codec, image)

    def test_band_rows(self):
        assert _band_rows(1080) == 240
        assert _band_rows(360) == 720
        assert _band_rows(65_535) == 16
        assert all(_band_rows(w) % 16 == 0 for w in range(1, 5_000, 7))


class TestEncodeWorkingSet:
    def test_encode_peak_on_a_1080_page(self):
        """A 1080x2000 page (6.5 MB of pixels) encodes within 48 MB of
        traced allocations (a whole-image pass needs about 120 MB)."""
        gen = SiteGenerator(seed=42, n_sites=1)
        renderer = PageRenderer(width=1080, max_height=2000)
        image = renderer.render(gen.page(gen.all_urls()[0], 0)).image
        assert image.shape == (2000, 1080, 3)
        codec = SWebpCodec(10)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            data = codec.encode(image)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(data) == 53_749
        assert peak <= 48_000_000, peak
