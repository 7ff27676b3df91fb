"""Page rendering: layout, cropping, click-map extraction, scaling."""

import numpy as np
import pytest

from repro.web.clickmap import ClickMap
from repro.web.dom import (
    AdBanner,
    Divider,
    Footer,
    Header,
    Heading,
    ImageBlock,
    LinkGrid,
    LinkList,
    Page,
    Paragraph,
    SearchBox,
    Thumbnail,
)
from repro.web import font
from repro.web.render import PageRenderer
from repro.web.sites import SiteGenerator


def _page(elements) -> Page:
    return Page(url="test.pk/", title="t", elements=elements)


class TestLayout:
    def test_width_and_dtype(self):
        r = PageRenderer(width=600, max_height=None)
        res = r.render(_page([Heading("Hello", 1)]))
        assert res.image.shape[1] == 600
        assert res.image.dtype == np.uint8

    def test_each_element_type_renders(self):
        elements = [
            Header("SITE", (("Nav", "test.pk/nav"),)),
            Heading("Headline", 1, href="test.pk/story"),
            Paragraph("Some body text for the page."),
            ImageBlock(200, 80, seed=1, caption="photo"),
            Thumbnail(200, 80, seed=2),
            LinkList((("More", "test.pk/more"),)),
            LinkGrid((("Dir A", "test.pk/a"), ("Dir B", "test.pk/b"),
                      ("Dir C", "test.pk/c"), ("Dir D", "test.pk/d"))),
            SearchBox(),
            AdBanner("BUY NOW", href="test.pk/ad"),
            Divider(),
            Footer((("About", "test.pk/about"),)),
        ]
        res = PageRenderer(width=500, max_height=None).render(_page(elements))
        assert res.image.shape[0] > 400
        # Ink exists (not a blank page).
        assert (res.image < 250).any()

    def test_empty_page(self):
        res = PageRenderer(width=400).render(_page([]))
        assert res.image.shape[0] >= 1

    def test_min_width_enforced(self):
        with pytest.raises(ValueError):
            PageRenderer(width=100)


class TestCropping:
    def _tall_page(self):
        return _page([Paragraph("words " * 40) for _ in range(120)])

    def test_ph_crop_applies(self):
        full = PageRenderer(width=400, max_height=None).render(self._tall_page())
        cropped = PageRenderer(width=400, max_height=2_000).render(self._tall_page())
        assert full.image.shape[0] > 2_000
        assert cropped.image.shape[0] == 2_000
        assert cropped.cropped
        assert not full.cropped
        assert cropped.full_height == full.image.shape[0]

    def test_clickmap_clipped_with_image(self):
        page = _page(
            [Paragraph("words " * 40) for _ in range(100)]
            + [LinkList((("tail link", "test.pk/tail"),))]
        )
        res = PageRenderer(width=400, max_height=1_000).render(page)
        for region in res.clickmap:
            assert region.y + region.height <= 1_000


class TestClickmap:
    def test_links_mapped(self):
        res = PageRenderer(width=500, max_height=None).render(
            _page(
                [
                    Header("S", (("Home", "test.pk/home"),)),
                    Heading("Story", 2, href="test.pk/story"),
                    LinkList((("A", "test.pk/a"), ("B", "test.pk/b"))),
                ]
            )
        )
        hrefs = set(res.clickmap.hrefs())
        assert {"test.pk/home", "test.pk/story", "test.pk/a", "test.pk/b"} <= hrefs

    def test_hit_test_on_heading(self):
        res = PageRenderer(width=500, max_height=None).render(
            _page([Heading("Clickable", 2, href="test.pk/x")])
        )
        region = res.clickmap.regions[0]
        assert res.clickmap.hit_test(region.x + 1, region.y + 1) == "test.pk/x"

    def test_linkgrid_regions_mapped(self):
        items = tuple((f"L{i}", f"test.pk/{i}") for i in range(9))
        res = PageRenderer(width=600, max_height=None).render(
            _page([LinkGrid(items, columns=3)])
        )
        assert len(res.clickmap) == 9
        # Three distinct x positions (columns), three rows.
        xs = {r.x for r in res.clickmap}
        assert len(xs) == 3

    def test_plain_heading_not_clickable(self):
        res = PageRenderer(width=500, max_height=None).render(
            _page([Heading("Plain", 2)])
        )
        assert len(res.clickmap) == 0

    def test_thumbnail_not_clickable(self):
        """Videos are replaced by thumbnails which are not clickable."""
        res = PageRenderer(width=500, max_height=None).render(
            _page([Thumbnail(300, 100, seed=3)])
        )
        assert len(res.clickmap) == 0


class TestScaling:
    def test_scaled_result(self):
        res = PageRenderer(width=1080, max_height=None).render(
            _page([Heading("Scale me", 1, href="test.pk/s"), Paragraph("body")])
        )
        scaled = res.scaled(1 / 3)
        assert scaled.image.shape[1] == 360
        assert scaled.image.shape[0] == res.image.shape[0] // 3
        r0, s0 = res.clickmap.regions[0], scaled.clickmap.regions[0]
        assert s0.x == pytest.approx(r0.x / 3, abs=1)

    def test_deterministic(self):
        page = _page([ImageBlock(300, 120, seed=9), Paragraph("abc")])
        a = PageRenderer(width=480).render(page).image
        b = PageRenderer(width=480).render(page).image
        assert np.array_equal(a, b)


def _every_element_twice() -> Page:
    """A page holding each element type twice, in two variants."""
    return _page(
        [
            Header("SITE", (("Nav", "test.pk/nav"), ("Sports", "test.pk/s"))),
            Heading("Headline story of the day", 1, href="test.pk/story"),
            Paragraph("Some body text for the page, long enough to wrap. " * 3),
            ImageBlock(200, 80, seed=1, caption="photo caption"),
            Thumbnail(200, 80, seed=2),
            LinkList((("More", "test.pk/more"), ("Older news", "test.pk/old"))),
            LinkGrid(tuple((f"Dir {i}", f"test.pk/d{i}") for i in range(7))),
            SearchBox(),
            AdBanner("BUY NOW", href="test.pk/ad"),
            Divider(),
            Footer((("About", "test.pk/about"), ("Contact", "test.pk/c"))),
            Header("OTHER", (), color=(120, 20, 40)),
            Heading("Plain subheading", 3),
            Paragraph("Short."),
            ImageBlock(420, 60, seed=5),
            Thumbnail(120, 50, seed=6, label="clip"),
            LinkList((("Only link", "test.pk/only"),)),
            LinkGrid(tuple((f"Long label {i}", f"test.pk/g{i}") for i in range(5)), 2),
            SearchBox("Find a page", "test.pk/find"),
            AdBanner("NO LINK AD"),
            Divider(padding=8),
            Footer(),
        ]
    )


class TestRenderShortcuts:
    """Pin :meth:`PageRenderer.render`'s shortcuts: measuring instead of
    rasterising below the crop line, the recycled canvas buffer, and the
    text, word and wrap caches."""

    @pytest.mark.parametrize("width", [240, 500])
    def test_crop_equals_uncropped_cut_at_the_line(self, width):
        page = _every_element_twice()
        full = PageRenderer(width=width, max_height=None).render(page)
        height = full.image.shape[0]
        assert full.full_height == height
        # One renderer draws another page first and then crops at rising
        # lines, so every render reuses a buffer that holds other pixels.
        renderer = PageRenderer(width=width, max_height=None)
        renderer.render(_page([AdBanner("STALE PIXELS") for _ in range(30)]))
        for line in range(1, height, 53):
            renderer.max_height = line
            res = renderer.render(page)
            assert res.full_height == height, line
            assert np.array_equal(res.image, full.image[:line]), line
            expected = [r for r in full.clickmap if r.y + r.height <= line]
            assert list(res.clickmap) == expected, line

    def test_warm_renderer_equals_fresh(self):
        gen = SiteGenerator(seed=42, n_sites=3)
        warm = PageRenderer(width=360, max_height=600)
        for url in gen.all_urls():
            page = gen.page(url)
            got = warm.render(page)
            want = PageRenderer(width=360, max_height=600).render(page)
            assert np.array_equal(got.image, want.image), url
            assert got.full_height == want.full_height, url
            assert list(got.clickmap) == list(want.clickmap), url

    @pytest.mark.parametrize("scale", [1, 2, 4])
    @pytest.mark.parametrize(
        "text", ["three word line", "double  space", "single", "a b"]
    )
    def test_word_assembly_equals_whole_line(self, text, scale):
        renderer = PageRenderer(width=400)
        assert np.array_equal(
            renderer._assemble_text(text, scale), font.render_text(text, scale=scale)
        )
