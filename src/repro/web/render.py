"""Render a :class:`repro.web.dom.Page` to an RGB screenshot + click map.

Mirrors the paper's rendering parameters: images are 1,080 pixels wide
and optionally cropped at a maximum pixel height (PH, 10k in the paper)
"to allow a user to scroll down ... while avoiding to waste broadcasted
data" (Section 3.2).  The renderer also emits the click map used for
interactivity, and both scale together by the device scaling factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import derive_rng
from repro.web import font
from repro.web.clickmap import ClickMap, ClickRegion
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

__all__ = ["PageRenderer", "RenderResult"]

_WHITE = (255, 255, 255)
_TEXT = (75, 75, 75)
_LINK = (18, 60, 160)
_RULE = (210, 210, 210)

_HEADING_SCALE = {1: 4, 2: 3, 3: 2}
_BODY_SCALE = 2
_MARGIN = 36
_LINE_GAP = 16


@dataclass
class RenderResult:
    """A rendered screenshot and its interactivity map."""

    image: np.ndarray  # (H, W, 3) uint8
    clickmap: ClickMap
    full_height: int  # layout height before any PH crop

    @property
    def cropped(self) -> bool:
        return self.image.shape[0] < self.full_height

    def scaled(self, factor: float) -> "RenderResult":
        """Resize image and click map by the device scaling factor.

        Nearest-neighbour resampling — the cheap operation a low-end
        phone can afford (paper Section 3.2).
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        h, w = self.image.shape[:2]
        new_h, new_w = max(1, int(h * factor)), max(1, int(w * factor))
        rows = np.minimum((np.arange(new_h) / factor).astype(np.int64), h - 1)
        cols = np.minimum((np.arange(new_w) / factor).astype(np.int64), w - 1)
        image = self.image[rows][:, cols]
        return RenderResult(image, self.clickmap.scaled(factor), int(self.full_height * factor))


class _FlatCanvas:
    """Grow-down surface over one doubling buffer: O(1) row addressing.

    Every primitive is a direct slice of a single array.  The buffer is
    recycled across renders (see :attr:`PageRenderer._buf`), so a warm
    renderer never reallocates; ``extend`` paints each reserved row, so
    no pixel of an earlier page survives into the next.
    """

    def __init__(self, width: int, buf: np.ndarray | None = None) -> None:
        self.width = width
        if buf is None or buf.shape[1] != width:
            buf = np.empty((2048, width, 3), dtype=np.uint8)
        self._buf = buf
        self.y = 0

    def extend(self, height: int, color=_WHITE) -> int:
        """Append ``height`` rows of ``color``; returns their start y."""
        need = self.y + height
        buf = self._buf
        if need > buf.shape[0]:
            cap = buf.shape[0]
            while cap < need:
                cap *= 2
            grown = np.empty((cap, self.width, 3), dtype=np.uint8)
            grown[: self.y] = buf[: self.y]
            self._buf = buf = grown
        buf[self.y : need] = color
        start = self.y
        self.y = need
        return start

    def fill_rect(self, x: int, y: int, w: int, h: int, color) -> None:
        self._buf[y : y + h, x : x + w] = color

    def blit_mask(self, x: int, y: int, mask: np.ndarray, color) -> None:
        w = min(mask.shape[1], self.width - x)
        region = self._buf[y : y + mask.shape[0], x : x + w]
        region[mask[:, :w]] = color

    def paste(self, x: int, y: int, tile: np.ndarray) -> None:
        w = min(tile.shape[1], self.width - x)
        self._buf[y : y + tile.shape[0], x : x + w] = tile[:, :w]

    def image(self, limit: int | None = None) -> np.ndarray:
        h = self.y if limit is None else min(self.y, limit)
        if h == 0:
            return np.full((1, self.width, 3), 255, dtype=np.uint8)
        return self._buf[:h].copy()


def _procedural_photo(width: int, height: int, seed: int) -> np.ndarray:
    """A deterministic photo-like texture: gradient + soft blobs.

    The distance and gradient fields are separable in x and y, so the
    full-grid squares collapse to two 1-D vectors plus one broadcast add
    — per element the same float ops in the same order as the dense
    grids they replace, so output bytes are unchanged.
    """
    rng = derive_rng(seed, "photo")
    ys = np.arange(height, dtype=np.int64)[:, None]
    xs = np.arange(width, dtype=np.int64)[None, :]
    base = np.zeros((height, width, 3), dtype=np.float64)
    c0 = rng.uniform(40, 215, 3)
    c1 = rng.uniform(40, 215, 3)
    t = (xs + ys) / max(width + height - 2, 1)
    # Broadcast over the channel axis: per element these are the same
    # float ops in the same order as the per-channel loops they replace.
    base[:] = c0 + (c1 - c0) * t[..., None]
    tmp = np.empty_like(base)
    for _ in range(6):
        cx, cy = rng.uniform(0, width), rng.uniform(0, height)
        radius = rng.uniform(0.1, 0.35) * min(width, height)
        color = rng.uniform(0, 255, 3)
        blob = (xs - cx) ** 2 + (ys - cy) ** 2
        blob /= 2 * radius**2
        np.negative(blob, out=blob)
        np.exp(blob, out=blob)
        np.subtract(color, base, out=tmp)
        np.multiply(tmp, blob[..., None], out=tmp)
        tmp *= 0.7
        base += tmp
    return np.clip(base, 0, 255).astype(np.uint8)


class PageRenderer:
    """Layout engine: stacks page elements into a screenshot."""

    #: Bounds on the per-renderer raster caches (entries, not bytes).
    TEXT_CACHE_CAP = 2048
    WORD_CACHE_CAP = 8192

    def __init__(self, width: int = 1080, max_height: int | None = 10_000) -> None:
        if width < 200:
            raise ValueError("width must be at least 200 px")
        self.width = width
        self.max_height = max_height
        # Warm state a persistent renderer carries between pages: the
        # canvas buffer plus (text, scale) -> mask raster caches.  The
        # site corpus draws from a small vocabulary, so word rasters hit
        # almost always after the first few pages.
        self._buf: np.ndarray | None = None
        self._text_cache: dict[tuple[str, int], np.ndarray] = {}
        self._word_cache: dict[tuple[str, int], np.ndarray] = {}
        self._wrap_cache: dict[tuple[str, int], list[str]] = {}

    # -- text helpers ----------------------------------------------------------

    #: Body text occupies a reading column, not the full viewport —
    #: mobile pages keep measure around 60 characters.
    TEXT_COLUMN_FRACTION = 0.72

    def _wrap(self, text: str, scale: int) -> list[str]:
        usable = int((self.width - 2 * _MARGIN) * self.TEXT_COLUMN_FRACTION)
        per_char = (font.GLYPH_WIDTH + 1) * scale
        max_chars = max(8, usable // per_char)
        words = text.split()
        lines: list[str] = []
        current = ""
        for word in words:
            candidate = f"{current} {word}".strip()
            if len(candidate) <= max_chars:
                current = candidate
            else:
                if current:
                    lines.append(current)
                current = word[:max_chars]
        if current:
            lines.append(current)
        return lines or [""]

    def _wrap_cached(self, text: str, scale: int) -> list[str]:
        key = (text, scale)
        lines = self._wrap_cache.get(key)
        if lines is None:
            lines = self._wrap(text, scale)
            cache = self._wrap_cache
            cache[key] = lines
            if len(cache) > self.TEXT_CACHE_CAP:
                cache.pop(next(iter(cache)))
        return lines

    def _text_raster(self, text: str, scale: int) -> np.ndarray:
        """A (cached) rendered text mask."""
        key = (text, scale)
        cache = self._text_cache
        mask = cache.get(key)
        if mask is None:
            mask = self._assemble_text(text, scale)
            cache[key] = mask
            if len(cache) > self.TEXT_CACHE_CAP:
                cache.pop(next(iter(cache)))
        return mask

    def _assemble_text(self, text: str, scale: int) -> np.ndarray:
        """Concatenate per-word rasters: a word's glyph columns are the
        same whether rendered alone or mid-line (fixed glyph pitch), and
        the single-space gap between words is exactly 7*scale blank
        columns, so the concatenation is bit-identical to rendering the
        whole line at once."""
        words = text.split(" ")
        if len(words) == 1 or "" in words:
            return font.render_text(text, scale=scale)
        wcache = self._word_cache
        gap = np.zeros((font.GLYPH_HEIGHT * scale, 7 * scale), dtype=bool)
        parts: list[np.ndarray] = []
        for i, word in enumerate(words):
            if i:
                parts.append(gap)
            mask = wcache.get((word, scale))
            if mask is None:
                mask = font.render_text(word, scale=scale)
                wcache[(word, scale)] = mask
                if len(wcache) > self.WORD_CACHE_CAP:
                    wcache.pop(next(iter(wcache)))
            parts.append(mask)
        return np.concatenate(parts, axis=1)

    def _block_height(self, text: str, scale: int) -> int:
        """Exact height :meth:`_draw_text_block` would consume."""
        lines = self._wrap_cached(text, scale)
        return (font.GLYPH_HEIGHT * scale + _LINE_GAP) * len(lines) + _LINE_GAP

    def _draw_text_block(
        self, canvas: _FlatCanvas, text: str, scale: int, color, x: int | None = None
    ) -> tuple[int, int, int]:
        """Draw wrapped text; returns (y, height, max_line_width)."""
        lines = self._wrap_cached(text, scale)
        line_h = font.GLYPH_HEIGHT * scale + _LINE_GAP
        y0 = canvas.extend(line_h * len(lines) + _LINE_GAP)
        max_w = 0
        for i, line in enumerate(lines):
            mask = self._text_raster(line, scale)
            canvas.blit_mask(x if x is not None else _MARGIN, y0 + i * line_h, mask, color)
            max_w = max(max_w, mask.shape[1])
        return y0, line_h * len(lines) + _LINE_GAP, max_w

    # -- element renderers ----------------------------------------------------------

    def _render_header(self, canvas: _FlatCanvas, el: Header, clickmap: ClickMap) -> None:
        bar_h = 96
        y0 = canvas.extend(bar_h, el.color)
        title_mask = self._text_raster(el.title, 4)
        canvas.blit_mask(_MARGIN, y0 + 16, title_mask, _WHITE)
        x = _MARGIN
        nav_y = y0 + 64
        for label, href in el.nav_items:
            mask = self._text_raster(label, 2)
            w = mask.shape[1]
            if x + w > self.width - _MARGIN:
                break
            canvas.blit_mask(x, nav_y, mask, (220, 230, 255))
            clickmap.add(ClickRegion(x, nav_y, w, mask.shape[0], href))
            x += w + 28

    def _render_heading(self, canvas: _FlatCanvas, el: Heading, clickmap: ClickMap) -> None:
        scale = _HEADING_SCALE.get(el.level, 2)
        color = _LINK if el.href else _TEXT
        y0, h, w = self._draw_text_block(canvas, el.text, scale, color)
        if el.href:
            clickmap.add(ClickRegion(_MARGIN, y0, w, h - _LINE_GAP, el.href))

    def _render_paragraph(self, canvas: _FlatCanvas, el: Paragraph) -> None:
        self._draw_text_block(canvas, el.text, _BODY_SCALE, _TEXT)
        canvas.extend(30)

    def _render_image(self, canvas: _FlatCanvas, el: ImageBlock) -> None:
        w = min(el.width, self.width - 2 * _MARGIN)
        y0 = canvas.extend(el.height + 12)
        canvas.paste(_MARGIN, y0, _procedural_photo(w, el.height, el.seed))
        if el.caption:
            self._draw_text_block(canvas, el.caption, 1, (90, 90, 90))

    def _render_thumbnail(self, canvas: _FlatCanvas, el: Thumbnail) -> None:
        w = min(el.width, self.width - 2 * _MARGIN)
        y0 = canvas.extend(el.height + 8)
        canvas.paste(_MARGIN, y0, _procedural_photo(w, el.height, el.seed))
        # Play-button glyph: centred grey box with a triangle.
        size = min(60, el.height - 8)
        bx = _MARGIN + w // 2 - size // 2
        by = y0 + el.height // 2 - size // 2
        canvas.fill_rect(bx, by, size, size, (60, 60, 60))
        tri = np.zeros((size, size), dtype=bool)
        for row in range(size):
            extent = size // 2 - abs(row - size // 2)
            tri[row, size // 3 : size // 3 + max(0, extent)] = True
        canvas.blit_mask(bx, by, tri, _WHITE)
        self._draw_text_block(canvas, el.label, 1, (120, 120, 120))

    def _render_linklist(self, canvas: _FlatCanvas, el: LinkList, clickmap: ClickMap) -> None:
        for label, href in el.items:
            y0, h, w = self._draw_text_block(canvas, "- " + label, _BODY_SCALE, _LINK)
            clickmap.add(ClickRegion(_MARGIN, y0, w, h - _LINE_GAP, href))
        canvas.extend(8)

    def _render_linkgrid(self, canvas: _FlatCanvas, el: LinkGrid, clickmap: ClickMap) -> None:
        # Dense directory wall: small type, tight leading, full width.
        col_w = (self.width - 2 * _MARGIN) // el.columns
        row_h = font.GLYPH_HEIGHT * 2 + 4
        n_rows = -(-len(el.items) // el.columns)
        y0 = canvas.extend(n_rows * row_h + 8)
        per_char = (font.GLYPH_WIDTH + 1) * 2
        max_chars = max(4, (col_w - 8) // per_char)
        for i, (label, href) in enumerate(el.items):
            row, col = divmod(i, el.columns)
            x = _MARGIN + col * col_w
            y = y0 + row * row_h
            mask = self._text_raster(label[:max_chars], 2)
            canvas.blit_mask(x, y, mask, _LINK)
            clickmap.add(ClickRegion(x, y, mask.shape[1], mask.shape[0], href))

    def _render_searchbox(self, canvas: _FlatCanvas, el: SearchBox, clickmap: ClickMap) -> None:
        box_h = 44
        y0 = canvas.extend(box_h + 12)
        w = self.width - 2 * _MARGIN
        canvas.fill_rect(_MARGIN, y0, w, box_h, (240, 240, 240))
        canvas.fill_rect(_MARGIN, y0, w, 2, _RULE)
        canvas.fill_rect(_MARGIN, y0 + box_h - 2, w, 2, _RULE)
        mask = self._text_raster(el.placeholder, 2)
        canvas.blit_mask(_MARGIN + 12, y0 + 12, mask, (130, 130, 130))
        clickmap.add(ClickRegion(_MARGIN, y0, w, box_h, el.href))

    def _render_ad(self, canvas: _FlatCanvas, el: AdBanner, clickmap: ClickMap) -> None:
        banner_h = 90
        y0 = canvas.extend(banner_h + 10)
        w = self.width - 2 * _MARGIN
        canvas.fill_rect(_MARGIN, y0, w, banner_h, el.color)
        mask = self._text_raster(el.text, 3)
        canvas.blit_mask(_MARGIN + 20, y0 + 30, mask, _WHITE)
        if el.href:
            clickmap.add(ClickRegion(_MARGIN, y0, w, banner_h, el.href))

    def _render_footer(self, canvas: _FlatCanvas, el: Footer, clickmap: ClickMap) -> None:
        foot_h = 80
        y0 = canvas.extend(foot_h, el.color)
        x = _MARGIN
        for label, href in el.items:
            mask = self._text_raster(label, 1)
            w = mask.shape[1]
            if x + w > self.width - _MARGIN:
                break
            canvas.blit_mask(x, y0 + 34, mask, (200, 200, 200))
            clickmap.add(ClickRegion(x, y0 + 34, w, mask.shape[0], href))
            x += w + 24

    # -- layout measurement ----------------------------------------------------

    def _measure(self, el) -> int:
        """Rows ``el`` would add to the canvas, without rasterising.

        Must agree exactly with the corresponding ``_render_*`` method —
        :meth:`render` uses it to price everything below the crop line.
        ``tests/test_web_render.py::TestRenderShortcuts`` pins the
        agreement for every element type by cropping one page at many
        lines.
        """
        if isinstance(el, Header):
            return 96
        if isinstance(el, Heading):
            return self._block_height(el.text, _HEADING_SCALE.get(el.level, 2))
        if isinstance(el, Paragraph):
            return self._block_height(el.text, _BODY_SCALE) + 30
        if isinstance(el, ImageBlock):
            h = el.height + 12
            if el.caption:
                h += self._block_height(el.caption, 1)
            return h
        if isinstance(el, Thumbnail):
            return el.height + 8 + self._block_height(el.label, 1)
        if isinstance(el, LinkList):
            return sum(
                self._block_height("- " + label, _BODY_SCALE)
                for label, _ in el.items
            ) + 8
        if isinstance(el, LinkGrid):
            row_h = font.GLYPH_HEIGHT * 2 + 4
            n_rows = -(-len(el.items) // el.columns)
            return n_rows * row_h + 8
        if isinstance(el, SearchBox):
            return 44 + 12
        if isinstance(el, AdBanner):
            return 90 + 10
        if isinstance(el, Divider):
            return el.padding * 2 + 2
        if isinstance(el, Footer):
            return 80
        raise TypeError(f"unknown element type {type(el).__name__}")

    # -- entry point ----------------------------------------------------------

    def _render_element(self, canvas, el, clickmap: ClickMap) -> None:
        if isinstance(el, Header):
            self._render_header(canvas, el, clickmap)
        elif isinstance(el, Heading):
            self._render_heading(canvas, el, clickmap)
        elif isinstance(el, Paragraph):
            self._render_paragraph(canvas, el)
        elif isinstance(el, ImageBlock):
            self._render_image(canvas, el)
        elif isinstance(el, Thumbnail):
            self._render_thumbnail(canvas, el)
        elif isinstance(el, LinkList):
            self._render_linklist(canvas, el, clickmap)
        elif isinstance(el, LinkGrid):
            self._render_linkgrid(canvas, el, clickmap)
        elif isinstance(el, SearchBox):
            self._render_searchbox(canvas, el, clickmap)
        elif isinstance(el, AdBanner):
            self._render_ad(canvas, el, clickmap)
        elif isinstance(el, Divider):
            y0 = canvas.extend(el.padding * 2 + 2)
            canvas.fill_rect(_MARGIN, y0 + el.padding, self.width - 2 * _MARGIN, 2, _RULE)
        elif isinstance(el, Footer):
            self._render_footer(canvas, el, clickmap)
        else:
            raise TypeError(f"unknown element type {type(el).__name__}")

    def render(self, page: Page) -> RenderResult:
        """Lay out and rasterise ``page``; crop at ``max_height`` if set.

        Rasterises only down to the crop line: every element draws
        strictly within the rows its ``extend`` reserved, so once the
        canvas has reached ``max_height`` no later element can touch a
        visible pixel (and its click regions all start below the crop,
        which the region filter would drop anyway).  The remainder is
        *measured* instead, keeping ``full_height`` exact — byte- and
        region-identical to rasterising the whole page and cutting it at
        the line, at a fraction of the cost for long pages.
        """
        canvas = _FlatCanvas(self.width, self._buf)
        clickmap = ClickMap()
        elements = page.elements
        limit = self.max_height
        i, n = 0, len(elements)
        while i < n and (limit is None or canvas.y < limit):
            self._render_element(canvas, elements[i], clickmap)
            i += 1
        total = canvas.y
        for el in elements[i:]:
            total += self._measure(el)
        self._buf = canvas._buf  # keep the grown buffer warm
        full_height = total if total > 0 else 1
        if limit is not None and full_height > limit:
            image = canvas.image(limit)
            clickmap = ClickMap(
                [r for r in clickmap if r.y + r.height <= limit]
            )
        else:
            image = canvas.image()
        return RenderResult(image, clickmap, full_height)
