"""FIG4B — CDF of rendered webpage image sizes.

Paper (Figure 4(b)): the 100-page corpus encoded as WebP at quality
Q=10/50/90, with pixel height PH cropped at 10k or uncropped.  At Q10
most pages compress below ~200 KB where Q90 needs ~700 KB; cropping at
10k pixels saves around 100 KB for the taller pages, and the CDF tails
run to roughly twice the 90th percentile.

Our SWebp encoder and bitmap-font renderer put more ink on the page than
Chrome-rendered sites, so absolute sizes sit above the paper's; all the
*relative* structure (Q scaling, crop savings, tail shape) is asserted.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import full_scale, print_table
from repro.imaging.codec import SWebpCodec
from repro.web.render import PageRenderer
from repro.web.sites import SiteGenerator

CONFIGS = [
    ("Q10 PH10k", 10, 10_000),
    ("Q10 PHNone", 10, None),
    ("Q50 PH10k", 50, 10_000),
    ("Q90 PH10k", 90, 10_000),
]
PAPER_NOTES = {
    "Q10 PH10k": "mostly < 200 KB",
    "Q10 PHNone": "+~100 KB on tall pages",
    "Q50 PH10k": "between Q10 and Q90",
    "Q90 PH10k": "~700 KB typical",
}


def measure_sizes(n_pages: int) -> dict[str, np.ndarray]:
    generator = SiteGenerator(seed=42)
    renderer = PageRenderer(width=1080, max_height=None)
    urls = generator.all_urls()[:n_pages]
    codecs = {q: SWebpCodec(q) for q in (10, 50, 90)}
    sizes: dict[str, list[int]] = {label: [] for label, _, _ in CONFIGS}
    for url in urls:
        result = renderer.render(generator.page(url, hour=0))
        full = result.image
        cropped = full[:10_000]
        for label, quality, ph in CONFIGS:
            image = full if ph is None else cropped
            sizes[label].append(codecs[quality].encoded_size(image))
    return {label: np.array(v) for label, v in sizes.items()}


def test_fig4b_size_cdf(output_dir):
    n_pages = 100 if full_scale() else 24
    sizes = measure_sizes(n_pages)

    rows = []
    for label, _, _ in CONFIGS:
        kb = sizes[label] / 1024
        rows.append(
            [
                label,
                f"{np.percentile(kb, 25):.0f}",
                f"{np.median(kb):.0f}",
                f"{np.percentile(kb, 90):.0f}",
                f"{kb.max():.0f}",
                PAPER_NOTES[label],
            ]
        )
    print_table(
        f"FIG4B rendered-image sizes, KB ({n_pages} pages)",
        ["config", "q25", "median", "p90", "max", "paper"],
        rows,
    )

    from repro.report.plots import cdf_chart

    cdf_chart(
        {label: sizes[label] / 1024 for label, _, _ in CONFIGS},
        output_dir / "fig4b_size_cdf.svg",
        title="Rendered webpage sizes (SWebp)",
        x_label="size (KB)",
    )
    q10 = sizes["Q10 PH10k"]
    q50 = sizes["Q50 PH10k"]
    q90 = sizes["Q90 PH10k"]
    uncropped = sizes["Q10 PHNone"]
    # Quality ordering, page by page.
    assert (q10 < q50).all()
    assert (q50 < q90).all()
    # The paper's ~3.5x Q90/Q10 spread, allow slack for our renderer.
    ratio = np.median(q90) / np.median(q10)
    assert 2.0 < ratio < 6.0, ratio
    # Cropping saves data on tall pages and never costs.
    assert (uncropped >= q10).all()
    savings_kb = (uncropped - q10) / 1024
    assert np.percentile(savings_kb, 75) > 20
    # A tail beyond the 90th percentile (the paper sees ~2x on real
    # pages; the synthetic corpus is more homogeneous, so the tail is
    # lighter — see EXPERIMENTS.md).
    assert q10.max() > 1.05 * np.percentile(q10, 90)
