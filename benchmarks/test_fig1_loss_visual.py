"""FIG1 — a delivered webpage at 0 % loss, 10 % loss, and 10 % + recovery.

Paper (Figure 1): the same pre-rendered page shown with no frames lost,
with 10 % frame loss (missing pixels dark), and with the missing pixels
repaired by nearest-neighbour interpolation — "still readable despite
about 10% loss rate".  This benchmark regenerates the three panels as
PPM files under benchmarks/output/ and quantifies them.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.core.pipeline import simulate_column_loss
from repro.imaging.codec import SWebpCodec
from repro.imaging.pnm import write_ppm
from repro.web.render import PageRenderer
from repro.web.sites import SiteGenerator


def build_panels():
    generator = SiteGenerator(seed=42)
    renderer = PageRenderer(width=1080, max_height=2_400)
    url = generator.websites()[0].landing_url
    rendered = renderer.render(generator.page(url, hour=0)).image
    # The page travels as SWebp Q10 (what the FM downlink delivers).
    codec = SWebpCodec(10)
    delivered = codec.decode(codec.encode(rendered))
    sim = simulate_column_loss(delivered, 0.10, seed=9)
    return url, delivered, sim


def test_fig1_loss_visual(output_dir):
    url, delivered, sim = build_panels()

    write_ppm(output_dir / "fig1_left_no_loss.ppm", delivered)
    write_ppm(output_dir / "fig1_center_10pct_loss.ppm", sim.damaged)
    write_ppm(output_dir / "fig1_right_interpolated.ppm", sim.interpolated)

    rows = [
        ["no loss", "100.0", "1.000", "reference"],
        [
            "10% loss",
            f"{sim.psnr_damaged():.1f}",
            f"{sim.ssim_damaged():.3f}",
            "significant but tolerable",
        ],
        [
            "10% + interp",
            f"{sim.psnr_interpolated():.1f}",
            f"{sim.ssim_interpolated():.3f}",
            "readable",
        ],
    ]
    print_table(
        f"FIG1 panels for {url} (PPMs in benchmarks/output/)",
        ["panel", "PSNR dB", "SSIM", "paper"],
        rows,
    )
    assert sim.frame_loss_rate == pytest.approx(0.10, abs=0.02)
    assert sim.psnr_interpolated() > sim.psnr_damaged() + 5
    assert sim.ssim_interpolated() > 0.8
