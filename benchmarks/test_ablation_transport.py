"""ABLATION — column transport vs compressed-bundle transport under loss.

The paper's two transmission stories pull in opposite directions:
compressed bundles minimise airtime but need *every* frame (loss means
waiting for the next carousel cycle), while 1-px column partitioning
tolerates any loss pattern gracefully (missing pixels, interpolable) at
a large airtime premium.  This ablation quantifies that trade.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_table
from repro.imaging.codec import SWebpCodec
from repro.imaging.metrics import psnr_db
from repro.transport.bundle import BundleTransport, PageBundle
from repro.transport.partition import ColumnTransport
from repro.util.rng import derive_rng
from repro.web.clickmap import ClickMap
from repro.web.render import PageRenderer
from repro.web.sites import SiteGenerator

LOSS_RATES = (0.0, 0.02, 0.10)


def run():
    generator = SiteGenerator(seed=42)
    image = PageRenderer(width=1080, max_height=1_600).render(
        generator.page(generator.all_urls()[0], 0)
    ).image
    rng = derive_rng(8, "ablation-transport")

    bundle_bytes = PageBundle("x.pk/", image, ClickMap()).to_bytes()
    bundle_frames = BundleTransport().chunk(bundle_bytes, page_id=1)
    column = ColumnTransport("rle")
    column_frames = column.partition(image, page_id=1)
    codec = SWebpCodec(10)
    q10_reference = psnr_db(image, codec.decode(codec.encode(image)))

    rows = []
    for loss in LOSS_RATES:
        keep_b = [f for f in bundle_frames if rng.random() >= loss]
        blob = BundleTransport().reassemble(keep_b)
        if blob is not None:
            bundle_result = f"PSNR {psnr_db(image, PageBundle.from_bytes(blob).image):.1f} dB"
        else:
            bundle_result = "undecodable (await rebroadcast)"

        keep_c = [f for f in column_frames if rng.random() >= loss]
        received, missing = column.reassemble(keep_c, image.shape[:2])
        from repro.imaging.interpolate import interpolate_missing

        repaired = interpolate_missing(received, missing)
        column_result = f"PSNR {psnr_db(image, repaired):.1f} dB"
        rows.append([f"{loss * 100:.0f}%", bundle_result, column_result])
    return rows, len(bundle_frames), len(column_frames), q10_reference


def test_ablation_transport_tradeoff():
    rows, n_bundle, n_column, q10_ref = run()
    print_table(
        f"Transport ablation (bundle {n_bundle} frames vs column {n_column} frames; "
        f"Q10 codec ceiling {q10_ref:.1f} dB)",
        ["frame loss", "bundle transport", "column transport"],
        rows,
    )
    # Airtime: bundles are dramatically cheaper.
    assert n_bundle * 8 < n_column
    # At zero loss both deliver; at 10% loss the bundle is undecodable
    # within the cycle while columns degrade gracefully.
    assert "undecodable" in rows[-1][1]
    assert "PSNR" in rows[-1][2]
