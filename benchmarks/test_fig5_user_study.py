"""FIG5 — user-study ratings vs loss rate, with/without interpolation.

Paper (Figure 5): 151 students rated 400 screenshots (50 pages x loss in
{5,10,20,50} % x {dark pixels, interpolated}) on two 0-10 questions —
(a) content understanding and (b) text readability.  Interpolation lifts
the median rating by at least a point at every loss rate; text is more
loss-sensitive than content; at 20 % loss interpolated content still
scores around 7.

The synthetic panel rates the *measured pixel damage* of real rendered
pages run through the real loss + interpolation code (see
repro.sim.userstudy for the psychometric model).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import full_scale, print_table
from repro.core.pipeline import simulate_column_loss
from repro.sim.userstudy import StudyConfig, UserStudy
from repro.web.render import PageRenderer
from repro.web.sites import SiteGenerator

LOSS_RATES = (0.05, 0.10, 0.20, 0.50)


def run_study(n_pages: int, height: int):
    generator = SiteGenerator(seed=42)
    renderer = PageRenderer(width=1080, max_height=height)
    study = UserStudy(StudyConfig(n_raters=151, screenshots_per_rater=20, seed=5))

    screenshots = []
    urls = generator.all_urls()[:n_pages]
    for index, url in enumerate(urls):
        image = renderer.render(generator.page(url, hour=0)).image
        for loss in LOSS_RATES:
            sim = simulate_column_loss(image, loss, seed=100 + index)
            screenshots.extend(
                study.screenshot_stats(index, image, sim.missing, loss)
            )
    records = study.simulate_ratings(screenshots)
    return study, screenshots, records


def test_fig5_user_study(output_dir):
    n_pages = 50 if full_scale() else 12
    height = 2_400 if not full_scale() else 4_000
    study, screenshots, records = run_study(n_pages, height)
    assert len(screenshots) == n_pages * len(LOSS_RATES) * 2
    print(
        f"\nFIG5 study: {n_pages} pages x {len(LOSS_RATES)} loss rates x 2 "
        f"variants = {len(screenshots)} screenshots, "
        f"{len(records) // 2} judgements per question"
    )

    rows = []
    medians: dict[tuple, float] = {}
    for question in ("content", "text"):
        for loss in LOSS_RATES:
            cells = {}
            for interp in (False, True):
                per_page = UserStudy.median_per_page(records, loss, interp, question)
                cells[interp] = float(np.median(per_page))
                medians[(question, loss, interp)] = cells[interp]
            rows.append(
                [
                    question,
                    f"{loss * 100:.0f}%",
                    f"{cells[False]:.1f}",
                    f"{cells[True]:.1f}",
                    f"+{cells[True] - cells[False]:.1f}",
                ]
            )
    print_table(
        "FIG5 median rating per page (0-10 Likert)",
        ["question", "loss", "without interp", "with interp", "gain"],
        rows,
    )

    from repro.report.plots import box_plot

    for question in ("content", "text"):
        groups = {}
        for loss in LOSS_RATES:
            for interp in (False, True):
                key = f"{loss * 100:.0f}%{'+i' if interp else ''}"
                groups[key] = np.array(
                    UserStudy.median_per_page(records, loss, interp, question)
                )
        box_plot(
            groups,
            output_dir / f"fig5_{question}_ratings.svg",
            title=f"Median {question} rating per page (+i = interpolated)",
            y_label="rating (0-10)",
            colors=["#90a4ae", "#e65100"] * len(LOSS_RATES),
        )

    # Paper claim 1: interpolation gains >= ~1 point at every loss rate.
    for question in ("content", "text"):
        for loss in LOSS_RATES:
            gain = medians[(question, loss, True)] - medians[(question, loss, False)]
            assert gain >= 0.9, (question, loss, gain)
    # Paper claim 2: ratings fall monotonically with loss.
    for question in ("content", "text"):
        for interp in (False, True):
            series = [medians[(question, l, interp)] for l in LOSS_RATES]
            assert all(a >= b for a, b in zip(series, series[1:])), series
    # Paper claim 3: at 20% loss, interpolated content is still ~7.
    assert medians[("content", 0.20, True)] >= 5.5
    # Paper claim 4: text is more loss-susceptible than content.
    assert medians[("text", 0.20, True)] <= medians[("content", 0.20, True)]
