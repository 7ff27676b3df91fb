"""FIG4C — broadcast backlog over time vs rate and corpus size.

Paper (Figure 4(c)): with 100 pages re-rendered hourly over three days,
a 10 kbps channel can never drain its queue (broadcast-only regime),
20/40 kbps occasionally reach zero, backlog stays bounded (~25-30 MB
peaks), the daily churn pattern repeats, and N=200 at 20 kbps behaves
like N=100 at 10 kbps.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import full_scale, print_table
from repro.sim.workload import BroadcastWorkload, WorkloadConfig

CURVES = [
    ("10kbps N:100", 10_000, 100),
    ("20kbps N:100", 20_000, 100),
    ("40kbps N:100", 40_000, 100),
    ("20kbps N:200", 20_000, 200),
]
PAPER_NOTES = {
    "10kbps N:100": "never drains",
    "20kbps N:100": "occasionally drains",
    "40kbps N:100": "frequently drains",
    "20kbps N:200": "like 10kbps N:100",
}


def run_curves(n_hours: int):
    results = {}
    for label, rate, n_pages in CURVES:
        workload = BroadcastWorkload(
            WorkloadConfig(rate_bps=rate, n_pages=n_pages, n_hours=n_hours)
        )
        results[label] = workload.run()
    return results


def test_fig4c_backlog(output_dir):
    n_hours = 72 if full_scale() else 48  # the paper plots 48 h of 72
    results = run_curves(n_hours)

    rows = []
    for label, _, _ in CURVES:
        res = results[label]
        rows.append(
            [
                label,
                f"{res.peak_backlog_mb():.1f}",
                f"{res.backlog_mb.mean():.1f}",
                f"{res.fraction_time_empty() * 100:.0f}%",
                f"{np.median(res.enqueued_mb_per_hour):.1f}",
                PAPER_NOTES[label],
            ]
        )
    print_table(
        f"FIG4C broadcast backlog over {n_hours} h",
        ["curve", "peak MB", "mean MB", "empty", "MB/h in", "paper"],
        rows,
    )

    from repro.report.plots import line_chart

    line_chart(
        {
            label: (results[label].times_hours, results[label].backlog_mb)
            for label, _, _ in CURVES
        },
        output_dir / "fig4c_backlog.svg",
        title="Data to broadcast over time",
        x_label="time (hours)",
        y_label="backlog (MB)",
    )
    r10 = results["10kbps N:100"]
    r20 = results["20kbps N:100"]
    r40 = results["40kbps N:100"]
    r20n200 = results["20kbps N:200"]
    # 10 kbps is broadcast-only: the queue (almost) never reaches zero.
    assert r10.fraction_time_empty() < 0.10
    # Higher rates drain.
    assert r40.fraction_time_empty() > r20.fraction_time_empty() > r10.fraction_time_empty()
    # Backlog bounded (scalability claim): no runaway growth.
    half = r10.backlog_mb.size // 2
    assert r10.backlog_mb[half:].max() < 2.0 * r10.backlog_mb[:half].max()
    # Peaks in the paper's ~25-30 MB class.
    assert 10 < r10.peak_backlog_mb() < 60
    # Doubling both content and rate lands back in the saturated regime.
    assert r20n200.fraction_time_empty() < 0.10
    # Daily periodicity: correlate day-1 and day-2 backlog shapes.
    day = r10.backlog_mb.size // (n_hours // 24)
    day1, day2 = r10.backlog_mb[:day], r10.backlog_mb[day : 2 * day]
    corr = np.corrcoef(day1, day2)[0, 1]
    print(f"\nFIG4C day-over-day backlog correlation: {corr:.2f} (pattern repeats)")
    assert corr > 0.3
