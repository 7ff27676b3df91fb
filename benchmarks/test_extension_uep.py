"""EXTENSION — unequal error protection for important page regions.

The paper flags this as the obvious optimisation: "higher error
protection for important parts of an image/webpage".  At the same frame
loss rate, repeating the frames that cover the fold and the text rows
slashes the damage where readers look, at a quantified airtime premium.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_table
from repro.transport.partition import ColumnTransport
from repro.transport.uep import (
    UepPolicy,
    importance_weighted_damage,
    schedule_with_uep,
)
from repro.util.rng import derive_rng
from repro.web.render import PageRenderer
from repro.web.sites import SiteGenerator

LOSS = 0.15


def run():
    generator = SiteGenerator(seed=42)
    image = PageRenderer(width=1080, max_height=3_000).render(
        generator.page(generator.all_urls()[0], 0)
    ).image
    transport = ColumnTransport("rle")
    frames = transport.partition(image, page_id=1)
    policy = UepPolicy(fold_rows=1_000, repeats=2)

    rng = derive_rng(11, "uep")
    outcomes = {}
    for label, schedule in (
        ("equal protection", list(frames)),
        ("UEP (2x important)", schedule_with_uep(frames, image, policy)),
    ):
        # Drop a uniform fraction of *transmitted* frames; duplicates
        # give important frames two independent survival chances.
        kept = [f for f in schedule if rng.random() >= LOSS]
        received, missing = transport.reassemble(kept, image.shape[:2])
        outcomes[label] = {
            "airtime": len(schedule),
            "overall": float(missing.mean()),
            "important": importance_weighted_damage(image, missing, policy),
        }
    return outcomes


def test_extension_uep():
    outcomes = run()
    rows = [
        [
            label,
            f"{v['airtime']}",
            f"{v['overall'] * 100:.1f}%",
            f"{v['important'] * 100:.1f}%",
        ]
        for label, v in outcomes.items()
    ]
    print_table(
        f"UEP extension at {LOSS * 100:.0f}% frame loss",
        ["scheme", "frames on air", "pixels lost", "important pixels lost"],
        rows,
    )
    equal = outcomes["equal protection"]
    uep = outcomes["UEP (2x important)"]
    # UEP protects what matters...
    assert uep["important"] < equal["important"] * 0.4
    # ...at a bounded airtime premium (only important frames repeat).
    assert uep["airtime"] < equal["airtime"] * 2.1
