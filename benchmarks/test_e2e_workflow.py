"""E2E — the Figure 3 workflow, end to end.

User-C texts "GET <url> LOC <lat>,<lon>" to the SONIC number; the server
renders the page, queues it on the covering transmitter ahead of the
popularity pushes, and replies with an ACK + ETA; the broadcast reaches
user-C *and* the passive users A and B.  This benchmark runs the whole
system simulation and reports the workflow latencies.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import full_scale, print_table
from repro.core.config import SystemConfig
from repro.core.system import SonicSystem


def run_workflow():
    system = SonicSystem(
        SystemConfig(n_sites=3, render_width=540, max_pixel_height=1_600)
    )
    user_c = system.client("user-c")
    target = system.generator.all_urls()[5]
    request_time = system.clock.now
    user_c.request_page(target, request_time)

    ack_time = delivery_time = None
    for _ in range(1_200):
        system.step(5.0)
        if ack_time is None and user_c.acks:
            ack_time = system.clock.now
        if delivery_time is None and target in user_c.cache:
            delivery_time = system.clock.now
        if delivery_time is not None and ack_time is not None:
            break
    return system, target, request_time, ack_time, delivery_time


def test_e2e_request_workflow():
    system, target, t0, ack_time, delivery_time = run_workflow()
    user_c = system.client("user-c")
    assert ack_time is not None, "no SMS ACK received"
    assert delivery_time is not None, "page never delivered"
    ack = user_c.acks[0]

    rows = [
        ["SMS ACK round trip", f"{ack_time - t0:.0f} s", "seconds (uplink)"],
        ["quoted ETA", f"{ack.eta_seconds:.0f} s", "server estimate"],
        ["page delivered after", f"{delivery_time - t0:.0f} s", "minutes-class downlink"],
    ]
    print_table(f"E2E workflow for {target}", ["stage", "value", "paper"], rows)

    # The requested page outranked the catalog pushes: it arrived before
    # everything else finished, and the ETA was honoured within slack.
    assert delivery_time - t0 < 3_600
    assert ack.url == target

    # Broadcast nature: the passive cable user B got the page too.
    user_b = system.client("user-b")
    assert target in user_b.cache

    # The air user (A) observed real frame losses.
    user_a = system.client("user-a")
    assert user_a.frames_seen > 0
    assert user_a.frame_loss_rate > 0.0


def test_e2e_click_navigation():
    """Click-map browsing: cache hits load instantly, misses go to SMS."""

    def run():
        system = SonicSystem(
            SystemConfig(n_sites=2, render_width=540, max_pixel_height=1_200)
        )
        system.run(seconds=3_600, step_s=5)
        return system

    system = run()
    user_c = system.client("user-c")
    now = system.clock.now
    landing = next(u for u in user_c.cache.urls() if u.endswith("/"))
    bundle = user_c.browser.open(landing, now)
    factor = user_c.profile.scale_factor

    from repro.client.browser import ClickOutcome

    outcomes = []
    for region in bundle.clickmap.regions[:5]:
        result = user_c.browser.click(
            int((region.x + 2) * factor), int((region.y + 2) * factor), now
        )
        outcomes.append(result.outcome)
        if result.outcome == ClickOutcome.CACHE_HIT:
            user_c.browser.back(now)
    hits = sum(o == ClickOutcome.CACHE_HIT for o in outcomes)
    print(f"\nE2E clicks: {len(outcomes)} taps -> {hits} instant cache hits")
    assert hits >= 1
