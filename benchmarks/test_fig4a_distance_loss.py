"""FIG4A — frame-loss rate vs radio-to-receiver air distance.

Paper (Figure 4(a)): no loss over "cable" (internal tuner or jack),
10-20 % median loss around one metre of speaker-to-microphone air gap,
and 100 % loss above ~1.1 m, with wide per-repetition spread because
speaker/mic alignment was not controlled.  Each experiment is repeated
10 times.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import full_scale, print_table
from repro.modem.modem import Modem
from repro.radio.channels import AcousticChannel
from repro.util.rng import derive_rng

DISTANCES = [("cable", 0.0), ("10cm", 0.1), ("20cm", 0.2), ("50cm", 0.5),
             ("1m", 1.0), ("1.1m", 1.1)]
PAPER_MEDIANS = {"cable": 0, "10cm": 2, "20cm": 4, "50cm": 8, "1m": 15, "1.1m": 22}


def run_distance_sweep(reps: int, frames_per_rep: int) -> dict[str, list[float]]:
    modem = Modem("sonic-ofdm")
    rng = derive_rng(2024, "fig4a-payloads")
    burst_size = 8
    n_bursts = frames_per_rep // burst_size
    payloads = [
        bytes(rng.integers(0, 256, 100, dtype=np.uint8)) for _ in range(burst_size)
    ]
    waves = [modem.transmit_burst(payloads) for _ in range(n_bursts)]
    channel = AcousticChannel(seed=41)

    losses: dict[str, list[float]] = {}
    for label, distance in DISTANCES:
        per_rep = []
        for _rep in range(reps):
            ok = total = 0
            for wave in waves:
                received = modem.receive(
                    channel.transmit(wave, distance), frames_per_burst=burst_size
                )
                ok += sum(f.ok for f in received)
                total += burst_size
            per_rep.append(100.0 * (1 - ok / total))
        losses[label] = per_rep
    return losses


def test_fig4a_distance_loss(output_dir):
    reps = 10 if full_scale() else 5
    frames = 32 if full_scale() else 16
    losses = run_distance_sweep(reps, frames)
    rows = []
    for label, _ in DISTANCES:
        values = np.array(losses[label])
        rows.append(
            [
                label,
                f"{np.percentile(values, 25):.0f}",
                f"{np.median(values):.0f}",
                f"{np.percentile(values, 75):.0f}",
                PAPER_MEDIANS[label],
            ]
        )
    print_table(
        "FIG4A frame loss (%) vs air distance",
        ["distance", "q25", "median", "q75", "paper-median"],
        rows,
    )
    from repro.report.plots import box_plot

    box_plot(
        {label: np.array(losses[label]) for label, _ in DISTANCES},
        output_dir / "fig4a_distance_loss.svg",
        title="Frame loss vs radio-to-receiver distance",
        y_label="frame loss (%)",
    )
    # Shape assertions: the paper's three regimes.
    assert np.median(losses["cable"]) == 0.0
    assert np.median(losses["1m"]) > np.median(losses["20cm"])
    assert np.median(losses["1m"]) >= 5.0


def test_fig4a_collapse_beyond_1m():
    """Above ~1.1 m the paper observes 100 % loss."""

    def run() -> float:
        modem = Modem("sonic-ofdm")
        rng = derive_rng(2024, "fig4a-far")
        payloads = [
            bytes(rng.integers(0, 256, 100, dtype=np.uint8)) for _ in range(8)
        ]
        wave = modem.transmit_burst(payloads)
        channel = AcousticChannel(seed=43)
        ok = total = 0
        for _ in range(4):
            received = modem.receive(channel.transmit(wave, 1.4), frames_per_burst=8)
            ok += sum(f.ok for f in received)
            total += 8
        return 100.0 * (1 - ok / total)

    loss = run()
    print(f"\nFIG4A  loss at 1.4 m: {loss:.0f}%  (paper: 100% above 1.1 m)")
    assert loss > 80.0
