"""RSSI — frame loss across received signal strength (Section 4).

Paper ("Variable RSSI"): with the client in cable mode behind a TR508
transmitter, walking the RSSI from -65 to -90 dB in ~5 dB steps gives
*no* frame loss down to -85 dB, a fluctuating 2-15 % loss in the
-85..-90 dB band, and no frames at all below -90 dB.  The whole sweep
runs through the real OFDM modem + FM multiplex + discriminator chain.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import full_scale, print_table
from repro.modem.modem import Modem
from repro.radio.channels import FmRadioLink
from repro.radio.propagation import PropagationModel
from repro.util.rng import derive_rng

RSSI_STEPS = [-65.0, -70.0, -75.0, -80.0, -85.0, -87.5, -90.0, -92.5]


def paper_expectation(rssi: float) -> str:
    if rssi >= -85.0:
        return "0%"
    if rssi >= -90.0:
        return "2-15% fluctuating"
    return "no frames"


def run_rssi_sweep(reps: int, burst_size: int) -> dict[float, list[float]]:
    modem = Modem("sonic-ofdm")
    rng = derive_rng(77, "rssi-payloads")
    payloads = [
        bytes(rng.integers(0, 256, 100, dtype=np.uint8)) for _ in range(burst_size)
    ]
    wave = modem.transmit_burst(payloads)
    losses: dict[float, list[float]] = {}
    jitter = derive_rng(77, "rssi-jitter")
    for rssi in RSSI_STEPS:
        link = FmRadioLink(seed=int(-rssi * 10))
        per_rep = []
        for _ in range(reps):
            # Small per-repetition shadowing: the paper's experimenters
            # walked the receiver, so each point fluctuates.
            observed = rssi + float(jitter.normal(0.0, 0.75))
            received = modem.receive(
                link.transmit(wave, observed), frames_per_burst=burst_size
            )
            ok = sum(f.ok for f in received)
            per_rep.append(100.0 * (1 - ok / burst_size))
        losses[rssi] = per_rep
    return losses


def test_rssi_sweep():
    reps = 6 if full_scale() else 3
    burst = 8 if full_scale() else 6
    losses = run_rssi_sweep(reps, burst)
    model = PropagationModel()
    rows = []
    for rssi in RSSI_STEPS:
        values = np.array(losses[rssi])
        rows.append(
            [
                f"{rssi:.1f}",
                f"{model.distance_for_rssi(rssi):.0f} m",
                f"{values.min():.0f}",
                f"{np.median(values):.0f}",
                f"{values.max():.0f}",
                paper_expectation(rssi),
            ]
        )
    print_table(
        "RSSI sweep: frame loss (%) through the FM chain",
        ["RSSI dB", "TR508 dist", "min", "median", "max", "paper"],
        rows,
    )
    # The paper's three bands.
    for rssi in (-65.0, -70.0, -75.0, -80.0, -85.0):
        assert np.median(losses[rssi]) == 0.0, rssi
    transition = losses[-87.5] + losses[-90.0]
    # Fluctuating partial loss somewhere in the -85..-90 band.
    assert any(v > 0.0 for v in transition)
    assert any(v < 100.0 for v in transition)
    assert np.median(losses[-92.5]) > 90.0  # dead below -90
