"""ABLATION — what each FEC stage buys (Section 3.3 design choices).

The paper picks CRC-32 + inner convolutional (v29) + outer Reed-Solomon
(rs8).  This ablation disables each stage and measures frame survival
across an SNR sweep: the full stack should hold the lowest waterfall,
and each removal should cost dB.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_table
from repro.modem.modem import Modem
from repro.util.rng import derive_rng

PROFILES = ["sonic-ofdm", "sonic-ofdm-no-rs", "sonic-ofdm-no-conv", "sonic-ofdm-no-fec"]
SNRS = [14.0, 10.0, 7.0, 5.0, 3.5]


def run_ablation(n_frames: int) -> dict[str, dict[float, float]]:
    rng = derive_rng(5, "ablation-fec")
    results: dict[str, dict[float, float]] = {}
    for profile in PROFILES:
        modem = Modem(profile)
        payloads = [
            bytes(rng.integers(0, 256, 100, dtype=np.uint8))
            for _ in range(n_frames)
        ]
        wave = modem.transmit_burst(payloads)
        sig_p = float(np.mean(wave**2))
        per_snr = {}
        for snr_db in SNRS:
            noise = rng.normal(
                0, np.sqrt(sig_p / 10 ** (snr_db / 10)), wave.size
            )
            received = modem.receive(wave + noise, frames_per_burst=n_frames)
            ok = sum(f.ok for f in received)
            per_snr[snr_db] = 100.0 * (1 - ok / n_frames)
        results[profile] = per_snr
    return results


def test_ablation_fec_stages():
    results = run_ablation(8)
    rows = [
        [profile] + [f"{results[profile][snr]:.0f}" for snr in SNRS]
        for profile in PROFILES
    ]
    print_table(
        "FEC ablation: frame loss (%) vs audio SNR (dB)",
        ["profile"] + [f"{snr:g} dB" for snr in SNRS],
        rows,
    )
    full = results["sonic-ofdm"]
    no_conv = results["sonic-ofdm-no-conv"]
    no_fec = results["sonic-ofdm-no-fec"]
    # The full stack survives moderate SNR where raw/no-conv collapse.
    assert full[7.0] == 0.0
    assert no_fec[7.0] > 50.0
    # Each stage contributes: totals across the sweep must be ordered.
    total = {p: sum(results[p].values()) for p in PROFILES}
    assert total["sonic-ofdm"] <= total["sonic-ofdm-no-rs"]
    assert total["sonic-ofdm-no-rs"] <= total["sonic-ofdm-no-conv"] + 1e-9
    assert total["sonic-ofdm-no-conv"] <= total["sonic-ofdm-no-fec"] + 1e-9
