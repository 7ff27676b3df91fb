"""EXTENSION — multi-band rate scaling over one FM carrier (Section 4).

"We envision that other bands can be used to increase the data rate,
e.g., using the left and right band of the Stereo channel ... We left
this exploration as future work."  This benchmark carries *two*
independent modem bursts on a single carrier — one in the mono channel,
one on the 38 kHz stereo-difference subcarrier — and measures the
aggregate goodput and the stereo channel's earlier failure point.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_table
from repro.modem.modem import Modem
from repro.radio.channels import FmRadioLink
from repro.util.rng import derive_rng


def run(n_frames: int):
    modem = Modem("sonic-ofdm")
    rng = derive_rng(9, "multiband")
    mono_payloads = [
        bytes(rng.integers(0, 256, 100, dtype=np.uint8)) for _ in range(n_frames)
    ]
    diff_payloads = [
        bytes(rng.integers(0, 256, 100, dtype=np.uint8)) for _ in range(n_frames)
    ]
    mono_wave = modem.transmit_burst(mono_payloads)
    diff_wave = modem.transmit_burst(diff_payloads)

    results = {}
    for rssi in (-65.0, -75.0, -82.0):
        link = FmRadioLink(seed=int(-rssi))
        mono_rx, diff_rx = link.transmit_stereo(mono_wave, diff_wave, rssi)
        mono_ok = sum(
            f.ok for f in modem.receive(mono_rx, frames_per_burst=n_frames)
        )
        diff_ok = sum(
            f.ok for f in modem.receive(diff_rx, frames_per_burst=n_frames)
        )
        results[rssi] = (mono_ok, diff_ok)
    duration = mono_wave.size / modem.profile.ofdm.sample_rate
    return results, n_frames, duration


def test_extension_stereo_multiband():
    results, n_frames, duration = run(6)
    single_rate = n_frames * 800 / duration
    rows = []
    for rssi, (mono_ok, diff_ok) in results.items():
        agg = (mono_ok + diff_ok) * 800 / duration
        rows.append(
            [
                f"{rssi:.0f}",
                f"{mono_ok}/{n_frames}",
                f"{diff_ok}/{n_frames}",
                f"{agg:.0f}",
                f"{agg / single_rate:.2f}x",
            ]
        )
    print_table(
        "Stereo multi-band extension: two bursts on one FM carrier",
        ["RSSI dB", "mono frames", "stereo frames", "goodput bps", "vs mono-only"],
        rows,
    )
    # At a strong signal the second band roughly doubles the rate.
    mono_ok, diff_ok = results[-65.0]
    assert mono_ok == n_frames
    assert diff_ok == n_frames
    # The stereo subchannel degrades before the mono channel does.
    weak_mono, weak_diff = results[-82.0]
    assert weak_mono >= weak_diff
