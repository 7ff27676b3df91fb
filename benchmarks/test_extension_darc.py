"""EXTENSION — SONIC pages over the DARC band (Figure 2's top lane).

The paper names DARC among the bands that could raise SONIC's rate.  At
16 kbps the 76 kHz subcarrier outruns the mono-channel OFDM profile and
never touches the audio program — but it demands a stronger signal,
because FM discriminator noise grows quadratically with subcarrier
frequency.  Both effects are measured here through the full FM chain.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_table
from repro.radio.darc import DarcChannel
from repro.radio.fm import FmDemodulator, FmModulator
from repro.radio.multiplex import FmMultiplexer
from repro.util.rng import derive_rng


def run(payload_len: int):
    channel = DarcChannel()
    rng = derive_rng(13, "darc-ext")
    payload = bytes(rng.integers(0, 256, payload_len, dtype=np.uint8))
    wave = channel.encode(payload)
    mux = FmMultiplexer()
    mono = 0.3 * np.sin(
        2 * np.pi * 1_000 * np.arange(int(wave.size / 4)) / 48_000
    )
    mpx = mux.compose(mono, darc=wave)
    mod, dem = FmModulator(), FmDemodulator()
    iq = mod.modulate(mpx)

    results = {}
    for rssi in (-65.0, -72.0, -78.0, -84.0):
        cnr_db = rssi + 97.0  # the FmLinkConfig noise floor
        noise = np.sqrt(10 ** (-cnr_db / 10) / 2) * (
            rng.normal(size=iq.size) + 1j * rng.normal(size=iq.size)
        )
        band = mux.extract_darc_band(dem.demodulate(iq + noise))
        decoded = channel.decode(band)
        results[rssi] = decoded == [payload]
    rate = payload_len * 8 / (wave.size / 192_000)
    return results, rate


def test_extension_darc_band():
    results, rate = run(600)
    rows = [
        [f"{rssi:.0f}", "delivered" if ok else "lost"]
        for rssi, ok in results.items()
    ]
    print_table(
        f"DARC 76 kHz data channel ({rate:.0f} bps goodput) vs RSSI",
        ["RSSI dB", "payload"],
        rows,
    )
    # Above the OFDM mono profile's rate...
    assert rate > 10_000
    # ...but needs a healthier signal than the mono channel, which works
    # down to -85 dB (see the RSSI benchmark): DARC dies earlier.
    assert results[-65.0]
    assert not results[-84.0]
