"""RATES — measured data-over-sound rates vs the literature (Section 2).

The paper positions SONIC's OFDM profile (~10 kbps class) against
GGwave-style FSK (~128 bps) and RDS (1187.5 bps).  This benchmark
*measures* each modem's goodput through a clean channel instead of
quoting it, plus the FM-chain-limited rate of the SONIC profile.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.modem.audioqr import AudioQrModem
from repro.modem.fsk import FskModem
from repro.modem.gmsk import GmskModem
from repro.modem.modem import Modem
from repro.radio.rds import BIT_RATE as RDS_BIT_RATE, RdsDecoder, RdsEncoder, RdsGroup
from repro.util.rng import derive_rng


def measure_ofdm(profile: str, n_frames: int = 12) -> float:
    modem = Modem(profile)
    rng = derive_rng(1, "rates", profile)
    payloads = [
        bytes(rng.integers(0, 256, 100, dtype=np.uint8)) for _ in range(n_frames)
    ]
    wave = modem.transmit_burst(payloads)
    received = modem.receive(wave, frames_per_burst=n_frames)
    ok = sum(f.ok for f in received)
    assert ok == n_frames, f"{profile} lost frames on a clean channel"
    return ok * 100 * 8 / (wave.size / modem.profile.ofdm.sample_rate)


def measure_fsk(n_bytes: int = 120) -> float:
    modem = FskModem()
    rng = derive_rng(1, "rates-fsk")
    payload = bytes(rng.integers(0, 256, n_bytes, dtype=np.uint8))
    wave = modem.transmit(payload)
    [received] = modem.receive(wave)
    assert received == payload
    return n_bytes * 8 / (wave.size / modem.config.sample_rate)


def measure_gmsk(n_bytes: int = 400) -> float:
    modem = GmskModem()
    rng = derive_rng(1, "rates-gmsk")
    payload = bytes(rng.integers(0, 256, n_bytes, dtype=np.uint8))
    wave = modem.transmit(payload)
    [received] = modem.receive(wave)
    assert received == payload
    return n_bytes * 8 / (wave.size / modem.config.sample_rate)


def measure_audioqr(n_bytes: int = 40) -> float:
    modem = AudioQrModem()
    rng = derive_rng(1, "rates-aqr")
    payload = bytes(rng.integers(0, 256, n_bytes, dtype=np.uint8))
    wave = modem.transmit(payload)
    [received] = modem.receive(wave)
    assert received == payload
    return n_bytes * 8 / (wave.size / modem.config.sample_rate)


def measure_rds(n_groups: int = 20) -> float:
    enc, dec = RdsEncoder(), RdsDecoder()
    groups = [RdsGroup.radiotext(0xAA, i % 16, "DATA") for i in range(n_groups)]
    band = enc.encode(groups)
    decoded = dec.decode(band)
    assert len(decoded) == n_groups
    # 64 info bits per group over the band's duration.
    return len(decoded) * 64 / (band.size / 192_000)


def test_rates_comparison():
    def run():
        return {
            "sonic-ofdm": measure_ofdm("sonic-ofdm"),
            "sonic-ofdm-fast": measure_ofdm("sonic-ofdm-fast"),
            "audible-7k": measure_ofdm("audible-7k"),
            "fsk (ggwave-class)": measure_fsk(),
            "gmsk": measure_gmsk(),
            "audioqr-class": measure_audioqr(),
            "rds": measure_rds(),
        }

    rates = run()
    modem = Modem("sonic-ofdm")
    rows = [
        [
            "sonic-ofdm",
            f"{rates['sonic-ofdm']:.0f}",
            f"{modem.profile.raw_bit_rate():.0f} raw PHY",
            "10 kbps profile (Sec. 3.3)",
        ],
        [
            "sonic-ofdm-fast",
            f"{rates['sonic-ofdm-fast']:.0f}",
            "64-QAM",
            "cable path (Sec. 2: up to 64 kbps on jack)",
        ],
        [
            "audible-7k",
            f"{rates['audible-7k']:.0f}",
            "QPSK",
            "Quiet audible-7k (~7 kbps claim)",
        ],
        [
            "fsk (ggwave-class)",
            f"{rates['fsk (ggwave-class)']:.0f}",
            "16-FSK",
            "GGwave: ~128 bps",
        ],
        [
            "gmsk",
            f"{rates['gmsk']:.0f}",
            "constant envelope",
            "Quiet gmsk profile class",
        ],
        [
            "audioqr-class",
            f"{rates['audioqr-class']:.0f}",
            "17.5-19.5 kHz chirps",
            "AudioQR: ~100 bps, 150 m",
        ],
        ["rds", f"{rates['rds']:.0f}", "57 kHz BPSK", "1187.5 bps standard"],
    ]
    print_table(
        "Measured goodput (bps) per modem, clean channel",
        ["modem", "goodput bps", "notes", "literature"],
        rows,
    )
    # Orderings the related-work section relies on.
    assert rates["sonic-ofdm"] > 10 * rates["fsk (ggwave-class)"]
    assert rates["sonic-ofdm"] > rates["rds"]
    assert rates["sonic-ofdm-fast"] > rates["sonic-ofdm"]
    assert 50 < rates["fsk (ggwave-class)"] < 600
    assert rates["rds"] == pytest.approx(RDS_BIT_RATE * 16 / 26, rel=0.2)
    # The literature's rate ladder: AudioQR < FSK < RDS < GMSK < OFDM.
    assert rates["audioqr-class"] < rates["fsk (ggwave-class)"] * 2
    assert rates["gmsk"] > rates["rds"]
    assert rates["gmsk"] < rates["sonic-ofdm"] * 1.5
