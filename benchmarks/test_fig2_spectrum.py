"""FIG2 — the FM baseband spectrum occupancy.

Paper (Figure 2): the FM multiplex stacks the mono program (30 Hz -
15 kHz, where SONIC puts its 9.2 kHz-centred data), the 19 kHz stereo
pilot, the L-R stereo band around 38 kHz, and the RDS subcarrier at
57 kHz.  This benchmark composes a full multiplex carrying SONIC data in
*every* band and verifies each service sits where the figure draws it.
A PGM spectrogram of the composed baseband is written for inspection.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_table
from repro.dsp.spectrum import band_power_db
from repro.imaging.pnm import write_pgm
from repro.modem.modem import Modem
from repro.radio.multiplex import FmMultiplexer
from repro.radio.rds import RdsEncoder
from repro.util.rng import derive_rng

BANDS = [
    ("mono audio (SONIC OFDM)", 7_000, 11_500),
    ("mono band edge", 15_500, 18_000),
    ("19 kHz pilot", 18_800, 19_200),
    ("stereo L-R (2nd burst)", 30_000, 46_000),
    ("RDS 57 kHz", 55_000, 59_000),
    ("guard above RDS", 62_000, 70_000),
]


def compose_full_multiplex():
    modem = Modem("sonic-ofdm")
    rng = derive_rng(12, "fig2")
    mono = modem.transmit_burst(
        [bytes(rng.integers(0, 256, 100, dtype=np.uint8)) for _ in range(3)]
    )
    diff = modem.transmit_burst(
        [bytes(rng.integers(0, 256, 100, dtype=np.uint8)) for _ in range(3)]
    )
    n = max(mono.size, diff.size)
    mono = np.pad(mono, (0, n - mono.size))
    diff = np.pad(diff, (0, n - diff.size))
    rds = RdsEncoder().encode_text(0x50A1, "SONIC ON EVERY SUBCARRIER")
    mux = FmMultiplexer()
    mpx = mux.compose(mono / np.max(np.abs(mono)), stereo_diff=diff / np.max(np.abs(diff)), rds=rds)
    return mpx


def spectrogram_pgm(mpx: np.ndarray, path, n_fft: int = 2_048) -> None:
    hop = n_fft // 2
    frames = []
    window = np.hanning(n_fft)
    for start in range(0, mpx.size - n_fft, hop):
        spectrum = np.abs(np.fft.rfft(mpx[start : start + n_fft] * window))
        frames.append(20 * np.log10(spectrum + 1e-9))
    img = np.array(frames).T[::-1]  # frequency on y (low at bottom)
    lo, hi = np.percentile(img, [5, 99.5])
    scaled = np.clip((img - lo) / max(hi - lo, 1e-9), 0, 1)
    write_pgm(path, (scaled * 255).astype(np.uint8))


def test_fig2_spectrum(output_dir):
    mpx = compose_full_multiplex()
    spectrogram_pgm(mpx, output_dir / "fig2_fm_baseband_spectrogram.pgm")

    fs = 192_000.0
    noise_floor = band_power_db(mpx, fs, 80_000, 90_000)
    rows = []
    powers = {}
    for label, lo, hi in BANDS:
        p = band_power_db(mpx, fs, lo, hi)
        powers[label] = p
        rows.append([label, f"{lo / 1000:.1f}-{hi / 1000:.1f} kHz", f"{p - noise_floor:+.0f} dB"])
    print_table(
        "FIG2 baseband occupancy (power above the empty-spectrum floor)",
        ["service", "band", "rel. power"],
        rows,
    )

    # Every occupied service band stands well above the empty bands.
    for label in ("mono audio (SONIC OFDM)", "19 kHz pilot", "stereo L-R (2nd burst)", "RDS 57 kHz"):
        assert powers[label] - noise_floor > 40, label
    # The guard bands hold only filter skirts (>= 25 dB below services).
    for guard in ("mono band edge", "guard above RDS"):
        assert powers[guard] - noise_floor < 30, guard
        assert powers["mono audio (SONIC OFDM)"] - powers[guard] > 25, guard
