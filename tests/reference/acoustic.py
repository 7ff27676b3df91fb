"""Whole-array reference for the acoustic (speaker-to-microphone) hop.

``acoustic_transmit_ref`` is the batch body :meth:`AcousticChannel.transmit`
had before it became one chunk of :class:`repro.radio.streams.AcousticStream`:
room reverb on the whole array, a flutter gain interpolated from knots
drawn for the whole length, then one whole-length noise draw.  Tests pin
both ``transmit`` and the chunked stream to it bit for bit, including
the channel's RNG call slot (one per call).
"""

from __future__ import annotations

import numpy as np

from repro.radio.channels import AcousticChannel
from repro.util.rng import derive_rng


def acoustic_transmit_ref(
    channel: AcousticChannel, audio: np.ndarray, distance_m: float
) -> np.ndarray:
    """Propagate ``audio`` across ``distance_m`` metres of air."""
    cfg = channel.config
    audio = np.asarray(audio, dtype=np.float64)
    rng = derive_rng(channel._seed, "acoustic", channel._calls)
    channel._calls += 1

    out = audio.copy()
    if distance_m > 0:
        # Early reflections from the room.
        for delay_ms, gain in zip(cfg.reverb_delays_ms, cfg.reverb_gains):
            shift = int(delay_ms * 1e-3 * cfg.sample_rate)
            if 0 < shift < out.size:
                echo = np.zeros_like(out)
                echo[shift:] = gain * audio[: audio.size - shift]
                out = out + echo
        # Slow gain flutter: neither the phone nor the radio is held
        # still, so the effective gain wanders during a transmission.
        out = out * _flutter_gain_ref(channel, out.size, distance_m, rng)
    snr_db = channel.effective_snr_db(distance_m, rng)
    signal_power = float(np.mean(audio**2)) if audio.size else 0.0
    noise_power = signal_power / (10.0 ** (snr_db / 10.0))
    out = out + rng.normal(0.0, np.sqrt(max(noise_power, 0.0)), out.size)
    return out


def _flutter_gain_ref(
    channel: AcousticChannel,
    n_samples: int,
    distance_m: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Smooth random gain trajectory (linear interpolation of knots)."""
    cfg = channel.config
    sigma = cfg.flutter_sigma_base_db + cfg.flutter_sigma_db_per_m * distance_m
    knot_samples = max(1, int(cfg.flutter_knot_s * cfg.sample_rate))
    n_knots = n_samples // knot_samples + 2
    knots_db = rng.normal(0.0, sigma, n_knots)
    x = np.arange(n_samples) / knot_samples
    gain_db = np.interp(x, np.arange(n_knots), knots_db)
    return 10.0 ** (gain_db / 20.0)
