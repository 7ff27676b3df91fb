"""End-to-end channels: the FM RF link and the acoustic (speaker-to-mic) hop.

Two independent impairments stand between the SONIC server and the bits
in the client app:

1. :class:`FmRadioLink` — modem audio -> FM multiplex -> FM modulation ->
   RF noise set by RSSI -> FM demodulation -> mono audio.  Reproduces the
   paper's Variable-RSSI experiment (Section 4).
2. :class:`AcousticChannel` — the over-the-air gap between an FM radio's
   speaker and the phone's microphone.  Reproduces Figure 4(a): zero loss
   over "cable" (distance 0), growing loss with distance, aggravated by
   uncontrolled speaker/microphone misalignment, and a hard cliff past
   ~1.1 m.

The acoustic hop has one implementation, the chunked
:class:`repro.radio.streams.AcousticStream`; :meth:`AcousticChannel.transmit`
runs it over the whole array as one chunk.  The FM link keeps two:
:meth:`FmRadioLink.transmit` is the whole-array chain the calibrated RSSI
experiments use, and :class:`repro.radio.streams.FmLinkStream` is a
chunk-invariant chain with its own numerics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.radio.fm import FmDemodulator, FmModulator
from repro.radio.multiplex import FmMultiplexer, MultiplexConfig
from repro.util.rng import derive_rng

__all__ = ["FmLinkConfig", "FmRadioLink", "AcousticConfig", "AcousticChannel"]


@dataclass(frozen=True)
class FmLinkConfig:
    """Dimensioning of the simulated FM broadcast chain."""

    audio_rate: float = 48_000.0
    mpx_rate: float = 192_000.0
    rf_rate: float = 384_000.0
    max_deviation_hz: float = 75_000.0
    # Calibrated so the paper's RSSI bands come out of the chain: clean
    # down to -85 dB, fluctuating partial loss to ~-90, dead below.
    noise_floor_dbm: float = -97.0
    audio_headroom: float = 0.9  # modem audio is scaled into this fraction


class FmRadioLink:
    """One FM transmitter-to-tuner hop at a configurable RSSI."""

    def __init__(self, config: FmLinkConfig = FmLinkConfig(), seed: int = 0) -> None:
        self.config = config
        mpx_cfg = MultiplexConfig(
            audio_rate=config.audio_rate, mpx_rate=config.mpx_rate
        )
        self._mux = FmMultiplexer(mpx_cfg)
        self._mod = FmModulator(config.mpx_rate, config.rf_rate, config.max_deviation_hz)
        self._demod = FmDemodulator(
            config.mpx_rate, config.rf_rate, config.max_deviation_hz
        )
        self._seed = seed
        self._calls = 0

    def transmit(
        self,
        audio: np.ndarray,
        rssi_dbm: float,
        rds: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run ``audio`` through the whole FM chain at the given RSSI.

        Returns the mono audio recovered by the receiver, time-aligned
        and scaled to match the input (so the modem can decode it
        directly).  :meth:`transmit_stereo` also carries the stereo
        subchannel.
        """
        cfg = self.config
        audio = np.asarray(audio, dtype=np.float64)
        peak = float(np.max(np.abs(audio))) if audio.size else 0.0
        scale = cfg.audio_headroom / peak if peak > 0 else 1.0
        mpx = self._mux.compose(audio * scale, rds=rds)
        mpx_rx = self._air(mpx, rssi_dbm, "fm-link")
        mono = self._mux.extract_mono(mpx_rx)
        mono = mono[: audio.size] / scale
        if mono.size < audio.size:
            mono = np.concatenate([mono, np.zeros(audio.size - mono.size)])
        return mono

    def transmit_stereo(
        self, mono: np.ndarray, diff: np.ndarray, rssi_dbm: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run two independent data signals through the mono and stereo
        subchannels of one FM carrier (the paper's multi-band future
        work: "using the left and right band of the Stereo channel").

        Returns the recovered (mono, stereo-difference) audio pair.  The
        difference channel sits on a DSB-SC subcarrier at 38 kHz, so it
        pays the well-known stereo SNR penalty and fails at a higher
        RSSI than the mono channel — exactly the trade a deployment
        would see.
        """
        cfg = self.config
        mono = np.asarray(mono, dtype=np.float64)
        diff = np.asarray(diff, dtype=np.float64)
        n = max(mono.size, diff.size)
        mono = np.pad(mono, (0, n - mono.size))
        diff = np.pad(diff, (0, n - diff.size))
        peak = max(float(np.max(np.abs(mono))), float(np.max(np.abs(diff))), 1e-9)
        scale = cfg.audio_headroom / peak
        mpx = self._mux.compose(mono * scale, stereo_diff=diff * scale)
        mpx_rx = self._air(mpx, rssi_dbm, "fm-link-stereo")
        mono_rx = self._mux.extract_mono(mpx_rx)[:n] / scale
        diff_rx = self._mux.extract_stereo_diff(mpx_rx)[:n] / scale
        return mono_rx, diff_rx

    def stream(self, rssi_dbm: float, peak_estimate: float = 1.0):
        """Open a chunked FM hop at ``rssi_dbm``.

        Returns a :class:`repro.radio.streams.FmLinkStream` whose output
        is invariant to how the input is chunked; the whole-array
        :meth:`transmit` stays the reference for the calibrated RSSI
        experiments.
        """
        from repro.radio.streams import FmLinkStream

        return FmLinkStream(self, rssi_dbm, peak_estimate=peak_estimate)

    def received_rds_band(self, audio: np.ndarray, rssi_dbm: float, rds: np.ndarray) -> np.ndarray:
        """Transmit with an RDS subcarrier and return the received 57 kHz band."""
        cfg = self.config
        audio = np.asarray(audio, dtype=np.float64)
        peak = float(np.max(np.abs(audio))) if audio.size else 0.0
        scale = cfg.audio_headroom / peak if peak > 0 else 1.0
        mpx = self._mux.compose(audio * scale, rds=rds)
        return self._mux.extract_rds_band(self._air(mpx, rssi_dbm, "fm-link-rds"))

    def _air(self, mpx: np.ndarray, rssi_dbm: float, rng_name: str) -> np.ndarray:
        """One air hop of the multiplex ``mpx``: modulate, add RF noise at
        ``rssi_dbm``, demodulate.  Takes the link's next RNG call slot,
        drawn from the stream named ``rng_name``."""
        iq = self._mod.modulate(mpx)
        cnr_db = rssi_dbm - self.config.noise_floor_dbm
        noise_power = 10.0 ** (-cnr_db / 10.0)  # carrier amplitude is 1
        rng = derive_rng(self._seed, rng_name, self._calls)
        self._calls += 1
        noise = np.sqrt(noise_power / 2.0) * (
            rng.normal(size=iq.size) + 1j * rng.normal(size=iq.size)
        )
        return self._demod.demodulate(iq + noise)


@dataclass(frozen=True)
class AcousticConfig:
    """Speaker-to-microphone acoustic path parameters.

    Calibrated so the loss quartiles match Figure 4(a): "cable"
    (distance 0) is lossless, ~1 m shows 10-20 % median frame loss, and
    beyond ~1.1 m the link collapses.
    """

    sample_rate: float = 48_000.0
    # Mean-SNR curve: calibrated against Figure 4(a) rather than derived
    # from first principles (the paper's speaker volume, room and phone
    # are unknown).  Near-field level + room reverberation flatten the
    # slope below spherical spreading; past ``cliff_start_m`` the direct
    # path leaves the microphone's pickup pattern and the link collapses,
    # matching the paper's 100 % loss above 1.1 m.
    base_snr_db: float = 12.0  # mean SNR extrapolated to d -> 0 over air
    slope_db_per_m: float = 5.0
    cliff_start_m: float = 1.1
    cliff_db_per_m: float = 25.0
    # Random components.
    misalignment_sigma_db_per_m: float = 1.5  # per-transmission, half-normal
    flutter_sigma_base_db: float = 2.6  # slow in-transmission fading ...
    flutter_sigma_db_per_m: float = 1.3  # ... growing with distance
    flutter_knot_s: float = 0.25  # correlation time of the flutter
    reverb_delays_ms: tuple[float, ...] = (1.5, 4.0, 9.0)
    reverb_gains: tuple[float, ...] = (0.12, 0.06, 0.03)
    cable_snr_db: float = 55.0  # residual noise of the jack/tuner path


class AcousticChannel:
    """Over-the-air hop between an FM radio speaker and a phone microphone."""

    def __init__(self, config: AcousticConfig = AcousticConfig(), seed: int = 0) -> None:
        self.config = config
        self._seed = seed
        self._calls = 0

    def mean_snr_db(self, distance_m: float) -> float:
        """Deterministic part of the SNR-vs-distance curve."""
        cfg = self.config
        if distance_m <= 0:
            return cfg.cable_snr_db
        snr = cfg.base_snr_db - cfg.slope_db_per_m * distance_m
        if distance_m > cfg.cliff_start_m:
            snr -= cfg.cliff_db_per_m * (distance_m - cfg.cliff_start_m)
        return snr

    def effective_snr_db(
        self, distance_m: float, rng: np.random.Generator
    ) -> float:
        """Draw the per-transmission SNR at a given distance.

        On top of the mean curve, speaker/microphone misalignment (which
        the paper explicitly did not control for) costs a half-normal
        penalty whose scale grows with distance.
        """
        cfg = self.config
        if distance_m <= 0:
            return cfg.cable_snr_db
        misalignment = abs(
            float(rng.normal(0.0, cfg.misalignment_sigma_db_per_m * distance_m))
        )
        return self.mean_snr_db(distance_m) - misalignment

    def transmit(self, audio: np.ndarray, distance_m: float) -> np.ndarray:
        """Propagate ``audio`` across ``distance_m`` metres of air.

        ``distance_m == 0`` models the paper's "cable" configuration
        (internal FM tuner or jack cable): near-lossless.  This is
        :meth:`stream` run over ``audio`` as one chunk.
        """
        audio = np.asarray(audio, dtype=np.float64)
        power = float(np.mean(audio**2)) if audio.size else 0.0
        return self.stream(distance_m, audio.size, power).process(audio)

    def stream(
        self, distance_m: float, total_samples: int, signal_power: float
    ):
        """Open a chunked hop across ``distance_m`` metres of air.

        Each open consumes one RNG call slot.  Given the total length and
        whole-signal power up front, the output is bit-identical for any
        chunking (see :class:`repro.radio.streams.AcousticStream`).
        """
        from repro.radio.streams import AcousticStream

        return AcousticStream(self, distance_m, total_samples, signal_power)
