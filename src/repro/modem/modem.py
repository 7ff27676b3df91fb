"""High-level modem API: byte frames <-> audio waveforms.

A transmitted frame is laid out as::

    [chirp preamble][guard][training symbol][payload OFDM symbols]

The receiver finds preambles by matched filtering, demodulates each frame
that follows, runs the FEC pipeline, and reports per-frame outcomes.  A
frame whose FEC fails is reported with ``payload=None`` — that is what
the paper counts as a *lost frame*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.chirp import linear_chirp
from repro.modem.frame import FrameCodec
from repro.modem.ofdm import OfdmPhy, strided_symbol_windows
from repro.modem.profiles import ModemProfile, get_profile

__all__ = ["Modem", "ReceivedFrame"]


@dataclass(frozen=True)
class ReceivedFrame:
    """One detected frame and its decode outcome."""

    payload: bytes | None
    start_index: int
    snr_db: float
    sync_score: float

    @property
    def ok(self) -> bool:
        """True when the frame decoded and passed its CRC."""
        return self.payload is not None


class Modem:
    """Symmetric transmitter/receiver for one profile.

    >>> modem = Modem()
    >>> wave = modem.transmit_frame(bytes(100))
    >>> [frame.ok for frame in modem.receive(wave)]
    [True]
    """

    def __init__(self, profile: ModemProfile | str = "sonic-ofdm") -> None:
        if isinstance(profile, str):
            profile = get_profile(profile)
        self.profile = profile
        self.phy = OfdmPhy(profile.ofdm)
        self.codec = FrameCodec(profile.fec)
        self._preamble = linear_chirp(
            profile.preamble_f0_hz,
            profile.preamble_f1_hz,
            profile.preamble_duration_s,
            profile.ofdm.sample_rate,
            amplitude=2.0 * OfdmPhy.TARGET_RMS,
        )
        self._n_payload_symbols = self.phy.n_symbols_for_bits(self.codec.frame_bits)

    @property
    def frame_payload_size(self) -> int:
        """Payload bytes carried per frame (100 for SONIC)."""
        return self.profile.fec.payload_size

    @property
    def frame_samples(self) -> int:
        """Audio samples occupied by one complete frame."""
        return (
            self._preamble.size
            + self.profile.guard_samples
            + (self._n_payload_symbols + 1) * self.profile.ofdm.symbol_len
        )

    @property
    def frame_duration_s(self) -> float:
        return self.frame_samples / self.profile.ofdm.sample_rate

    # -- transmit ----------------------------------------------------------

    def transmit_frame(self, payload: bytes) -> np.ndarray:
        """Encode one payload into an audio waveform."""
        return self.transmit_burst([payload])

    def transmit_burst(self, payloads: list[bytes]) -> np.ndarray:
        """Encode several payloads behind a *single* preamble + training.

        Burst mode amortises the synchronisation overhead: each frame is
        still independently FEC-protected and CRC-gated, so losses remain
        per-frame, but the preamble cost is paid once per burst.
        """
        if not payloads:
            raise ValueError("burst must contain at least one payload")
        guard = np.zeros(self.profile.guard_samples)
        # Batch path: every frame's FEC runs in one stacked pass, and the
        # per-frame bit vectors are padded to whole OFDM symbols so a
        # single modulate_bits call emits the same samples as per-frame
        # modulation would.
        bits = self.codec.encode_batch(payloads)
        per_sym = self.profile.ofdm.bits_per_symbol
        padded = np.zeros(
            (len(payloads), self._n_payload_symbols * per_sym), dtype=np.uint8
        )
        padded[:, : bits.shape[1]] = bits
        return np.concatenate(
            [
                self._preamble,
                guard,
                self.phy.training_waveform(),
                self.phy.modulate_bits(padded.reshape(-1)),
            ]
        )

    def burst_samples(self, n_frames: int) -> int:
        """Audio samples occupied by an ``n_frames`` burst."""
        return (
            self._preamble.size
            + self.profile.guard_samples
            + (n_frames * self._n_payload_symbols + 1) * self.profile.ofdm.symbol_len
        )

    def broadcast_samples(self, n_frames: int, frames_per_burst: int = 16) -> int:
        """Exact audio samples of an ``n_frames`` bursted broadcast.

        One ``guard_samples`` silence block separates consecutive bursts;
        there is no trailing guard after the final burst, matching what
        :func:`repro.core.pipeline.frames_to_waveform` and the streaming
        :class:`~repro.core.stream.WaveformSource` emit.
        """
        if n_frames <= 0:
            return 0
        full, rem = divmod(n_frames, frames_per_burst)
        total = full * self.burst_samples(frames_per_burst)
        if rem:
            total += self.burst_samples(rem)
        n_bursts = full + (1 if rem else 0)
        return total + (n_bursts - 1) * self.profile.guard_samples

    def burst_net_bit_rate(self, n_frames: int) -> float:
        """Payload goodput of an ``n_frames`` burst (no trailing guard)."""
        bits = n_frames * self.frame_payload_size * 8
        return bits / (self.burst_samples(n_frames) / self.profile.ofdm.sample_rate)

    # -- receive ----------------------------------------------------------

    def receive(
        self,
        samples: np.ndarray,
        sync_threshold: float = 0.35,
        frames_per_burst: int | None = None,
    ) -> list[ReceivedFrame]:
        """Detect and decode every frame present in ``samples``.

        Handles both single-frame transmissions and bursts.  When the
        caller knows the burst size (SONIC's broadcast schedule uses a
        fixed ``frames_per_burst``), passing it makes burst delineation
        exact; otherwise the frame count behind each preamble is inferred
        from how many OFDM symbol slots carry in-band energy.

        This is the whole-capture wrapper over the chunked engine: the
        capture is fed to a :class:`~repro.modem.streaming
        .StreamingReceiver` in one push, so batch and streaming decodes
        share one code path and stay bit-identical by construction.
        """
        from repro.modem.streaming import StreamingReceiver

        receiver = StreamingReceiver(
            self, sync_threshold=sync_threshold, frames_per_burst=frames_per_burst
        )
        results = receiver.push(np.asarray(samples, dtype=np.float64))
        results += receiver.finish()
        return results

    def _count_active_symbols(
        self, samples: np.ndarray, frame_start: int, max_symbols: int
    ) -> int:
        """Count contiguous symbol slots (after training) with in-band energy."""
        cfg = self.profile.ofdm
        bins = cfg.active_bins
        first = frame_start + cfg.cp_len
        # Band energy of training + payload slots via one strided view and
        # one batched FFT; slots whose window overruns the buffer score 0.
        n_full = (samples.size - first - cfg.fft_size) // cfg.symbol_len + 1
        n_full = max(0, min(max_symbols + 1, n_full))
        energies = np.zeros(max_symbols + 1)
        if n_full:
            windows = strided_symbol_windows(
                samples, first, n_full, cfg.symbol_len, cfg.fft_size
            )
            spectra = np.fft.rfft(windows, axis=1)[:, bins]
            energies[:n_full] = np.sum(np.abs(spectra) ** 2, axis=1)

        reference = energies[0]  # training symbol
        if reference <= 0:
            return 0
        above = np.nonzero(energies[1:] >= 0.25 * reference)[0]
        if above.size == 0:
            return 0
        # Bursts are contiguous, so everything up to the last energetic
        # slot is payload — single flutter dips must not truncate it.
        return int(above[-1]) + 1
