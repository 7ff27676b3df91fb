"""Stateful chunk-at-a-time receiver: the streaming half of the modem.

A SONIC phone tunes into a *continuous* broadcast — it never holds the
whole capture in memory.  :class:`StreamingReceiver` accepts audio in
arbitrary chunks (a single sample up to the full capture), searches for
chirp preambles across chunk boundaries, buffers partial bursts until
they are decodable, and emits :class:`~repro.modem.modem.ReceivedFrame`
objects with *absolute* ``start_index`` accounting — bit-for-bit the
frames :meth:`Modem.receive` returns on the concatenated capture, for
any chunk size.  Memory stays O(burst + correlator block), not
O(broadcast).

Parity argument, in brief:

* preamble scores are chunk-invariant by construction (fixed absolute
  blocks in :class:`~repro.dsp.chirp.StreamingCorrelator`), and greedy
  peak selection decomposes across below-threshold gaps
  (:class:`~repro.dsp.chirp.StreamingPeakDetector`);
* a burst at peak *i* is decoded exactly when its ``limit`` — the next
  peak's position, or the capture end — is known, using the same
  arithmetic as the batch loop on the same sample values; in
  ``frames_per_burst`` mode it is decoded *early* once no future peak
  can change the outcome (every undetected position already lies beyond
  the samples the burst needs);
* FEC decoding is row-independent, so per-burst ``decode_batch`` calls
  equal the batch path's one whole-capture call.

:meth:`Modem.receive` is a thin wrapper over this class.  What it shares
with the message modems' receiver (:mod:`repro.modem.message`) — the
correlator and peak detector, the kept samples and their trim, the
end-of-capture flush — is one :class:`SyncWindow`; each receiver adds
only its decode step.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.dsp.chirp import StreamingCorrelator, StreamingPeakDetector

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.modem.modem import Modem, ReceivedFrame

__all__ = ["SyncWindow", "StreamingReceiver"]


class SyncWindow:
    """The part of a chunk-fed capture that a decode can still read.

    It runs a template's :class:`StreamingCorrelator` and
    :class:`StreamingPeakDetector` over every chunk, keeps the samples
    from the oldest position a decode may still read (``samples``, whose
    first sample is absolute index ``start``), and queues the finalised
    peaks (``peaks``, ``(position, score)`` in position order) until the
    receiver's decode step pops them.  ``push`` and ``finish`` call that
    step as ``drain(eos)`` and return what it returns.

    The trim is one rule for every receiver: keep from the oldest queued
    peak, else from the :attr:`horizon`.  A queued peak precedes every
    pending candidate and the detector's watermark, so nothing left of
    it can be needed.
    """

    def __init__(self, template: np.ndarray, threshold: float) -> None:
        self._correlator = StreamingCorrelator(template)
        self._detector = StreamingPeakDetector(
            threshold, self._correlator.template_len
        )
        # samples is a view of the filled part of _store, which grows by
        # doubling and ends at _hi.
        self._store = self.samples = np.zeros(0)
        self._hi = 0
        self.start = 0
        self.peaks: deque[tuple[int, float]] = deque()
        self._finished = False
        self.total_pushed = 0
        self.max_buffer_samples = 0

    @property
    def horizon(self) -> int:
        """Lowest position at which a peak not yet queued can appear."""
        pending = self._detector.pending_min
        return pending if pending is not None else self._detector.watermark

    def push(self, chunk: np.ndarray, drain: Callable[[bool], list]) -> list:
        """Take the next chunk, then ``drain(False)``, then trim."""
        if self._finished:
            raise RuntimeError("receiver already finished")
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.size:
            self.total_pushed += chunk.size
            self._append(chunk)
        self.peaks.extend(self._detector.push(*self._correlator.push(chunk)))
        out = drain(False)
        keep_from = self.peaks[0][0] if self.peaks else self.horizon
        cut = keep_from - self.start
        if cut > 0:
            self.samples = self.samples[cut:]
            self.start = keep_from
        self.max_buffer_samples = max(self.max_buffer_samples, self.samples.size)
        return out

    def finish(self, drain: Callable[[bool], list]) -> list:
        """Score the capture's tail, ``drain(True)``, release the samples;
        ``[]`` once the capture has finished."""
        if self._finished:
            return []
        self._finished = True
        self.peaks.extend(self._detector.push(*self._correlator.flush()))
        self.peaks.extend(self._detector.finish())
        out = drain(True)
        self._store = self.samples = np.zeros(0)
        self._hi = 0
        self.start = self.total_pushed
        return out

    def _append(self, chunk: np.ndarray) -> None:
        """Copy ``chunk`` after the kept samples.

        Only the new samples are copied, unless the storage is full: then
        the kept samples move to the front of new storage twice the size
        of them and the chunk, so a sample moves O(1) times.
        """
        hi, n, kept = self._hi, chunk.size, self.samples.size
        if hi + n > self._store.size:
            store = np.empty(2 * (kept + n))
            store[:kept] = self.samples
            self._store, hi = store, kept
        self._store[hi : hi + n] = chunk
        self._hi = hi + n
        self.samples = self._store[hi - kept : hi + n]


class StreamingReceiver:
    """Decode a broadcast fed in arbitrary chunks, in bounded memory.

    >>> import numpy as np
    >>> from repro.modem.modem import Modem
    >>> modem = Modem()
    >>> rx = StreamingReceiver(modem, frames_per_burst=1)
    >>> wave = modem.transmit_frame(bytes(100))
    >>> frames = [f for c in np.array_split(wave, 7) for f in rx.push(c)]
    >>> frames += rx.finish()
    >>> [frame.ok for frame in frames]
    [True]
    """

    def __init__(
        self, modem: "Modem", frames_per_burst: int | None = None
    ) -> None:
        self._modem = modem
        self._frames_per_burst = frames_per_burst
        self._window = SyncWindow(modem._preamble, modem.SYNC_THRESHOLD)
        self.frames_decoded = 0
        self.frames_ok = 0

    # -- feeding ----------------------------------------------------------
    # push and finish are defined here, not inherited: the bench tracer
    # patches them through this class's own __dict__.

    def push(self, chunk: np.ndarray) -> "list[ReceivedFrame]":
        """Feed the next audio chunk; returns frames decodable so far."""
        return self._window.push(chunk, self._drain)

    def finish(self) -> "list[ReceivedFrame]":
        """Signal end of capture; returns the remaining frames."""
        return self._window.finish(self._drain)

    @property
    def buffered_samples(self) -> int:
        return self._window.samples.size

    @property
    def max_buffer_samples(self) -> int:
        return self._window.max_buffer_samples

    # -- decoding ----------------------------------------------------------

    def _drain(self, eos: bool) -> "list[ReceivedFrame]":
        peaks = self._window.peaks
        out: "list[ReceivedFrame]" = []
        while peaks:
            pos, score = peaks[0]
            if len(peaks) >= 2:
                limit = peaks[1][0]
            elif eos:
                limit = self._window.total_pushed
            else:
                limit = self._early_limit(pos)
                if limit is None:
                    break  # outcome could still change — keep buffering
            burst = self._decode_burst(pos, score, limit)
            self.frames_decoded += len(burst)
            self.frames_ok += sum(1 for f in burst if f.ok)
            out.extend(burst)
            peaks.popleft()
        return out

    def _early_limit(self, pos: int) -> int | None:
        """Mid-stream decode point for a known-size burst.

        With ``frames_per_burst`` set, the batch loop decodes exactly
        ``frames_per_burst`` frames whenever the next peak leaves room
        for them.  Once every position that could still produce a peak
        (pending detector candidates, then unscored positions) lies at
        or beyond the burst's own sample needs — and those samples are
        buffered — the batch outcome is fixed and the burst can decode
        now, one burst of latency behind the transmitter.
        """
        fpb = self._frames_per_burst
        if fpb is None:
            return None
        modem = self._modem
        offset = modem._preamble.size + modem.profile.guard_samples
        sym_len = modem.profile.ofdm.symbol_len
        needed = pos + offset + (fpb * modem._n_payload_symbols + 1) * sym_len
        window = self._window
        if window.horizon >= needed and window.total_pushed >= needed:
            return needed
        return None

    def _decode_burst(
        self, pos: int, score: float, limit: int
    ) -> "list[ReceivedFrame]":
        """Replicates one iteration of the batch receive loop exactly."""
        from repro.modem.modem import ReceivedFrame

        modem = self._modem
        offset = modem._preamble.size + modem.profile.guard_samples
        sym_len = modem.profile.ofdm.symbol_len
        per_frame = modem._n_payload_symbols
        frame_start = pos + offset
        max_symbols = (limit - frame_start) // sym_len - 1
        if max_symbols < per_frame:
            return [ReceivedFrame(None, pos, -np.inf, score)]
        samples = self._window.samples
        rel_start = frame_start - self._window.start
        if self._frames_per_burst is not None:
            n_frames = min(self._frames_per_burst, max_symbols // per_frame)
            # A broadcast's last burst may be short: stop at the frame
            # that holds the last slot with in-band energy, so trailing
            # silence neither counts as lost frames nor enters the
            # burst's noise estimate.  Only those slots are read, so the
            # count is the same for every chunking.
            active = modem._count_active_symbols(
                samples, rel_start, n_frames * per_frame
            )
            n_frames = min(n_frames, max(1, -(-active // per_frame)))
        else:
            active = modem._count_active_symbols(samples, rel_start, max_symbols)
            n_frames = max(1, int(round(active / per_frame))) if active else 1
            n_frames = min(n_frames, max_symbols // per_frame)
        try:
            demod = modem.phy.demodulate(samples, rel_start, n_frames * per_frame)
        except ValueError:
            return [ReceivedFrame(None, pos, -np.inf, score)]
        soft = modem.phy.constellation.demap_soft(
            demod.data_symbols.reshape(-1), demod.noise_var
        ).reshape(n_frames, -1)
        payloads = modem.codec.decode_batch(soft)
        frames: "list[ReceivedFrame]" = []
        for j, payload in enumerate(payloads):
            frame_index = (
                pos if j == 0 else frame_start + (1 + j * per_frame) * sym_len
            )
            frames.append(ReceivedFrame(payload, frame_index, demod.snr_db, score))
        return frames
