"""Shared sync + streaming front end for the message-framed modems.

The three baseline modems (FSK, GMSK, AudioQR) all frame a payload the
same way: a chirp marker, then a self-describing body whose length is
recovered from the first decoded bytes.  This module holds the one copy
of the marker search: :class:`PreambleSync` names a modem's template and
operating point, and :class:`MessageStreamingReceiver` runs it through
the overlap-save :class:`~repro.dsp.chirp.StreamingCorrelator` (cached
template FFT) and :class:`~repro.dsp.chirp.StreamingPeakDetector`, for
both whole-capture and chunk-fed decoding.  Its peaks equal
:func:`~repro.dsp.chirp.matched_filter_peak` with the same arguments,
which is how the seed decoders in ``tests/reference/modems.py`` find
their markers.

A modem plugs in by exposing:

``sync``
    a :class:`PreambleSync` describing its marker template and detection
    threshold, and

``decode_attempt(body, eos)``
    a pure function of the samples *after* the marker.  It returns
    ``("need", n)`` when the outcome cannot be determined from fewer
    than ``n`` body samples, or ``("done", payload_or_None)`` once it
    can.  The contract that makes chunk feeding bit-identical to batch
    decoding: once ``("done", r)`` is returned for a body prefix, every
    longer body must yield the same ``r``, and with ``eos=True`` the
    attempt must always resolve to ``("done", ...)``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.dsp.chirp import StreamingCorrelator, StreamingPeakDetector

__all__ = ["PreambleSync", "MessageStreamingReceiver"]


class PreambleSync:
    """A modem's marker template plus its detection operating point."""

    def __init__(self, template: np.ndarray, threshold: float) -> None:
        self.template = np.asarray(template, dtype=np.float64)
        if self.template.size == 0:
            raise ValueError("sync template must not be empty")
        self.threshold = float(threshold)

    def correlator(self) -> StreamingCorrelator:
        return StreamingCorrelator(self.template)

    def detector(self) -> StreamingPeakDetector:
        """Peaks at least one template length apart."""
        return StreamingPeakDetector(self.threshold, self.template.size)


class MessageStreamingReceiver:
    """Chunk-fed message decoder with chunk-size-invariant output.

    Peaks come from the streaming correlator/detector pair, whose scores
    are bit-identical for any chunking of the capture; each finalised
    peak is then decoded by the modem's ``decode_attempt`` as soon as
    enough body samples are buffered.  Messages are emitted in marker
    order, exactly like the whole-capture receive path (which is itself
    implemented as one ``push`` + ``finish`` through this class).
    """

    def __init__(self, modem) -> None:
        self._modem = modem
        sync: PreambleSync = modem.sync
        self._body_offset = sync.template.size
        self._correlator = sync.correlator()
        self._detector = sync.detector()
        self._buffer = np.zeros(0, dtype=np.float64)
        self._base = 0  # absolute sample index of self._buffer[0]
        self._open: deque[tuple[int, float]] = deque()
        self._finished = False
        # Stats (mirrors the OFDM StreamingReceiver's bookkeeping).
        self.total_pushed = 0
        self.peaks_detected = 0
        self.messages_decoded = 0
        self.max_buffer_samples = 0

    # -- feeding -----------------------------------------------------------

    def push(self, chunk: np.ndarray) -> list[bytes]:
        """Feed samples; returns the messages finalised by this chunk."""
        if self._finished:
            raise RuntimeError("receiver already finished")
        chunk = np.asarray(chunk, dtype=np.float64)
        self.total_pushed += chunk.size
        if chunk.size:
            self._buffer = (
                np.concatenate([self._buffer, chunk]) if self._buffer.size else chunk.copy()
            )
        peaks = self._detector.push(*self._correlator.push(chunk))
        self.peaks_detected += len(peaks)
        self._open.extend(peaks)
        out = self._drain(eos=False)
        self._trim()
        self.max_buffer_samples = max(self.max_buffer_samples, self._buffer.size)
        return out

    def finish(self) -> list[bytes]:
        """End of capture: resolve pending peaks and decode what remains."""
        if self._finished:
            return []
        self._finished = True
        peaks = self._detector.push(*self._correlator.flush())
        peaks += self._detector.finish()
        self.peaks_detected += len(peaks)
        self._open.extend(peaks)
        out = self._drain(eos=True)
        self._buffer = np.zeros(0, dtype=np.float64)
        return out

    # -- decoding ----------------------------------------------------------

    def _drain(self, eos: bool) -> list[bytes]:
        out: list[bytes] = []
        while self._open:
            start, _score = self._open[0]
            body_start = start + self._body_offset - self._base
            body = (
                self._buffer[body_start:]
                if body_start < self._buffer.size
                else np.zeros(0, dtype=np.float64)
            )
            status, value = self._modem.decode_attempt(body, eos)
            if status == "need":
                if eos:
                    raise RuntimeError("decode_attempt must resolve at end of capture")
                break
            self._open.popleft()
            if value is not None:
                self.messages_decoded += 1
                out.append(value)
        return out

    def _trim(self) -> None:
        """Drop buffered samples no open or future peak can reach back to."""
        keep = self._detector.watermark
        pending = self._detector.pending_min
        if pending is not None:
            keep = min(keep, pending)
        if self._open:
            keep = min(keep, self._open[0][0])
        if keep > self._base:
            self._buffer = self._buffer[keep - self._base :]
            self._base = keep
