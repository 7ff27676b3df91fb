"""Shared sync + streaming front end for the message-framed modems.

The three baseline modems (FSK, GMSK, AudioQR) all frame a payload the
same way: a chirp marker, then a self-describing body whose length is
recovered from the first decoded bytes.  This module holds the one copy
of what they share: :class:`PreambleSync` names a modem's template and
operating point, :class:`MessageStreamingReceiver` runs it through a
:class:`~repro.modem.streaming.SyncWindow` (the correlator, peak
detector and kept samples the OFDM receiver uses too), and
:class:`MessageModem` gives each modem its ``stream`` and ``receive``.
The window's peaks equal :func:`~repro.dsp.chirp.matched_filter_peak`
with the same arguments, which is how the seed decoders in
``tests/reference/modems.py`` find their markers.

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
    attempt must always resolve to ``("done", ...)``.  The receiver
    takes ``n`` at its word: it asks again only once ``n`` body samples
    are buffered, or at the end of the capture.
"""

from __future__ import annotations

import numpy as np

from repro.modem.streaming import SyncWindow

__all__ = ["PreambleSync", "MessageStreamingReceiver", "MessageModem"]


class PreambleSync:
    """A modem's marker template plus its detection operating point."""

    def __init__(self, template: np.ndarray, threshold: float) -> None:
        self.template = np.asarray(template, dtype=np.float64)
        if self.template.size == 0:
            raise ValueError("sync template must not be empty")
        self.threshold = float(threshold)


class MessageStreamingReceiver:
    """Chunk-fed message decoder with chunk-size-invariant output.

    Peaks come from the sync window, whose scores are bit-identical for
    any chunking of the capture; the head peak is then decoded by the
    modem's ``decode_attempt`` as soon as the body samples it asked for
    are buffered.  Messages are emitted in marker order, exactly like
    the whole-capture receive path (which is itself one ``push`` +
    ``finish`` through this class).
    """

    def __init__(self, modem) -> None:
        self._modem = modem
        sync: PreambleSync = modem.sync
        self._body_offset = sync.template.size
        self._window = SyncWindow(sync.template, sync.threshold)
        self._need = 0  # body samples the head peak's last attempt asked for
        self.messages_decoded = 0

    def push(self, chunk: np.ndarray) -> list[bytes]:
        """Feed samples; returns the messages finalised by this chunk."""
        return self._window.push(chunk, self._drain)

    def finish(self) -> list[bytes]:
        """End of capture: resolve pending peaks and decode what remains."""
        return self._window.finish(self._drain)

    @property
    def max_buffer_samples(self) -> int:
        return self._window.max_buffer_samples

    def _drain(self, eos: bool) -> list[bytes]:
        window = self._window
        out: list[bytes] = []
        while window.peaks:
            body_start = window.peaks[0][0] + self._body_offset
            if not eos and window.total_pushed - body_start < self._need:
                break
            body = window.samples[body_start - window.start :]
            status, value = self._modem.decode_attempt(body, eos)
            if status == "need":
                if eos:
                    raise RuntimeError("decode_attempt must resolve at end of capture")
                self._need = value
                break
            window.peaks.popleft()
            self._need = 0
            if value is not None:
                self.messages_decoded += 1
                out.append(value)
        return out


class MessageModem:
    """``stream`` and ``receive`` for a modem with ``sync`` and
    ``decode_attempt``."""

    def stream(self) -> MessageStreamingReceiver:
        """Chunk-fed receiver, bit-identical to :meth:`receive`."""
        return MessageStreamingReceiver(self)

    def receive(self, samples: np.ndarray) -> list[bytes]:
        """Decode every message found in ``samples`` (whole capture)."""
        rx = self.stream()
        return rx.push(samples) + rx.finish()
