"""FIR filtering, block convolution and rational resampling.

The FM multiplex assembles and disassembles its subcarriers with linear-
phase FIR filters so that group delay is a known constant that the
receiver chain can compensate exactly.  :class:`BlockConvolver` is the
one overlap-save engine behind every chunk-invariant streaming filter
and correlator.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft
from scipy import signal

__all__ = [
    "fir_lowpass",
    "fir_bandpass",
    "filter_signal",
    "resample",
    "BlockConvolver",
]


def fir_lowpass(cutoff_hz: float, sample_rate: float, num_taps: int = 127) -> np.ndarray:
    """Design a linear-phase FIR low-pass filter (Hamming window)."""
    if not 0 < cutoff_hz < sample_rate / 2:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz outside (0, {sample_rate / 2}) Hz"
        )
    if num_taps % 2 == 0:
        raise ValueError("num_taps must be odd for integer group delay")
    return signal.firwin(num_taps, cutoff_hz, fs=sample_rate)


def fir_bandpass(
    low_hz: float, high_hz: float, sample_rate: float, num_taps: int = 255
) -> np.ndarray:
    """Design a linear-phase FIR band-pass filter."""
    if not 0 < low_hz < high_hz < sample_rate / 2:
        raise ValueError(
            f"band [{low_hz}, {high_hz}] Hz invalid for fs={sample_rate}"
        )
    if num_taps % 2 == 0:
        raise ValueError("num_taps must be odd for integer group delay")
    return signal.firwin(num_taps, [low_hz, high_hz], fs=sample_rate, pass_zero=False)


def filter_signal(taps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply an FIR filter and remove its group delay.

    The output is time-aligned with the input and has the same length,
    which keeps sample indices meaningful across the whole
    transmit/receive chain.
    """
    taps = np.asarray(taps, dtype=np.float64)
    y = signal.fftconvolve(x, taps, mode="full")
    delay = (taps.size - 1) // 2
    return y[delay : delay + x.size]


def resample(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Rational-ratio polyphase resampling (anti-aliased)."""
    if up < 1 or down < 1:
        raise ValueError("up and down factors must be >= 1")
    if up == down:
        return np.asarray(x, dtype=np.float64).copy()
    return signal.resample_poly(x, up, down)


#: Full segments per batched ``rfft``/``irfft`` pair.  The bound keeps the
#: batches of a whole-capture call cache-sized: batching every segment of
#: a 60 s capture at once measured slower than one segment at a time.
BATCH_ROWS = 16


class BlockConvolver:
    """Block-wise ``"valid"`` convolution with fixed taps, bit-identical
    to per-segment :func:`scipy.signal.fftconvolve` calls.

    Segment ``k`` of a buffer ``x`` is ``x[k*block : k*block + segment]``
    with ``segment = block + len(taps) - 1``; its valid convolution is
    ``block`` samples long, so consecutive segments tile the output and a
    caller that anchors ``x`` at an absolute stream position gets
    outputs that never depend on how the stream was chunked.

    Every full segment has the same length, so it shares one transform
    length — the one ``fftconvolve`` picks for it — and the taps'
    spectrum at that length is computed once here.  Full segments then
    go through batched ``rfft``/``irfft`` pairs, up to
    :data:`BATCH_ROWS` segments per pair; each row is the same
    arithmetic ``fftconvolve`` would do on that segment alone.  Batching
    pays the transforms' per-call overhead once per batch rather than
    once per segment, which matters to callers that pass several
    segments at a time, such as the FM stream's up-sampled stages.  A
    final partial segment still calls ``fftconvolve``.
    """

    def __init__(self, taps: np.ndarray, block: int) -> None:
        self.taps = np.asarray(taps, dtype=np.float64)
        self.block = int(block)
        self.segment = self.block + self.taps.size - 1
        self._nfft = sp_fft.next_fast_len(self.segment + self.taps.size - 1, True)
        self._spectrum = sp_fft.rfft(self.taps, self._nfft)

    def batches(self, x: np.ndarray, final: bool = False) -> Iterator[np.ndarray]:
        """Yield the valid outputs of every full segment of ``x``, in
        order, one batch of up to :data:`BATCH_ROWS` segments at a time.

        A batch has ``block`` samples per segment, so the total length is
        how far a caller's buffer advances.  With ``final`` the trailing
        partial segment is convolved too, so the batches then hold every
        valid output of ``x``.
        """
        m = self.taps.size
        n = max(0, (x.size - m + 1) // self.block)
        for lo in range(0, n, BATCH_ROWS):
            yield self._rows(x, lo, min(n, lo + BATCH_ROWS))
        rest = x[n * self.block :]
        if final and rest.size >= m:
            yield signal.fftconvolve(rest, self.taps, mode="valid")

    def _rows(self, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Valid outputs of full segments ``lo`` to ``hi - 1`` of ``x``."""
        start = lo * self.block
        if hi - lo == 1:  # a 1-D transform: cheaper than a one-row 2-D one
            rows = x[start : start + self.segment]
        else:
            span = x[start : (hi - 1) * self.block + self.segment]
            rows = sliding_window_view(span, self.segment)[:: self.block]
        spec = sp_fft.rfft(rows, self._nfft, axis=-1)
        full = sp_fft.irfft(spec * self._spectrum, self._nfft, axis=-1)
        return full[..., self.taps.size - 1 : self.segment].reshape(-1)
