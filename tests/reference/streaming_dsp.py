"""Per-block ``fftconvolve`` references for the streaming DSP kernels.

Each class here is the plain loop the product code must reproduce bit
for bit, return by return: one :func:`scipy.signal.fftconvolve` call per
fixed block, anchored at absolute stream positions, with no cached
spectrum and no batching.  ``fm_noise_ref`` is the FM stream's RF noise
built the direct way, as ``amp * (re + 1j * im)``, and
``fm_link_stream_ref`` is a whole FM stream on these references.
"""

from __future__ import annotations

import types
from unittest import mock

import numpy as np
from scipy import signal

from repro.radio import streams
from repro.radio.channels import FmRadioLink
from repro.radio.streams import NOISE_BLOCK
from repro.util.rng import derive_rng


class StreamingFirRef:
    """``StreamingFir`` as one ``fftconvolve(..., "valid")`` per block."""

    def __init__(self, taps: np.ndarray, block: int | None = None) -> None:
        self._taps = np.asarray(taps, dtype=np.float64)
        m = self._taps.size
        self.block = block if block is not None else max(4096, 4 * m)
        self.delay = (m - 1) // 2
        self._to_drop = self.delay
        self._context = np.zeros(m - 1)  # last taps-1 input samples
        self._pending = np.zeros(0)
        self._flushed = False

    def _filter_segment(self, seg: np.ndarray) -> np.ndarray:
        ext = np.concatenate([self._context, seg])
        self._context = ext[-(self._taps.size - 1) :]
        return signal.fftconvolve(ext, self._taps, mode="valid")

    def _emit(self, y: np.ndarray) -> np.ndarray:
        if self._to_drop:
            n = min(self._to_drop, y.size)
            self._to_drop -= n
            y = y[n:]
        return y

    def process(self, x: np.ndarray) -> np.ndarray:
        if self._flushed:
            raise RuntimeError("filter already flushed")
        self._pending = np.concatenate([self._pending, np.asarray(x, dtype=np.float64)])
        outs: list[np.ndarray] = []
        while self._pending.size >= self.block:
            outs.append(self._emit(self._filter_segment(self._pending[: self.block])))
            self._pending = self._pending[self.block :]
        return np.concatenate(outs) if outs else np.zeros(0)

    def flush(self) -> np.ndarray:
        if self._flushed:
            return np.zeros(0)
        self._flushed = True
        tail = np.concatenate([self._pending, np.zeros(self.delay)])
        self._pending = np.zeros(0)
        outs: list[np.ndarray] = []
        while tail.size >= self.block:
            outs.append(self._emit(self._filter_segment(tail[: self.block])))
            tail = tail[self.block :]
        if tail.size:
            outs.append(self._emit(self._filter_segment(tail)))
        return np.concatenate(outs) if outs else np.zeros(0)


class StreamingCorrelatorRef:
    """``StreamingCorrelator`` as one ``fftconvolve`` per score block."""

    def __init__(self, template: np.ndarray) -> None:
        template = np.asarray(template, dtype=np.float64)
        self.template_len = template.size
        self.block = 16 * template.size
        self._template_rev = template[::-1].copy()
        self._template_energy = float(np.sum(template * template))
        self._pending = np.zeros(0)
        self._csum_carry = 0.0
        self.scored = 0

    def push(self, chunk: np.ndarray) -> tuple[int, np.ndarray]:
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.size:
            self._pending = np.concatenate([self._pending, chunk])
        start = self.scored
        out: list[np.ndarray] = []
        while self._pending.size >= self.block + self.template_len - 1:
            out.append(self._score(self._pending[: self.block + self.template_len - 1]))
        return start, (np.concatenate(out) if out else np.zeros(0))

    def flush(self) -> tuple[int, np.ndarray]:
        start = self.scored
        if self._pending.size < self.template_len:
            return start, np.zeros(0)
        return start, self._score(self._pending)

    def _score(self, seg: np.ndarray) -> np.ndarray:
        m = self.template_len
        corr = signal.fftconvolve(seg, self._template_rev, mode="valid")
        csum = np.cumsum(np.concatenate([[self._csum_carry], seg * seg]))
        local_energy = csum[m:] - csum[:-m]
        denom = np.sqrt(np.maximum(local_energy * self._template_energy, 1e-20))
        self._csum_carry = float(csum[corr.size])
        self._pending = self._pending[corr.size :]
        self.scored += corr.size
        return corr / denom


def fm_noise_ref(stream, n: int) -> np.ndarray:
    """``FmLinkStream._noise``, scaling the complex sum after the copy."""
    out = np.empty(n, dtype=np.complex128)
    filled = 0
    pos = stream._noise_pos
    while filled < n:
        block_idx, offset = divmod(pos, NOISE_BLOCK)
        if stream._noise_cache is None or stream._noise_cache[0] != block_idx:
            rng = derive_rng(
                stream._noise_seed, "fm-stream-noise", stream._noise_stream, block_idx
            )
            raw = rng.normal(size=2 * NOISE_BLOCK)
            stream._noise_cache = (block_idx, raw[:NOISE_BLOCK] + 1j * raw[NOISE_BLOCK:])
        take = min(n - filled, NOISE_BLOCK - offset)
        out[filled : filled + take] = stream._noise_cache[1][offset : offset + take]
        filled += take
        pos += take
    stream._noise_pos = pos
    return stream._noise_amp * out


def fm_link_stream_ref(link: FmRadioLink, rssi_dbm: float, peak_estimate: float):
    """``link.stream(...)`` built on the reference filters and noise."""
    with mock.patch.object(streams, "StreamingFir", StreamingFirRef):
        stream = link.stream(rssi_dbm, peak_estimate=peak_estimate)
    stream._noise = types.MethodType(fm_noise_ref, stream)
    return stream
