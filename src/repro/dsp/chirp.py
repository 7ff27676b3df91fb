"""Linear chirps and matched filtering.

The modem marks the start of every physical frame with a linear chirp:
its autocorrelation is sharply peaked and resilient to both narrowband
interference and the frequency-selective colouring of the FM audio path,
which makes it a robust timing reference.
"""

from __future__ import annotations

import numpy as np
from scipy import signal

from repro.dsp.filters import BlockConvolver

__all__ = [
    "linear_chirp",
    "matched_filter_peak",
    "StreamingCorrelator",
    "StreamingPeakDetector",
]


def linear_chirp(
    f0_hz: float,
    f1_hz: float,
    duration_s: float,
    sample_rate: float,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Generate a linear frequency sweep with raised-cosine edge tapers.

    The 5 % tapers avoid spectral splatter into the neighbouring FM
    multiplex subcarriers when the chirp starts and stops.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    sweep = signal.chirp(t, f0=f0_hz, f1=f1_hz, t1=duration_s, method="linear")
    taper_len = max(1, n // 20)
    window = np.ones(n)
    edge = 0.5 * (1 - np.cos(np.pi * np.arange(taper_len) / taper_len))
    window[:taper_len] = edge
    window[-taper_len:] = edge[::-1]
    return (amplitude * sweep * window).astype(np.float64)


class StreamingCorrelator:
    """Chunk-fed normalised matched filter with chunk-invariant output.

    Correlation scores are computed in fixed blocks anchored at absolute
    sample positions (``block = 16 * template_len`` score positions per
    block) by a :class:`~repro.dsp.filters.BlockConvolver` over the
    reversed template, so every score's float value depends only on the
    capture content and equals a per-block
    :func:`scipy.signal.fftconvolve` — pushing the capture one sample at
    a time and pushing it as a single array produce bit-identical
    scores.  The local-energy normalisation uses a running cumulative
    sum carried across blocks by sequential accumulation, exactly what
    one whole-array ``np.cumsum`` would compute.
    """

    def __init__(self, template: np.ndarray) -> None:
        template = np.asarray(template, dtype=np.float64)
        if template.size == 0:
            raise ValueError("template must not be empty")
        self.template_len = template.size
        self._conv = BlockConvolver(template[::-1], 16 * template.size)
        self.block = self._conv.block
        self._template_energy = float(np.sum(template * template))
        self._pending = np.zeros(0)  # samples not yet fully scored
        self._csum_carry = 0.0  # exact x*x prefix sum at the block base
        self.scored = 0  # absolute count of emitted score positions

    def push(self, chunk: np.ndarray) -> tuple[int, np.ndarray]:
        """Feed samples; returns ``(start_position, scores)`` newly scored."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.size:
            self._pending = np.concatenate([self._pending, chunk])
        return self._score(final=False)

    def flush(self) -> tuple[int, np.ndarray]:
        """Score the final partial block at end of capture."""
        return self._score(final=True)

    def _score(self, final: bool) -> tuple[int, np.ndarray]:
        start = self.scored
        m = self.template_len
        out: list[np.ndarray] = []
        for corr in self._conv.batches(self._pending, final):
            n = corr.size
            seg = self._pending[: n + m - 1]
            # cumsum(concat([[carry], seg * seg])) and
            # corr / sqrt(max(energy * template_energy, 1e-20)), computed
            # in place: the same element-wise arithmetic in two arrays
            # instead of eight, which is what a streaming push pays for.
            csum = np.empty(seg.size + 1)
            csum[0] = self._csum_carry
            np.multiply(seg, seg, out=csum[1:])
            np.cumsum(csum, out=csum)
            denom = csum[m:] - csum[:-m]
            denom *= self._template_energy
            np.sqrt(np.maximum(denom, 1e-20, out=denom), out=denom)
            out.append(np.divide(corr, denom, out=denom))
            self._csum_carry = float(csum[n])
            self._pending = self._pending[n:]
            self.scored += n
        return start, (np.concatenate(out) if out else np.zeros(0))


class StreamingPeakDetector:
    """Incremental greedy peak selection over a streamed score sequence.

    Greedy strongest-first selection with ``min_separation`` suppression
    decomposes exactly across any run of ``min_separation`` consecutive
    below-threshold scores: a peak selected on one side of such a gap
    cannot suppress a candidate on the other side.  Candidates are
    therefore buffered per *segment* and resolved the moment the stream
    has seen ``min_separation`` below-threshold scores after the
    segment's last candidate — no waiting for end of capture.
    """

    def __init__(self, threshold: float, min_separation: int) -> None:
        if min_separation < 1:
            raise ValueError("min_separation must be >= 1")
        self.threshold = float(threshold)
        self.min_separation = int(min_separation)
        self._segment: list[tuple[int, float]] = []
        self.watermark = 0  # absolute count of scores consumed

    @property
    def pending_min(self) -> int | None:
        """Lowest position that may still become a peak (None: >= watermark)."""
        return self._segment[0][0] if self._segment else None

    def push(self, start: int, scores: np.ndarray) -> list[tuple[int, float]]:
        """Consume scores for positions ``[start, start + len)``; returns
        the peaks finalised by this push, in position order."""
        if start != self.watermark:
            raise ValueError(
                f"scores must be contiguous: expected {self.watermark}, got {start}"
            )
        out: list[tuple[int, float]] = []
        for rel in np.flatnonzero(scores >= self.threshold):
            pos = start + int(rel)
            if self._segment and pos - self._segment[-1][0] > self.min_separation:
                out.extend(self._resolve())
            self._segment.append((pos, float(scores[rel])))
        self.watermark = start + scores.size
        if (
            self._segment
            and self.watermark - 1 - self._segment[-1][0] >= self.min_separation
        ):
            out.extend(self._resolve())
        return out

    def finish(self) -> list[tuple[int, float]]:
        """Resolve the trailing open segment at end of capture."""
        return self._resolve()

    def _resolve(self) -> list[tuple[int, float]]:
        if not self._segment:
            return []
        positions = np.array([p for p, _ in self._segment], dtype=np.int64)
        scores = np.array([s for _, s in self._segment])
        self._segment = []
        base = int(positions[0])
        taken = np.zeros(int(positions[-1]) - base + 1, dtype=bool)
        peaks: list[tuple[int, float]] = []
        # Stable sort reversed: ties resolve to the higher position,
        # deterministically, whatever the segment boundaries were.
        for k in np.argsort(scores, kind="stable")[::-1]:
            idx = int(positions[k]) - base
            if taken[idx]:
                continue
            peaks.append((int(positions[k]), float(scores[k])))
            lo = max(0, idx - self.min_separation)
            hi = min(taken.size, idx + self.min_separation)
            taken[lo:hi] = True
        peaks.sort(key=lambda p: p[0])
        return peaks


def matched_filter_peak(
    x: np.ndarray, template: np.ndarray, threshold: float = 0.5
) -> list[tuple[int, float]]:
    """Locate occurrences of ``template`` in ``x`` by normalised correlation.

    Returns a list of ``(start_index, score)`` pairs with ``score`` in
    [0, 1], strongest non-overlapping peaks first filtered to those above
    ``threshold`` and separated by at least the template length.

    The correlation is normalised by the local signal energy, so the
    detector's operating point does not depend on receive gain.  This is
    the whole-capture wrapper over :class:`StreamingCorrelator` +
    :class:`StreamingPeakDetector` — chunked feeding through those
    classes yields bit-identical peaks.
    """
    x = np.asarray(x, dtype=np.float64)
    template = np.asarray(template, dtype=np.float64)
    if template.size == 0 or x.size < template.size:
        return []
    correlator = StreamingCorrelator(template)
    detector = StreamingPeakDetector(threshold, template.size)
    peaks = detector.push(*correlator.push(x))
    peaks += detector.push(*correlator.flush())
    peaks += detector.finish()
    return peaks
