"""Rate-1/n convolutional codes with a vectorised Viterbi decoder.

The inner code of the SONIC frame pipeline.  Quiet's ``v27`` and ``v29``
FEC schemes are the classic rate-1/2 convolutional codes with constraint
length 7 (NASA polynomials 0o171/0o133) and 9 (0o753/0o561); both are
provided here as module-level singletons.

Encoding is a binary convolution; decoding runs add-compare-select over
all ``2^(K-1)`` trellis states with numpy, supporting both hard-decision
(bit) and soft-decision (bipolar amplitude) inputs.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft

from repro.util.bits import pad_bits

__all__ = ["ConvolutionalCode", "CONV_V27", "CONV_V29"]


class ConvolutionalCode:
    """A rate 1/n feed-forward convolutional code.

    Parameters
    ----------
    constraint:
        Constraint length K (the encoder window, including the current
        input bit).
    polys:
        Generator polynomials, one per output bit, given as integers whose
        MSB (bit K-1) taps the *current* input bit.  Every polynomial
        must tap the oldest bit (bit 0), as all of Quiet's do: the
        decoder's butterfly relies on it.
    """

    def __init__(self, constraint: int, polys: tuple[int, ...]) -> None:
        if not 3 <= constraint <= 12:
            raise ValueError(f"constraint length {constraint} out of range [3, 12]")
        if len(polys) < 2:
            raise ValueError("need at least two generator polynomials")
        mask = (1 << constraint) - 1
        if any(p <= 0 or p > mask for p in polys):
            raise ValueError("generator polynomial does not fit constraint length")
        if not all(p & 1 for p in polys):
            raise ValueError("every generator polynomial must tap the oldest bit")
        self.constraint = constraint
        self.polys = tuple(polys)
        self.n_out = len(polys)
        self.n_states = 1 << (constraint - 1)
        self._build_trellis()

    @property
    def rate(self) -> float:
        """Information bits per coded bit (ignoring the tail)."""
        return 1.0 / self.n_out

    def _build_trellis(self) -> None:
        k = self.constraint
        s = self.n_states
        low_mask = (1 << (k - 2)) - 1 if k > 2 else 0
        # For each next-state, its two predecessors and the branch outputs.
        next_states = np.arange(s)
        self._input_bit = (next_states >> (k - 2)).astype(np.int64)
        low = next_states & low_mask
        self._preds = np.stack([2 * low, 2 * low + 1], axis=1)  # (s, 2)

        # branch_bits[ns, p, j] = j-th output bit on the branch preds[ns,p] -> ns
        branch = np.zeros((s, 2, self.n_out), dtype=np.int8)
        for ns in range(s):
            bit = int(self._input_bit[ns])
            for p_idx in range(2):
                pred = int(self._preds[ns, p_idx])
                window = (bit << (k - 1)) | pred
                for j, poly in enumerate(self.polys):
                    branch[ns, p_idx, j] = bin(window & poly).count("1") & 1
        self._branch_bits = branch
        # Every polynomial taps the oldest bit, so the branch from 2*low+1
        # emits the complement of the branch from 2*low: its metric is
        # exactly minus x, the metric from 2*low.  Column ns of this
        # matrix turns a bit time's soft symbols into x for next-state ns.
        self._branch_x = np.ascontiguousarray(
            1.0 - 2.0 * branch[:, 0, :].T.astype(np.float64)
        )  # (n_out, n_states)
        # The MSB of the first polynomial taps the current input bit; when
        # set, a clean hard-decision stream can be inverted algebraically.
        self._invertible = bool((self.polys[0] >> (k - 1)) & 1)
        self._poly0_feedback_taps = [
            i for i in range(1, k) if (self.polys[0] >> (k - 1 - i)) & 1
        ]
        self._inverse_impulse = np.zeros(0, dtype=np.uint8)  # grown on demand

    # -- encoding ------------------------------------------------------------

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode an information bit vector, appending K-1 flush bits.

        Returns ``(len(bits) + K - 1) * n_out`` coded bits, interleaved as
        output0, output1, ... per input bit.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size == 0:
            raise ValueError("expected a non-empty 1-D bit vector")
        return self.encode_batch(bits[None, :])[0]

    def encode_batch(self, bits: np.ndarray) -> np.ndarray:
        """Encode a ``(n_frames, n_info_bits)`` stack of bit vectors at once.

        Each row is flushed and encoded independently.  The binary
        convolution is computed as an XOR of tap-shifted copies, so the
        cost per tap is one vectorised pass over the whole stack.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[1] == 0:
            raise ValueError("expected a non-empty (n_frames, n_bits) array")
        k = self.constraint
        n, n_info = bits.shape
        total = n_info + k - 1
        flushed = np.zeros((n, total), dtype=np.uint8)
        flushed[:, :n_info] = bits
        out = np.zeros((n, total, self.n_out), dtype=np.uint8)
        for j, poly in enumerate(self.polys):
            acc = out[:, :, j]
            for i in range(k):
                if (poly >> (k - 1 - i)) & 1:
                    acc[:, i:] ^= flushed[:, : total - i]
        return out.reshape(n, -1)

    def coded_length(self, n_info_bits: int) -> int:
        """Number of coded bits produced for ``n_info_bits`` inputs."""
        return (n_info_bits + self.constraint - 1) * self.n_out

    # -- decoding ------------------------------------------------------------

    def decode(self, coded_bits: np.ndarray, n_info_bits: int) -> np.ndarray:
        """Hard-decision Viterbi decode (input bits, 0/1)."""
        hard = np.asarray(coded_bits, dtype=np.uint8)
        soft = 1.0 - 2.0 * hard.astype(np.float64)
        return self.decode_soft(soft, n_info_bits)

    def decode_soft(self, soft_bits: np.ndarray, n_info_bits: int) -> np.ndarray:
        """Soft-decision Viterbi decode of one frame.

        ``soft_bits`` are bipolar amplitudes: positive values favour bit 0,
        negative favour bit 1; magnitude expresses confidence.  One row
        of :meth:`decode_soft_batch`.
        """
        soft = np.asarray(soft_bits, dtype=np.float64)
        if soft.ndim != 1:
            raise ValueError(f"expected a 1-D soft bit vector, got {soft.shape}")
        return self.decode_soft_batch(soft[None, :], n_info_bits)[0]

    #: frames decoded per kernel invocation (bounds the decision buffer)
    _FRAME_CHUNK = 128

    def decode_soft_batch(
        self, soft_bits: np.ndarray, n_info_bits: int
    ) -> np.ndarray:
        """Soft-decision Viterbi decode of a ``(n_frames, coded)`` stack.

        Each frame runs its own terminated trellis (the flush bits end
        every frame in state 0, so frames cannot share one trellis pass),
        but the add-compare-select recursion at each bit time runs over
        all frames simultaneously — the Python-level loop count no longer
        scales with the number of frames.  The property tests pin it row
        by row to the seed's per-timestep decoder,
        ``tests/reference/fec.py::viterbi_decode_ref``.

        The kernel runs the trellis as butterflies, with no gather: with
        ``ns = bit * 2^(K-2) + low`` the two predecessors of ``ns`` are
        ``2*low`` and ``2*low + 1`` regardless of ``bit``, and because
        every generator taps the oldest bit their branch metrics are
        ``x`` and exactly ``-x``.  One matmul per block of
        ``_TIME_BLOCK`` bit times gives ``x`` for every next state; a
        bit time is then two broadcast adds, a compare and a maximum.
        The traceback turns the decisions into a predecessor table in
        place and walks it with one ``take`` per bit time.  Frames are
        processed in chunks of ``_FRAME_CHUNK`` so the decision buffer
        stays bounded for fleet-sized batches.
        """
        soft = np.asarray(soft_bits, dtype=np.float64)
        if soft.ndim != 2:
            raise ValueError(f"expected a (n_frames, coded) array, got {soft.shape}")
        total = n_info_bits + self.constraint - 1
        expected = total * self.n_out
        if soft.shape[1] != expected:
            raise ValueError(
                f"expected {expected} coded bits for {n_info_bits} info bits, "
                f"got {soft.shape[1]}"
            )
        n = soft.shape[0]
        out = np.empty((n, total), dtype=np.uint8)

        # Fast path: when the hard decisions of a frame already form a
        # valid codeword and no soft bit sits exactly on the slicer
        # boundary, every competing codeword differs in >= dfree positions
        # and each strictly lowers the correlation metric — the maximum-
        # likelihood decision is forced, so the trellis search is provably
        # redundant.  Clean broadcast frames (the common case) take this
        # O(total) algebraic inversion instead of the full ACS recursion.
        slow = np.arange(n)
        if self._invertible:
            hard = (soft < 0).astype(np.uint8)
            inverted = self._invert_hard(hard.reshape(n, total, self.n_out)[:, :, 0])
            clean = ~np.logical_or.reduce(soft == 0.0, axis=1)
            np.logical_and(
                clean,
                (self.encode_batch(inverted[:, :n_info_bits]) == hard).all(axis=1)
                if n_info_bits > 0
                else False,
                out=clean,
            )
            out[clean] = inverted[clean]
            slow = np.nonzero(~clean)[0]

        for i in range(0, slow.size, self._FRAME_CHUNK):
            rows = slow[i : i + self._FRAME_CHUNK]
            out[rows] = self._decode_soft_kernel(soft[rows], total)
        return out[:, :n_info_bits]

    def _invert_hard(self, hard0: np.ndarray) -> np.ndarray:
        """Recover input bits from the first output stream's hard bits.

        ``out0[t] = b[t] ^ (feedback taps of b[t-1..t-K+1])`` because the
        first polynomial taps the current bit, so the information sequence
        follows by forward substitution.

        The recurrence is a linear time-invariant filter over GF(2), so
        instead of stepping it per bit time the whole batch convolves
        with the filter's impulse response (cached, grown on demand):
        integer-count convolution via FFT, reduced mod 2.  Counts stay
        far below 2^53, so the rounding is exact and the result is
        bit-identical to the sequential substitution.
        """
        n, total = hard0.shape
        g = self._impulse_response(total)
        nfft = sp_fft.next_fast_len(2 * total - 1, True)
        conv = sp_fft.irfft(
            sp_fft.rfft(hard0, nfft, axis=1) * sp_fft.rfft(g, nfft), nfft, axis=1
        )[:, :total]
        return (np.rint(conv).astype(np.int64) & 1).astype(np.uint8)

    def _impulse_response(self, total: int) -> np.ndarray:
        """First ``total`` bits of the GF(2) inverse filter 1/poly0."""
        if self._inverse_impulse.size < total:
            g = np.zeros(total, dtype=np.uint8)
            taps = self._poly0_feedback_taps
            for t in range(total):
                acc = 1 if t == 0 else 0
                for i in taps:
                    if i <= t:
                        acc ^= int(g[t - i])
                g[t] = acc
            self._inverse_impulse = g
        return self._inverse_impulse[:total]

    #: bit times whose branch metrics one matmul computes
    _TIME_BLOCK = 16

    def _decode_soft_kernel(self, soft: np.ndarray, total: int) -> np.ndarray:
        """Batched forward ACS + traceback over one frame chunk."""
        n = soft.shape[0]
        s = self.n_states
        half = s // 2
        block = min(self._TIME_BLOCK, total)
        # (time, frame, coded-bit) layout, so a block of bit times is one
        # contiguous (block * n, n_out) operand of the branch matmul.
        symbols = np.ascontiguousarray(
            soft.reshape(n, total, self.n_out).transpose(1, 0, 2)
        ).reshape(total * n, self.n_out)
        x = np.empty((block, n, 2, half))

        # State ns = bit*half + low has predecessors 2*low (branch metric
        # x) and 2*low + 1 (metric -x) for both values of bit, so both
        # candidates broadcast one (n, 1, half) view of the old metrics.
        metrics = np.full((n, 2, half), -np.inf)
        metrics[:, 0, 0] = 0.0  # every encoder starts zero-filled
        m_even = metrics.reshape(n, half, 2)[:, None, :, 0]
        m_odd = metrics.reshape(n, half, 2)[:, None, :, 1]
        c0 = np.empty((n, 2, half))
        c1 = np.empty((n, 2, half))
        decisions = np.empty((total, n, 2, half), dtype=bool)

        for t0 in range(0, total, block):
            b = min(block, total - t0)
            np.matmul(
                symbols[t0 * n : (t0 + b) * n],
                self._branch_x,
                out=x[:b].reshape(b * n, s),
            )
            for i in range(b):
                # m - x equals m + (-x) exactly, and strict > resolves
                # ties to predecessor 0 like the reference's argmax.
                np.add(m_even, x[i], out=c0)
                np.subtract(m_odd, x[i], out=c1)
                np.greater(c1, c0, out=decisions[t0 + i])
                np.maximum(c0, c1, out=metrics)

        # Turn each decision into its predecessor 2*(ns & (half-1)) +
        # decision, in place while it fits a byte, then walk back from
        # state 0 (the flush bits end every frame there): one take per
        # bit time.  The input bit of state ns is ns >> (K-2).
        base = 2 * (np.arange(s) & (half - 1))
        table = decisions.reshape(total, n, s)
        if s <= 256:
            table = table.view(np.uint8)
            table += base.astype(np.uint8)
        else:
            table = table + base.astype(np.uint16)
        preds = table.reshape(total, n * s)
        offsets = np.arange(n) * s
        index = np.empty(n, dtype=np.intp)
        states = np.empty((total, n), dtype=preds.dtype)
        states[total - 1] = 0
        for t in range(total - 1, 0, -1):
            np.add(offsets, states[t], out=index)
            preds[t].take(index, out=states[t - 1])
        return (states >> (self.constraint - 2)).T.astype(np.uint8)


#: Quiet's ``v27``: K=7 rate-1/2 NASA-standard code.
CONV_V27 = ConvolutionalCode(7, (0o171, 0o133))

#: Quiet's ``v29``: K=9 rate-1/2 code (the profile SONIC uses).
CONV_V29 = ConvolutionalCode(9, (0o753, 0o561))
