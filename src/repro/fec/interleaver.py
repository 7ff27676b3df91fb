"""Block interleaving.

Viterbi decoding turns channel noise into short *bursts* of byte errors,
which would quickly exhaust a Reed-Solomon block's correction budget if
they landed consecutively.  Writing symbols into a rows x cols matrix and
reading it out column-wise spreads any burst of up to ``rows`` symbols
across different RS codewords.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BlockInterleaver"]


class BlockInterleaver:
    """A rows x cols block interleaver over arbitrary numpy vectors."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be positive")
        self.rows = rows
        self.cols = cols

    @property
    def size(self) -> int:
        """Number of elements per interleaving block."""
        return self.rows * self.cols

    def interleave(self, values: np.ndarray) -> np.ndarray:
        """Permute ``values`` (length must equal :attr:`size`): one row of
        :meth:`interleave_many`."""
        return self.interleave_many(np.reshape(values, (1, -1)))[0]

    def deinterleave(self, values: np.ndarray) -> np.ndarray:
        """Invert :meth:`interleave`: one row of :meth:`deinterleave_many`."""
        return self.deinterleave_many(np.reshape(values, (1, -1)))[0]

    # -- batch entry points (one row per frame) -----------------------------

    def interleave_many(self, values: np.ndarray) -> np.ndarray:
        """Permute each row of a ``(n_frames, size)`` array independently."""
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[1] != self.size:
            raise ValueError(
                f"expected (n, {self.size}) array, got {values.shape}"
            )
        n = values.shape[0]
        return values.reshape(n, self.rows, self.cols).transpose(0, 2, 1).reshape(n, -1)

    def deinterleave_many(self, values: np.ndarray) -> np.ndarray:
        """Invert :meth:`interleave_many` row-wise."""
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[1] != self.size:
            raise ValueError(
                f"expected (n, {self.size}) array, got {values.shape}"
            )
        n = values.shape[0]
        return values.reshape(n, self.cols, self.rows).transpose(0, 2, 1).reshape(n, -1)
