"""Frame-level FEC pipeline: bytes <-> protected bit stream.

This layer reproduces the error-control stack SONIC configures in Quiet
(Section 3.3 of the paper): a CRC-32 checksum over the payload, an outer
Reed-Solomon code (``rs8``), and an inner convolutional code decoded with
soft-decision Viterbi (``v29``), with a byte interleaver between the two
codes so Viterbi error bursts spread across RS blocks.

The codec is dimensioned for a *fixed* payload size (SONIC uses 100-byte
frames), so both ends know every length statically and no PHY-layer
length header is required.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fec import (
    BlockInterleaver,
    CONV_V27,
    CONV_V29,
    ConvolutionalCode,
    ReedSolomon,
    crc32_ieee,
)
from repro.util.rng import derive_rng

__all__ = ["FecConfig", "FrameCodec", "FrameDecodeError"]

_CONV_CODES: dict[str, ConvolutionalCode | None] = {
    "v27": CONV_V27,
    "v29": CONV_V29,
    "none": None,
}


class FrameDecodeError(Exception):
    """The frame could not be recovered (RS failure or CRC mismatch)."""


@dataclass(frozen=True)
class FecConfig:
    """Error-control parameters for the frame codec.

    The defaults mirror SONIC's Quiet profile: CRC-32 + RS outer code +
    K=9 rate-1/2 convolutional inner code.
    """

    payload_size: int = 100
    rs_nsym: int = 16
    rs_max_block: int = 128
    conv: str = "v29"
    interleave: bool = True
    scramble: bool = True
    #: With no inner code, soft-decision confidence survives to the RS
    #: layer: flag the least-confident bytes as erasures, doubling the
    #: correctable count (2*errors + erasures <= nsym).
    rs_erasures: bool = False

    def __post_init__(self) -> None:
        if self.payload_size < 1:
            raise ValueError("payload_size must be positive")
        if self.conv not in _CONV_CODES:
            raise ValueError(f"conv must be one of {sorted(_CONV_CODES)}")
        if self.rs_nsym and not 2 <= self.rs_nsym <= 254:
            raise ValueError("rs_nsym must be 0 (disabled) or in [2, 254]")
        if self.rs_nsym and self.rs_max_block + self.rs_nsym > 255:
            raise ValueError("rs_max_block + rs_nsym must be <= 255")


class FrameCodec:
    """Fixed-size frame encoder/decoder implementing the FEC pipeline."""

    CRC_LEN = 4

    def __init__(self, config: FecConfig = FecConfig()) -> None:
        self.config = config
        body_len = config.payload_size + self.CRC_LEN
        if config.rs_nsym:
            self._rs = ReedSolomon(config.rs_nsym)
            self._n_blocks = -(-body_len // config.rs_max_block)
            self._block_data = -(-body_len // self._n_blocks)
            self._padded_body = self._block_data * self._n_blocks
            coded_block = self._block_data + config.rs_nsym
            self._coded_bytes = coded_block * self._n_blocks
            self._interleaver = (
                BlockInterleaver(self._n_blocks, coded_block)
                if config.interleave and self._n_blocks > 1
                else None
            )
        else:
            self._rs = None
            self._n_blocks = 0
            self._padded_body = body_len
            self._coded_bytes = body_len
            self._interleaver = None
        self._conv = _CONV_CODES[config.conv]
        self._info_bits = self._coded_bytes * 8
        if self._conv is not None:
            self._frame_bits = self._conv.coded_length(self._info_bits)
        else:
            self._frame_bits = self._info_bits
        pn_rng = derive_rng(0xD15EA5E, "scrambler", config.payload_size)
        self._pn = pn_rng.integers(0, 2, self._info_bits).astype(np.uint8)

    @property
    def frame_bits(self) -> int:
        """Number of coded bits every frame occupies on the PHY."""
        return self._frame_bits

    @property
    def overhead_ratio(self) -> float:
        """Coded bits per payload bit (FEC + CRC expansion factor)."""
        return self._frame_bits / (self.config.payload_size * 8)

    # -- encode ------------------------------------------------------------

    def encode(self, payload: bytes) -> np.ndarray:
        """Protect ``payload`` and return the coded bit vector: one row of
        :meth:`encode_batch`."""
        return self.encode_batch([payload])[0]

    def encode_batch(self, payloads: list[bytes] | np.ndarray) -> np.ndarray:
        """Protect many payloads at once: ``(n_frames, frame_bits)`` bits.

        Each frame is CRC-32, then RS blocks, then the byte interleaver,
        then the scrambler, then the convolutional code.  The RS blocks of
        every frame are encoded in one :meth:`~repro.fec.\
ReedSolomon.encode_blocks` call, interleaving is one reshape, and the
        convolutional code runs one batched pass — so the Python-level
        cost does not scale with the frame count.
        """
        cfg = self.config
        if isinstance(payloads, np.ndarray):
            arr = np.atleast_2d(np.asarray(payloads, dtype=np.uint8))
        else:
            if not payloads:
                raise ValueError("batch must contain at least one payload")
            for p in payloads:
                if len(p) != cfg.payload_size:
                    raise ValueError(
                        f"payload must be exactly {cfg.payload_size} bytes, "
                        f"got {len(p)}"
                    )
            arr = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(
                len(payloads), cfg.payload_size
            )
        if arr.shape[1] != cfg.payload_size:
            raise ValueError(
                f"payload must be exactly {cfg.payload_size} bytes, "
                f"got {arr.shape[1]}"
            )
        n = arr.shape[0]

        body = np.zeros((n, self._padded_body), dtype=np.uint8)
        body[:, : cfg.payload_size] = arr
        for i in range(n):
            crc = crc32_ieee(arr[i].tobytes())
            body[i, cfg.payload_size : cfg.payload_size + 4] = np.frombuffer(
                crc.to_bytes(4, "big"), dtype=np.uint8
            )

        if self._rs is not None:
            blocks = body.reshape(n * self._n_blocks, self._block_data)
            coded = self._rs.encode_blocks(blocks).reshape(n, self._coded_bytes)
            if self._interleaver is not None:
                coded = self._interleaver.interleave_many(coded)
            stream = coded
        else:
            stream = body

        bits = np.unpackbits(stream, axis=1)
        if cfg.scramble:
            bits = bits ^ self._pn[None, :]
        if self._conv is not None:
            bits = self._conv.encode_batch(bits)
        return bits

    # -- decode ------------------------------------------------------------

    def decode(self, soft_bits: np.ndarray) -> bytes:
        """Recover the payload from soft bits; raises on unrecoverable frames.

        ``soft_bits`` is the bipolar soft-decision stream from the
        demapper (positive favours bit 0).  Hard bits can be passed as
        ``1.0 - 2.0 * bits``.  One row of :meth:`decode_batch`.
        """
        payload = self.decode_batch(np.ravel(soft_bits))[0]
        if payload is None:
            raise FrameDecodeError("RS block beyond capacity or CRC-32 mismatch")
        return payload

    def decode_batch(self, soft_bits: np.ndarray) -> list[bytes | None]:
        """Recover many frames from a ``(n_frames, frame_bits)`` soft stack.

        Unrecoverable frames (an RS block beyond capacity, or a CRC-32
        mismatch) come back as ``None`` instead of raising, so one bad
        frame does not cost the rest of the burst.  Rows are decoded
        independently: a frame decodes the same in any batch.
        """
        soft = np.atleast_2d(np.asarray(soft_bits, dtype=np.float64))
        if soft.shape[1] < self._frame_bits:
            raise ValueError(
                f"expected {self._frame_bits} soft bits per frame, "
                f"got {soft.shape[1]}"
            )
        soft = soft[:, : self._frame_bits]
        n = soft.shape[0]

        byte_confidence: np.ndarray | None = None
        if self._conv is not None:
            bits = self._conv.decode_soft_batch(soft, self._info_bits)
        else:
            bits = (soft < 0).astype(np.uint8)
            if self.config.rs_erasures and self._rs is not None:
                # Confidence of a byte = its weakest bit's magnitude.
                byte_confidence = np.abs(soft).reshape(n, -1, 8).min(axis=2)
        if self.config.scramble:
            bits = bits ^ self._pn[None, :]
        stream = np.packbits(bits, axis=1)

        if self._rs is not None:
            if self._interleaver is not None:
                stream = self._interleaver.deinterleave_many(stream)
                if byte_confidence is not None:
                    byte_confidence = self._interleaver.deinterleave_many(
                        byte_confidence
                    )
            coded_block = self._block_data + self.config.rs_nsym
            blocks = stream.reshape(n * self._n_blocks, coded_block)
            erase_lists: list[list[int] | None] | None = None
            if byte_confidence is not None:
                conf_blocks = byte_confidence.reshape(n * self._n_blocks, coded_block)
                budget = max(0, self.config.rs_nsym - 2)
                erase_lists = []
                for conf in conf_blocks:
                    order = np.argsort(conf)[:budget]
                    threshold = float(np.median(conf)) * 0.5
                    erase_lists.append([int(p) for p in order if conf[p] < threshold])
            report = self._rs.decode_blocks(blocks, erase_lists)
            block_ok = report.ok.reshape(n, self._n_blocks)
            bodies = report.data.reshape(n, self._padded_body)
            frame_ok = block_ok.all(axis=1)
        else:
            bodies = stream
            frame_ok = np.ones(n, dtype=bool)

        ps = self.config.payload_size
        out: list[bytes | None] = []
        for i in range(n):
            if not frame_ok[i]:
                out.append(None)
                continue
            payload = bodies[i, :ps].tobytes()
            stored = int.from_bytes(bodies[i, ps : ps + 4].tobytes(), "big")
            out.append(payload if crc32_ieee(payload) == stored else None)
        return out
