"""Bundle transport: compressed pages as chunked byte payloads.

This is the transport whose byte counts the paper's airtime math uses
(Figures 4(b)/(c)): the SWebp-compressed screenshot plus its click map
and metadata travel as an opaque bundle, chunked into 100-byte frames.
A bundle only opens once every chunk is present; the broadcast carousel
repeats bundles so receivers fill their gaps on later cycles.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.imaging.codec import SWebpCodec
from repro.transport.framing import (
    Frame,
    FrameHeader,
    FrameType,
    PAYLOAD_SIZE,
)
from repro.web.clickmap import ClickMap

__all__ = ["EXPIRY_HOURS", "BROADCAST_QUALITY", "PageBundle", "BundleTransport"]

_BUNDLE_MAGIC = b"SNBD"

#: Client cache lifetime the server stamps on every bundle: the corpus
#: is re-rendered hourly, so a day-old screenshot is stale.
EXPIRY_HOURS = 24.0
#: SWebp quality of every broadcast page: Q10, the paper's choice for
#: the FM downlink (Fig. 4(b)).
BROADCAST_QUALITY = 10


@dataclass
class PageBundle:
    """Everything a client needs to show and interact with one page."""

    url: str
    image: np.ndarray  # (H, W, 3) uint8 screenshot
    clickmap: ClickMap
    expiry_hours: float = EXPIRY_HOURS  # cache lifetime dictated by the server
    quality: int = BROADCAST_QUALITY

    def to_bytes(self) -> bytes:
        """Serialise: header + click map + SWebp image."""
        codec = SWebpCodec(self.quality)
        image_bytes = codec.encode(self.image)
        click_bytes = self.clickmap.to_bytes()
        url_bytes = self.url.encode("utf-8")
        if len(url_bytes) > 65_535:
            raise ValueError("URL too long")
        head = _BUNDLE_MAGIC + struct.pack(
            ">HfII", len(url_bytes), self.expiry_hours, len(click_bytes), len(image_bytes)
        )
        return head + url_bytes + click_bytes + image_bytes

    @classmethod
    def from_bytes(cls, data: bytes) -> "PageBundle":
        """Parse and decode a serialised bundle.

        Raises ``ValueError`` for structural damage and
        :class:`repro.imaging.codec.CodecError` for image damage.
        """
        if data[:4] != _BUNDLE_MAGIC:
            raise ValueError("bad bundle magic")
        try:
            url_len, expiry, click_len, image_len = struct.unpack_from(
                ">HfII", data, 4
            )
        except struct.error as exc:
            raise ValueError("truncated bundle header") from exc
        pos = 4 + struct.calcsize(">HfII")
        if pos + url_len + click_len + image_len > len(data):
            raise ValueError("truncated bundle body")
        try:
            url = data[pos : pos + url_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError("malformed bundle URL") from exc
        pos += url_len
        clickmap = ClickMap.from_bytes(data[pos : pos + click_len])
        pos += click_len
        image_bytes = data[pos : pos + image_len]
        image = SWebpCodec().decode(image_bytes)
        quality = image_bytes[10]
        return cls(url, image, clickmap, expiry_hours=expiry, quality=quality)


class BundleTransport:
    """Chunk opaque byte blobs into frames and reassemble them."""

    def chunk(self, data: bytes, page_id: int = 0, version: int = 0) -> list[Frame]:
        """Split ``data`` into BUNDLE_BYTES frames.

        ``version`` distinguishes successive renders of the same page: a
        receiver must never mix chunks of different versions, since both
        travel under the same page id.  (It rides in the otherwise-unused
        ``col`` header field.)
        """
        total = max(1, -(-len(data) // PAYLOAD_SIZE))
        frames = []
        for seq in range(total):
            chunk = data[seq * PAYLOAD_SIZE : (seq + 1) * PAYLOAD_SIZE]
            frames.append(
                Frame(
                    FrameHeader(
                        FrameType.BUNDLE_BYTES,
                        page_id,
                        seq,
                        total,
                        col=version & 0xFFFF,
                        n_pixels=len(chunk),
                    ),
                    chunk,
                )
            )
        return frames

    def frames_needed(self, data_len: int) -> int:
        """Frame count for a payload of ``data_len`` bytes."""
        return max(1, -(-data_len // PAYLOAD_SIZE))

    def reassemble(self, frames: list[Frame]) -> bytes | None:
        """Rebuild the byte blob; None while any chunk is missing."""
        if not frames:
            return None
        total = frames[0].header.total
        by_seq: dict[int, Frame] = {}
        for frame in frames:
            if frame.header.frame_type != FrameType.BUNDLE_BYTES:
                continue
            if frame.header.total != total:
                raise ValueError("inconsistent totals in bundle frames")
            by_seq[frame.header.seq] = frame
        if len(by_seq) < total:
            return None
        parts = []
        for seq in range(total):
            frame = by_seq[seq]
            parts.append(frame.payload[: frame.header.n_pixels])
        return b"".join(parts)
