"""Incremental page assembly from a live decoded frame stream.

A SONIC phone does not wait for a capture to end: frames arrive while
the carousel is still on air, and the app fills pages in progressively —
including pages whose transmission was already under way when the user
tuned in (the missed columns arrive on the next carousel cycle).

:class:`StreamingPageAssembler` is that consumer and the one place a
page lands: it holds the only ``(page_id, version)`` slot store, decodes
each bundle once as its last frame lands, and reports reception
progress.  ``repro stream`` pushes it the
:class:`~repro.modem.modem.ReceivedFrame` batches a
:class:`~repro.modem.streaming.StreamingReceiver` emits; a
:class:`~repro.client.client.SonicClient` adds parsed frames one by one.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.imaging.codec import CodecError
from repro.modem.modem import ReceivedFrame
from repro.transport.bundle import BundleTransport, PageBundle
from repro.transport.framing import Frame, FrameType

__all__ = ["AssembledPage", "StreamingPageAssembler", "parse_received"]


def parse_received(received: Iterable[ReceivedFrame]) -> list[Frame | None]:
    """Modem output as transport frames; None marks a frame that failed
    FEC or whose header does not parse."""
    frames: list[Frame | None] = []
    for rx in received:
        try:
            frames.append(None if rx.payload is None else Frame.from_bytes(rx.payload))
        except (ValueError, KeyError):
            frames.append(None)
    return frames


@dataclass(frozen=True)
class AssembledPage:
    """One page completed mid-stream."""

    bundle: PageBundle
    completed_at: float  # stream time, seconds


class StreamingPageAssembler:
    """Progressive frames -> bundles consumer for the chunked dataflow."""

    def __init__(self) -> None:
        self._transport = BundleTransport()
        # Keyed by (page_id, version): chunks of different renders of
        # the same page must never mix.
        self._partial: dict[tuple[int, int], dict[int, Frame]] = {}
        self.pages: list[AssembledPage] = []
        self.pages_raw = 0  # reassembled fully but not a parseable bundle
        self.frames_seen = 0
        self.frames_lost = 0
        self.frames_alien = 0  # decoded fine but not a bundle frame

    def push(
        self, received: list[ReceivedFrame], now: float = 0.0
    ) -> list[PageBundle]:
        """Ingest one decoded batch; returns bundles it completed.

        Each completed bundle is also recorded in :attr:`pages`, stamped
        with ``now``.
        """
        completed = self.add(parse_received(received))
        self.pages.extend(AssembledPage(bundle, now) for bundle in completed)
        return completed

    def add(self, frames: list[Frame | None]) -> list[PageBundle]:
        """Ingest parsed frames (None = lost); returns bundles they completed.

        Lost frames leave gaps that persist across carousel cycles, so a
        later rebroadcast of the same version fills them — this is also
        what makes mid-carousel tune-in work: the columns missed before
        tune-in are just gaps like any other.  A frame whose ``total``
        disagrees with the frames already held for its version counts as
        lost, and the held frames stay.
        """
        completed: list[PageBundle] = []
        for frame in frames:
            self.frames_seen += 1
            if frame is None:
                self.frames_lost += 1
                continue
            header = frame.header
            if header.frame_type != FrameType.BUNDLE_BYTES:
                self.frames_alien += 1
                continue
            key = (header.page_id, header.col)
            slots = self._partial.setdefault(key, {})
            if slots and next(iter(slots.values())).header.total != header.total:
                self.frames_lost += 1
                continue
            slots[header.seq] = frame
            if len(slots) < header.total:
                continue
            # Every seq below total is held, so this is the whole blob.
            data = self._transport.reassemble(list(slots.values()))
            # This version is done; older partial versions are now moot.
            for k in [k for k in self._partial if k[0] == header.page_id]:
                del self._partial[k]
            try:
                completed.append(PageBundle.from_bytes(data))
            except (ValueError, CodecError):
                # Fully received, but the payload is not a bundle
                # (synthetic ``repro stream`` traffic, foreign apps), or
                # its image does not decode (frames of two blobs sent
                # under one version).
                self.pages_raw += 1
        return completed

    def progress(self, page_id: int) -> float:
        """Best reception fraction across in-flight versions of a page."""
        best = 0.0
        for (pid, _version), slots in self._partial.items():
            if pid != page_id or not slots:
                continue
            total = next(iter(slots.values())).header.total
            best = max(best, len(slots) / total)
        return best

    @property
    def pages_completed(self) -> int:
        """Fully received pages, whether or not they parsed as bundles."""
        return len(self.pages) + self.pages_raw

    @property
    def partial_pages(self) -> int:
        """Pages currently filling in (tuned-in mid-transmission or gapped)."""
        return len(self._partial)
