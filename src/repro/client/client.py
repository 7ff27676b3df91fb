"""The SONIC client application.

Figure 3's three user classes map to :class:`ClientProfile` settings:

* **User A** — nearby FM radio over the air: ``connection="air"`` with a
  speaker-to-phone distance, no SMS.
* **User B** — phone with an internal FM tuner: ``connection="cable"``
  (zero air distance), no SMS.
* **User C** — radio via audio jack *and* an SMS plan: ``connection=
  "cable"``, ``has_sms=True`` — the only user able to request pages.

Pages are put together by a
:class:`~repro.client.streaming.StreamingPageAssembler`; the client keeps
the catalog announcements, its :class:`ClientCache` and the
``pending_requests``/``upcoming`` bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.client.browser import Browser
from repro.client.cache import ClientCache
from repro.client.streaming import StreamingPageAssembler, parse_received
from repro.sim.geometry import Location
from repro.sms.gateway import SmsGateway
from repro.sms.message import SmsMessage
from repro.sms.protocol import (
    PageRequest,
    RequestAck,
    RequestError,
    parse_downlink,
)
from repro.transport.bundle import PageBundle
from repro.transport.framing import Frame, FrameType

__all__ = ["ClientProfile", "SonicClient"]


@dataclass(frozen=True)
class ClientProfile:
    """Hardware and subscription capabilities of one user."""

    name: str
    location: Location
    connection: str = "cable"  # "cable" (tuner/jack) or "air"
    distance_m: float = 0.0  # speaker-to-mic gap when connection="air"
    has_sms: bool = False
    phone_number: str = ""
    screen_width: int = 360  # low-end device; source images are 1080

    def __post_init__(self) -> None:
        if self.connection not in ("cable", "air"):
            raise ValueError("connection must be 'cable' or 'air'")
        if self.has_sms and not self.phone_number:
            raise ValueError("an SMS-capable client needs a phone number")

    @property
    def scale_factor(self) -> float:
        """Image/click-map scaling factor (Section 3.2)."""
        return self.screen_width / 1080.0


class SonicClient:
    """Receives broadcasts, maintains the cache, issues requests."""

    def __init__(
        self,
        profile: ClientProfile,
        gateway: SmsGateway | None = None,
        server_number: str | None = None,
    ) -> None:
        self.profile = profile
        self.cache = ClientCache()
        self.browser = Browser(self.cache, scale_factor=profile.scale_factor)
        self._gateway = gateway
        self._server_number = server_number
        self._assembler = StreamingPageAssembler()
        self.pending_requests: dict[str, float] = {}  # url -> request time
        self.acks: list[RequestAck] = []
        self.errors: list[RequestError] = []
        self.upcoming: dict[str, "CatalogEntryInfo"] = {}  # from announcements
        self._catalog_frames: dict[int, Frame] = {}
        if gateway is not None and profile.has_sms:
            gateway.register(profile.phone_number, self._on_sms)

    # -- downlink ------------------------------------------------------------

    def on_frames(
        self, frames: list[Frame | None], now: float
    ) -> list[PageBundle]:
        """Ingest a received frame batch; None entries are lost frames.

        Returns bundles completed by this batch (already cached).  Gaps
        persist across batches, so later carousel cycles can fill them.
        Frames reach the page assembler one at a time, so catalog
        announcements and page completions apply in the order they
        arrived.
        """
        completed: list[PageBundle] = []
        for frame in frames:
            if frame is not None and frame.header.frame_type == FrameType.METADATA:
                self._ingest_catalog_frame(frame)
            for bundle in self._assembler.add([frame]):
                self.cache.put(bundle, now)
                self.pending_requests.pop(bundle.url, None)
                self.upcoming.pop(bundle.url, None)
                completed.append(bundle)
        return completed

    def on_received_frames(self, received, now: float) -> list[PageBundle]:
        """Ingest raw modem output (:class:`ReceivedFrame` batches).

        Adapter for the chunked dataflow: wire this as a
        :class:`~repro.core.stream.StreamSession` ``on_frames`` callback
        and the client consumes the broadcast incrementally — no
        whole-capture array, progressive page fill-in, and mid-carousel
        tune-in for free (missed columns are gaps a later cycle fills).
        """
        return self.on_frames(parse_received(received), now)

    def _ingest_catalog_frame(self, frame: Frame) -> None:
        """Accumulate catalog announcements into the 'upcoming' view."""
        from repro.transport.metadata import CatalogAnnouncement

        if self._catalog_frames:
            stored_total = next(iter(self._catalog_frames.values())).header.total
            if frame.header.total != stored_total:
                self._catalog_frames.clear()  # a new announcement started
        self._catalog_frames[frame.header.seq] = frame
        announcement = CatalogAnnouncement.from_frames(
            list(self._catalog_frames.values())
        )
        if announcement is None:
            return
        self._catalog_frames.clear()
        for entry in announcement.entries:
            self.upcoming[entry.url] = entry

    def reception_progress(self, page_id: int) -> float:
        """Best reception fraction across in-flight versions of a page."""
        return self._assembler.progress(page_id)

    @property
    def frames_seen(self) -> int:
        return self._assembler.frames_seen

    @property
    def frames_lost(self) -> int:
        return self._assembler.frames_lost

    # -- uplink ------------------------------------------------------------

    def request_page(self, url: str, now: float) -> bool:
        """Send a GET over SMS; False when this user has no uplink."""
        if not self.profile.has_sms or self._gateway is None:
            return False
        if self._server_number is None:
            raise ValueError("client has SMS but no server number configured")
        req = PageRequest(url, self.profile.location.lat, self.profile.location.lon)
        message = SmsMessage(
            self.profile.phone_number, self._server_number, req.to_text(), now
        )
        accepted = self._gateway.submit(message, now)
        if accepted:
            self.pending_requests[url] = now
        return accepted

    def search(self, query: str, now: float) -> bool:
        """Send a FIND query over SMS ("queries to search engines",
        Section 3.1); False when this user has no uplink."""
        if not self.profile.has_sms or self._gateway is None:
            return False
        if self._server_number is None:
            raise ValueError("client has SMS but no server number configured")
        from repro.sms.protocol import SearchRequest

        req = SearchRequest(
            query, self.profile.location.lat, self.profile.location.lon
        )
        message = SmsMessage(
            self.profile.phone_number, self._server_number, req.to_text(), now
        )
        return self._gateway.submit(message, now)

    def _on_sms(self, message: SmsMessage, now: float) -> None:
        try:
            reply = parse_downlink(message.text)
        except ValueError:
            return
        if isinstance(reply, RequestAck):
            self.acks.append(reply)
        else:
            self.errors.append(reply)
            self.pending_requests.pop(reply.url, None)

    # -- browsing ------------------------------------------------------------

    def click(self, x: int, y: int, now: float):
        """Tap the current page; auto-request on a cache miss if able."""
        result = self.browser.click(x, y, now)
        from repro.client.browser import ClickOutcome

        if result.outcome == ClickOutcome.NEEDS_UPLINK and result.href:
            self.request_page(result.href, now)
        return result

    @property
    def frame_loss_rate(self) -> float:
        """Observed fraction of lost frames."""
        if self.frames_seen == 0:
            return 0.0
        return self.frames_lost / self.frames_seen
