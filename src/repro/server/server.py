"""The SONIC server: SMS requests in, FM broadcasts out (Section 3.1).

Workflow for a request: parse the SMS, locate a transmitter covering the
user, take the page's encoded bundle from the shared catalog pipeline
(its bundle store first, render otherwise), queue it on that
transmitter's carousel ahead of the popularity pushes, and reply with an
ACK carrying the airtime estimate.  An hourly tick re-renders changed
popular pages and queues them as preemptive pushes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.server.cache import BundleStore
from repro.server.catalog import CatalogConfig, CatalogPage, CatalogPipeline
from repro.server.scheduler import (
    REQUEST_PRIORITY,
    AdaptiveProfileSelector,
    PopularityScheduler,
)
from repro.server.transmitters import (
    Transmitter,
    TransmitterRegistry,
)
from repro.sim.geometry import Location
from repro.sms.gateway import SmsGateway
from repro.sms.message import SmsMessage
from repro.sms.protocol import (
    LinkReport,
    PageRequest,
    ProfileAdvice,
    RequestAck,
    RequestError,
    SearchRequest,
    parse_uplink,
)
from repro.transport.bundle import BundleTransport, PageBundle
from repro.transport.carousel import CarouselItem
from repro.transport.framing import FRAME_SIZE
from repro.web.dom import Heading, LinkList, Page, Paragraph
from repro.web.render import PageRenderer
from repro.web.sites import SiteGenerator

__all__ = ["ServerConfig", "SonicServer"]

#: URL fragments of pages behind a login, which a one-way broadcast
#: cannot serve: requests for them are rejected as ``unsupported-auth``.
UNSUPPORTED_MARKERS = ("login", "account", "bank", "signin")


@dataclass(frozen=True)
class ServerConfig:
    """Server behaviour knobs."""

    sms_number: str = "+92300766421"
    render_width: int = 1080
    max_pixel_height: int | None = 10_000


@dataclass
class ServerStats:
    """Counters for the evaluation harness."""

    requests: int = 0
    renders: int = 0
    store_hits: int = 0  # encoded bundles reused from the BundleStore
    rejected: int = 0
    pushes: int = 0
    searches: int = 0
    link_reports: int = 0
    profile_switches: int = 0


class SonicServer:
    """Central SONIC service tying web, bundle store, SMS, and transmitters."""

    def __init__(
        self,
        generator: SiteGenerator,
        transmitters: TransmitterRegistry,
        gateway: SmsGateway,
        config: ServerConfig = ServerConfig(),
        profile_selector: AdaptiveProfileSelector | None = None,
    ) -> None:
        self.generator = generator
        self.transmitters = transmitters
        self.gateway = gateway
        self.config = config
        self.bundle_store = BundleStore()
        self.scheduler = PopularityScheduler(generator)
        self.renderer = PageRenderer(
            width=config.render_width, max_height=config.max_pixel_height
        )
        self._transport = BundleTransport()
        self._page_ids: dict[str, int] = {}
        self._catalog_pipeline: CatalogPipeline | None = None  # built lazily
        self.profile_selector = profile_selector
        self._advised_profile: str | None = None
        self.stats = ServerStats()
        gateway.register(config.sms_number, self._on_sms)

    # -- identifiers ------------------------------------------------------------

    def page_id(self, url: str) -> int:
        """Stable 16-bit id for a URL (frame headers carry it)."""
        if url not in self._page_ids:
            self._page_ids[url] = len(self._page_ids) % 65_536
        return self._page_ids[url]

    # -- pages ----------------------------------------------------------------

    def page(self, url: str, now: float) -> CatalogPage:
        """The page's encoded bundle as it stands at simulation time ``now``.

        Comes from the shared :meth:`catalog_pipeline`: its bundle store
        when any hour, request or push already encoded this (url, epoch)
        at the server's render settings, otherwise a render + encode
        that lands in the store.  Raises ``KeyError`` for a URL outside
        the corpus.
        """
        page = self.catalog_pipeline().encode_page(url, int(now // 3600))
        if page.from_store:
            self.stats.store_hits += 1
        else:
            self.stats.renders += 1
        return page

    # -- broadcasting ------------------------------------------------------------

    def enqueue_broadcast(
        self,
        tx: Transmitter,
        url: str,
        data: bytes,
        priority: float,
        version: int = 0,
    ) -> None:
        """Queue ``data`` on a transmitter's carousel under the URL's page id."""
        tx.enqueue(
            url,
            data,
            priority=priority,
            page_id=self.page_id(url),
            transport=self._transport,
            version=version,
        )

    # -- SMS handling ------------------------------------------------------------

    def _reply(self, to: str, text: str, now: float) -> None:
        self.gateway.submit(
            SmsMessage(self.config.sms_number, to, text, submitted_at=now), now
        )

    def _on_sms(self, message: SmsMessage, now: float) -> None:
        try:
            request = parse_uplink(message.text)
        except ValueError:
            self.stats.rejected += 1
            self._reply(message.sender, RequestError("-", "malformed").to_text(), now)
            return
        if isinstance(request, PageRequest):
            self.handle_page_request(request, message.sender, now)
        elif isinstance(request, LinkReport):
            self.handle_link_report(request, message.sender, now)
        else:
            self.handle_search(request, message.sender, now)

    def handle_link_report(
        self, report: LinkReport, sender: str, now: float
    ) -> None:
        """RPT: fold receiver feedback in, advise the best burst profile.

        The selector refits the reported profile's loss curve from the
        accumulated samples and the reply names the fastest profile
        predicted to survive the reported SNR — so as a client's channel
        degrades, successive replies walk down the rate ladder.
        """
        self.stats.link_reports += 1
        if self.profile_selector is None:
            self._reply(
                sender, RequestError(report.profile, "no-adaptation").to_text(), now
            )
            return
        self.profile_selector.observe(report)
        choice = self.profile_selector.select(report.snr_db)
        if choice != self._advised_profile:
            self.stats.profile_switches += 1
            self._advised_profile = choice
        self._reply(sender, ProfileAdvice(choice).to_text(), now)

    def handle_page_request(
        self, request: PageRequest, sender: str, now: float
    ) -> None:
        """The paper's core request flow: validate, render, queue, ACK."""
        self.stats.requests += 1
        url = request.url
        if any(marker in url for marker in UNSUPPORTED_MARKERS):
            self.stats.rejected += 1
            self._reply(sender, RequestError(url, "unsupported-auth").to_text(), now)
            return
        where = Location(request.lat, request.lon)
        tx = self.transmitters.covering(where)
        if tx is None:
            self.stats.rejected += 1
            self._reply(sender, RequestError(url, "no-coverage").to_text(), now)
            return
        try:
            page = self.page(url, now)
        except KeyError:
            self.stats.rejected += 1
            self._reply(sender, RequestError(url, "unknown-site").to_text(), now)
            return
        self.enqueue_broadcast(
            tx, url, page.data, priority=REQUEST_PRIORITY, version=page.epoch
        )
        eta = tx.carousel.eta_seconds(url) or 0.0
        self._reply(sender, RequestAck(url, eta).to_text(), now)

    def handle_search(self, request: SearchRequest, sender: str, now: float) -> None:
        """FIND: build a results page over the corpus and broadcast it."""
        self.stats.searches += 1
        where = Location(request.lat, request.lon)
        tx = self.transmitters.covering(where)
        if tx is None:
            self.stats.rejected += 1
            self._reply(sender, RequestError("search", "no-coverage").to_text(), now)
            return
        url = f"sonic.search/{'+'.join(request.query.lower().split())}"
        results = self._search_corpus(request.query, now)
        page = Page(
            url=url,
            title=f"Search: {request.query}",
            elements=[
                Heading(f"Results for '{request.query}'", level=1),
                Paragraph(f"{len(results)} matching pages in the SONIC catalog."),
                LinkList(tuple(results[:10])),
            ],
        )
        rendered = self.renderer.render(page)
        bundle = PageBundle(url, rendered.image, rendered.clickmap)
        self.enqueue_broadcast(tx, url, bundle.to_bytes(), priority=REQUEST_PRIORITY)
        eta = tx.carousel.eta_seconds(url) or 0.0
        self._reply(sender, RequestAck(url, eta).to_text(), now)

    def _search_corpus(self, query: str, now: float) -> list[tuple[str, str]]:
        """Keyword search over page headlines (label, href)."""
        hour = int(now // 3600)
        terms = set(query.lower().split())
        hits: list[tuple[int, str, str]] = []
        for url in self.generator.all_urls():
            page = self.generator.page(url, hour)
            for el in page.elements:
                if isinstance(el, Heading):
                    words = set(el.text.lower().split())
                    score = len(terms & words)
                    if score:
                        hits.append((score, el.text, url))
                    break  # first heading is the headline
        hits.sort(key=lambda h: -h[0])
        return [(text, url) for _, text, url in hits]

    # -- catalog announcements ------------------------------------------------

    def broadcast_catalog(self, tx: Transmitter, now: float) -> int:
        """Announce the transmitter's queue as METADATA frames.

        Lets downlink-only users see what is coming and when (the
        client app's "upcoming" view).  Returns the entry count.
        """
        from repro.transport.metadata import CatalogAnnouncement, CatalogEntryInfo

        hour = int(now // 3600)
        entries = []
        for item in tx.carousel.queued_items():
            version = (
                item.frames[0].header.col if item.frames else
                self.generator.effective_epoch(item.url, hour)
                if self._known_url(item.url)
                else 0
            )
            entries.append(
                CatalogEntryInfo(
                    url=item.url,
                    page_id=self.page_id(item.url),
                    version=version,
                    size_bytes=item.size_bytes,
                    eta_seconds=tx.carousel.eta_seconds(item.url) or 0.0,
                )
            )
        announcement = CatalogAnnouncement(tx.station_id, entries)
        frames = announcement.to_frames()
        tx.carousel.enqueue(
            CarouselItem(
                f"sonic.catalog/{tx.station_id}",
                len(frames) * FRAME_SIZE,
                priority=2 * REQUEST_PRIORITY,
                frames=frames,
            )
        )
        return len(entries)

    def catalog_pipeline(self) -> CatalogPipeline:
        """The server's shared :class:`~repro.server.catalog.CatalogPipeline`.

        Built once (lazily) over this server's generator and bundle
        store, so every :meth:`page` lookup and ``push_catalog`` call —
        and the worker pool ``push_catalog`` starts — is reused across
        hours instead of respawned per call.  Call :meth:`close` when
        done.
        """
        if self._catalog_pipeline is None:
            self._catalog_pipeline = CatalogPipeline(
                CatalogConfig(
                    seed=self.generator.seed,
                    n_sites=self.generator.n_sites,
                    width=self.config.render_width,
                    max_height=self.config.max_pixel_height,
                ),
                store=self.bundle_store,
                generator=self.generator,
            )
        return self._catalog_pipeline

    def close(self) -> None:
        """Release the catalog pipeline's worker pool, if one is running."""
        if self._catalog_pipeline is not None:
            self._catalog_pipeline.close()

    def push_catalog(
        self,
        tx: Transmitter,
        now: float,
        urls: list[str] | None = None,
        processes: int | None = None,
    ):
        """Encode the catalog through the pooled pipeline and broadcast it.

        All (or the given) corpus pages are rendered/encoded via the
        shared :meth:`catalog_pipeline` backed by this server's
        :attr:`bundle_store` — so a warm store (a later hour, a rerun)
        skips re-encoding entirely — then queued on ``tx`` at their
        popularity priority, followed by a catalog announcement.  The
        pipeline's pool is started with ``processes`` workers (None: one
        per core) and kept until :meth:`close`.  Returns the
        :class:`~repro.server.catalog.CatalogResult`.
        """
        hour = int(now // 3600)
        pipeline = self.catalog_pipeline().start(processes)
        result = pipeline.encode_catalog(urls, hour)
        for page in result.pages:
            self.enqueue_broadcast(
                tx,
                page.url,
                page.data,
                priority=self.scheduler.page_priority(page.url, hour),
                version=page.epoch,
            )
        self.stats.pushes += result.n_pages
        self.broadcast_catalog(tx, now)
        return result

    def _known_url(self, url: str) -> bool:
        try:
            self.generator.website(url.partition("/")[0])
            return True
        except KeyError:
            return False

    # -- hourly push ------------------------------------------------------------

    def hourly_push(self, now: float) -> int:
        """Render changed popular pages, queue them on every transmitter."""
        hour = int(now // 3600)
        pushed = 0
        transmitters = self.transmitters.all()
        for url, priority in self.scheduler.pages_to_push(hour):
            page = self.page(url, now)
            for tx in transmitters:
                self.enqueue_broadcast(
                    tx, url, page.data, priority=priority, version=page.epoch
                )
            pushed += 1
        self.stats.pushes += pushed
        return pushed
