"""Sharded multi-station broadcast network with demand-driven scheduling.

SONIC's deployment story is a *national* FM data service: "the FM radio
infrastructure consists of multiple transmitters (and frequencies) at
different locations" (Section 3.1).  This module grows the single-server
model into that network:

* :class:`Station` — the per-region serving unit extracted out of
  :class:`~repro.server.server.SonicServer`: a transmitter set, the
  carousel(s) they drain, an :class:`AdaptiveProfileSelector`, and a
  view of the region's :class:`~repro.server.ledger.RequestLedger`.
* :class:`BroadcastNetwork` — N regional stations over one shared
  :class:`~repro.server.cache.BundleStore` (a page encoded for Lahore is
  never re-encoded for Karachi), scheduled by a
  :class:`~repro.server.scheduler.DemandScheduler` fed from each
  region's measured SMS demand.
* :func:`run_network` — an epoch-synchronous broadcast-day simulation.
  Stations evolve *independently within an epoch* (one hour) and the
  scheduler rebalances only at epoch boundaries, so the sharded run —
  stations stepped by a worker pool, or inline in any order — is
  bit-identical to the serial run: same per-station ledger digests,
  same schedule digests.  ``tests/test_server_network.py`` pins that
  determinism contract, and the ``network_day`` workload of
  ``python3 -m bench`` checks its seed-42 digest.

Profile adaptation happens at carousel-cycle boundaries: when every
page queued at the start of a cycle has finished transmitting, the
station adopts its selector's advice for the epoch's SNR and the
carousel rate follows the chosen profile — a degrading region's station
walks down the rate ladder (see ``tests/test_server_network.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.radio.lossmodel import FrameLossModel
from repro.server.cache import BundleStore, bundle_key
from repro.server.ledger import RequestLedger
from repro.server.scheduler import (
    AdaptiveProfileSelector,
    DemandConfig,
    DemandScheduler,
    schedule_digest,
)
from repro.server.transmitters import Transmitter, TransmitterRegistry
from repro.sim.geometry import (
    Location,
    PopulationGeometry,
    RegionPartition,
    distance_km,
)
from repro.sim.workload import PageSizeModel, RequestTraceConfig, generate_requests
from repro.sms.protocol import LinkReport
from repro.transport.carousel import BroadcastCarousel, CarouselItem
from repro.util.parallel import WorkerPool, worker_count
from repro.util.rng import derive_key, derive_rng
from repro.web.sites import SiteGenerator

__all__ = [
    "REQUEST_PRIORITY",
    "DEFAULT_PROFILE_LADDER",
    "DEFAULT_REGIONS",
    "RegionSpec",
    "Station",
    "NetworkConfig",
    "StationReport",
    "NetworkResult",
    "BroadcastNetwork",
    "run_network",
    "network_partition",
    "network_coverage",
]

#: Carousel priority of user-requested pages.  Demand scores are sums of
#: bounded EWMA/prior terms plus a slowly-growing aging term, so this
#: keeps the paper's invariant — requests outrank every push — by a
#: margin no realistic run can close.
REQUEST_PRIORITY = 1e12

#: (name, net payload bps, FER midpoint dB, FER scale dB) — a synthetic
#: four-rung rate ladder spanning the modem family's envelope: fast
#: rungs need a clean channel, the robust rung decodes near 0 dB.
DEFAULT_PROFILE_LADDER: tuple[tuple[str, float, float, float], ...] = (
    ("turbo", 16_000.0, 12.0, 1.5),
    ("fast", 10_000.0, 8.0, 1.5),
    ("base", 6_000.0, 4.0, 1.5),
    ("robust", 3_000.0, 0.0, 1.5),
)


@dataclass(frozen=True)
class RegionSpec:
    """One regional market a station serves."""

    name: str
    center: Location
    radius_km: float = 30.0
    #: SMS page requests per second originating in the region.
    rate_per_s: float = 0.04
    #: Representative receive SNR at the start of the run, and its
    #: per-hour drift — the knob a degrading-region test turns.
    snr_start_db: float = 16.0
    snr_drift_db_per_hour: float = 0.0

    def snr_at(self, epoch: int) -> float:
        return self.snr_start_db + self.snr_drift_db_per_hour * epoch


#: The paper's Pakistani deployment context: major metros, each with a
#: plausible relative request rate (bigger market, more SMS demand).
DEFAULT_REGIONS: tuple[RegionSpec, ...] = (
    RegionSpec("lahore", Location(31.5204, 74.3587), rate_per_s=0.06),
    RegionSpec("karachi", Location(24.8607, 67.0011), rate_per_s=0.08),
    RegionSpec("islamabad", Location(33.6844, 73.0479), rate_per_s=0.04),
    RegionSpec("peshawar", Location(34.0151, 71.5249), rate_per_s=0.03),
    RegionSpec("faisalabad", Location(31.4504, 73.1350), rate_per_s=0.035),
    RegionSpec("multan", Location(30.1575, 71.5249), rate_per_s=0.03),
    RegionSpec("hyderabad", Location(25.3960, 68.3578), rate_per_s=0.025),
    RegionSpec("quetta", Location(30.1798, 66.9750), rate_per_s=0.02),
)


class Station:
    """Per-region serving unit: transmitters, selector, ledger view.

    This is the state :class:`~repro.server.server.SonicServer` used to
    hold monolithically; the server now routes every enqueue through the
    owning station, and :class:`BroadcastNetwork` owns one ``Station``
    per region outright.
    """

    def __init__(
        self,
        station_id: str,
        transmitters: list[Transmitter],
        selector: AdaptiveProfileSelector | None = None,
        ledger: RequestLedger | None = None,
    ) -> None:
        self.station_id = station_id
        self.transmitters = list(transmitters)
        for tx in self.transmitters:
            if tx.station != station_id:
                raise ValueError(
                    f"transmitter {tx.station_id} belongs to {tx.station},"
                    f" not {station_id}"
                )
        self.selector = selector
        self.ledger = ledger
        self.advised_profile: str | None = None
        self.profile_switches = 0

    def covering(self, where: Location) -> Transmitter | None:
        """The station's nearest transmitter covering ``where``."""
        candidates = [tx for tx in self.transmitters if tx.covers(where)]
        if not candidates:
            return None
        return min(candidates, key=lambda tx: distance_km(tx.location, where))

    def enqueue(
        self,
        tx: Transmitter,
        url: str,
        data: bytes,
        priority: float,
        page_id: int,
        transport,
        version: int = 0,
        with_frames: bool = True,
    ) -> None:
        """Queue ``data`` on one of this station's carousels.

        Frame chunking goes through the transmitter's broadcast encode
        cache, so a repeat broadcast of byte-identical content reuses
        the previously chunked frames.
        """
        from repro.server.transmitters import payload_digest

        if tx not in self.transmitters:
            raise ValueError(f"{tx.station_id} is not a {self.station_id} transmitter")
        digest = payload_digest(data)
        frames = (
            tx.cache.frames(
                data,
                page_id=page_id,
                version=version,
                transport=transport,
                digest=digest,
            )
            if with_frames
            else None
        )
        tx.carousel.enqueue(
            CarouselItem(
                url, len(data), priority=priority, frames=frames, digest=digest
            )
        )

    def observe_report(self, report: LinkReport) -> str | None:
        """Fold a receiver report into this station's selector.

        Returns the advised profile (None without a selector) and counts
        advice changes as profile switches.
        """
        if self.selector is None:
            return None
        self.selector.observe(report)
        choice = self.selector.select(report.snr_db)
        if choice != self.advised_profile:
            if self.advised_profile is not None:
                self.profile_switches += 1
            self.advised_profile = choice
        return choice

    def demand_snapshot(
        self, since: float | None = None, until: float | None = None
    ) -> dict[int, int]:
        """Per-URL demand from the station's ledger (empty without one)."""
        if self.ledger is None:
            return {}
        return self.ledger.demand_counts(since=since, until=until)


@dataclass(frozen=True)
class NetworkConfig:
    """One multi-region broadcast-day simulation."""

    n_stations: int = 4
    hours: int = 24
    n_pages: int = 100
    seed: int = 42
    quality: int = 10
    #: Simulation step; must divide the 3600 s epoch evenly.
    tick_s: float = 60.0
    #: Requests-per-second override applied to every region (None keeps
    #: each region's own rate).
    request_rate_per_s: float | None = None
    #: Backpressure: arrivals are shed while a station's backlog exceeds
    #: this (a shed request still counts as demand).
    max_backlog_bytes: int = 48_000_000
    pages_per_station: int = 24
    demand_decay: float = 0.5
    regions: tuple[RegionSpec, ...] | None = None
    profiles: tuple[tuple[str, float, float, float], ...] = DEFAULT_PROFILE_LADDER
    loss_threshold: float = 0.1
    #: Frames per synthetic per-epoch receiver link report.
    link_report_frames: int = 256
    #: Adaptation deadline: a carousel cycle that has not completed
    #: within this long forces a profile-adoption boundary anyway.
    #: Under sustained overload, request-priority arrivals can preempt
    #: the cycle snapshot indefinitely — without the deadline a station
    #: would stay pinned to a dying rate rung forever.
    profile_deadline_s: float = 7200.0

    def __post_init__(self) -> None:
        if self.n_stations < 1:
            raise ValueError("network needs at least one station")
        if self.hours < 1:
            raise ValueError("hours must be >= 1")
        if self.n_pages % 4 != 0:
            raise ValueError("n_pages must be a multiple of 4")
        if self.tick_s <= 0 or 3600.0 % self.tick_s != 0.0:
            raise ValueError("tick_s must evenly divide the 3600 s epoch")
        if not self.profiles:
            raise ValueError("need at least one modem profile")
        if self.profile_deadline_s < self.tick_s:
            raise ValueError("profile_deadline_s must cover at least one tick")

    def resolved_regions(self) -> tuple[RegionSpec, ...]:
        """``n_stations`` regions: the defaults, extended if asked for more."""
        base = list(self.regions if self.regions is not None else DEFAULT_REGIONS)
        i = 0
        while len(base) < self.n_stations:
            # Satellite markets around the Punjab corridor; offsets keep
            # coverage discs disjoint.
            anchor = base[i % len(DEFAULT_REGIONS)]
            base.append(
                RegionSpec(
                    f"{anchor.name}-ext{i}",
                    Location(anchor.center.lat + 2.0 + i * 0.7, anchor.center.lon),
                    radius_km=anchor.radius_km,
                    rate_per_s=anchor.rate_per_s * 0.5,
                    snr_start_db=anchor.snr_start_db,
                )
            )
            i += 1
        if self.request_rate_per_s is not None:
            base = [
                RegionSpec(
                    r.name,
                    r.center,
                    r.radius_km,
                    self.request_rate_per_s,
                    r.snr_start_db,
                    r.snr_drift_db_per_hour,
                )
                for r in base
            ]
        return tuple(base[: self.n_stations])


def _build_selector(config: NetworkConfig) -> AdaptiveProfileSelector:
    return AdaptiveProfileSelector(
        {
            name: (rate, FrameLossModel(fer_midpoint_db=mid, fer_scale_db=scale))
            for name, rate, mid, scale in config.profiles
        },
        loss_threshold=config.loss_threshold,
    )


@dataclass
class _SimCore:
    """The picklable per-station state one epoch of simulation mutates.

    Everything a worker process needs travels inside: the carousel (no
    frame payloads, so items pickle small), the profile selector, and
    the bookkeeping.  The sqlite ledger stays in the parent — workers
    return ledger-event *ops* the parent applies in canonical station
    order, which is what makes sharded == serial bit-identical.
    """

    station_id: str
    urls: tuple[str, ...]
    carousel: BroadcastCarousel
    selector: AdaptiveProfileSelector
    profile_rates: dict[str, float]
    profile: str
    snr_db: float = 0.0
    pending: dict[int, list[int]] = field(default_factory=dict)
    cycle_pending: set[str] = field(default_factory=set)
    cycle_ticks: int = 0
    profile_switches: int = 0
    profile_history: list[str] = field(default_factory=list)
    n_requests: int = 0
    n_shed: int = 0
    backlog_samples: list[int] = field(default_factory=list)


def _step_station_epoch(
    core: _SimCore,
    epoch: int,
    times: np.ndarray,
    url_idx: np.ndarray,
    req_ids: np.ndarray,
    sizes: np.ndarray,
    versions: np.ndarray,
    tick_s: float,
    max_backlog: int,
    link_report_frames: int,
    deadline_ticks: int,
) -> list[tuple]:
    """Advance one station through one epoch; returns its ledger ops.

    Pure station-local computation — touches nothing shared — so any
    partition of stations across workers (or any execution order)
    reproduces identical cores and ops.
    """
    ops: list[tuple] = []
    carousel = core.carousel

    # One synthetic receiver report per epoch: the region's representative
    # listener measured the current profile at the epoch's SNR.  Loss
    # counts are the model's own expectation — deterministic feedback
    # that keeps the selector's refit loop exercised.
    fer = core.selector.predicted_loss(core.profile, core.snr_db)
    n_lost = int(round(min(max(fer, 0.0), 1.0) * link_report_frames))
    core.selector.observe(
        LinkReport(core.profile, core.snr_db, n_lost, link_report_frames)
    )

    t0 = epoch * 3600.0
    ticks = int(round(3600.0 / tick_s))
    cursor = 0
    n_arrivals = int(times.size)
    for k in range(ticks):
        t_end = t0 + (k + 1) * tick_s
        # Ingest this tick's SMS arrivals, in arrival order.
        queued: dict[int, tuple[list[int], list[float]]] = {}
        shed: dict[int, tuple[list[int], list[float]]] = {}
        while cursor < n_arrivals and times[cursor] < t_end:
            u = int(url_idx[cursor])
            rid = int(req_ids[cursor])
            at = float(times[cursor])
            core.n_requests += 1
            if u in core.pending:
                # Page already queued for earlier requesters: coalesce
                # (the repeat enqueue below only bumps priority).
                core.pending[u].append(rid)
                queued.setdefault(u, ([], []))[0].append(rid)
                queued[u][1].append(at)
            elif carousel.backlog_bytes() > max_backlog:
                core.n_shed += 1
                shed.setdefault(u, ([], []))[0].append(rid)
                shed[u][1].append(at)
            else:
                core.pending[u] = [rid]
                queued.setdefault(u, ([], []))[0].append(rid)
                queued[u][1].append(at)
                carousel.enqueue(
                    CarouselItem(
                        core.urls[u],
                        int(sizes[u]),
                        priority=REQUEST_PRIORITY,
                        digest=f"{u}|{int(versions[u])}",
                    )
                )
            cursor += 1
        for u, (rids, ats) in queued.items():
            ops.append(("insert", rids, u, ats, t_end, t_end, "queued"))
        for u, (rids, ats) in shed.items():
            ops.append(("insert", rids, u, ats, t_end, None, "shed"))

        completed = carousel.drain(tick_s)
        done_ids: list[int] = []
        for url in completed:
            u = core.urls.index(url) if url in core.urls else None
            if u is not None and u in core.pending:
                done_ids.extend(core.pending.pop(u))
        if done_ids:
            ops.append(("broadcast", done_ids, t_end))

        # Carousel-cycle boundary: everything queued at the cycle start
        # has now been transmitted — adopt the selector's advice before
        # starting the next cycle.  A cycle that outlives the adaptation
        # deadline (request-priority arrivals can preempt its snapshot
        # indefinitely under overload) forces a boundary anyway.
        core.cycle_pending.difference_update(completed)
        core.cycle_ticks += 1
        if not core.cycle_pending or core.cycle_ticks >= deadline_ticks:
            choice = core.selector.select(core.snr_db)
            if choice != core.profile:
                core.profile = choice
                carousel.rate_bps = core.profile_rates[choice]
                core.profile_switches += 1
            core.cycle_pending = {item.url for item in carousel._queue}
            core.cycle_ticks = 0

        core.backlog_samples.append(carousel.backlog_bytes())
    core.profile_history.append(core.profile)
    return ops


def _epoch_params(cfg: NetworkConfig) -> tuple:
    """Per-worker state: the run-wide arguments of ``_step_station_epoch``."""
    return (
        cfg.tick_s,
        cfg.max_backlog_bytes,
        cfg.link_report_frames,
        max(1, int(cfg.profile_deadline_s // cfg.tick_s)),
    )


def _epoch_worker(params: tuple, payload: tuple) -> tuple[_SimCore, list[tuple]]:
    core, args = payload
    ops = _step_station_epoch(core, *args, *params)
    return core, ops


@dataclass
class StationReport:
    """One station's outcome over the simulated horizon."""

    station_id: str
    region: RegionSpec
    n_requests: int
    n_broadcast: int
    n_shed: int
    goodput_bps: float
    peak_backlog_mb: float
    final_backlog_mb: float
    backlog_mb: np.ndarray
    sample_times_h: np.ndarray
    latency_p50_s: float
    latency_p99_s: float
    profile_switches: int
    final_profile: str
    profile_history: list[str]
    ledger_digest: str

    def to_json_dict(self) -> dict:
        return {
            "station_id": self.station_id,
            "region": self.region.name,
            "n_requests": self.n_requests,
            "n_broadcast": self.n_broadcast,
            "n_shed": self.n_shed,
            "goodput_bps": round(self.goodput_bps, 1),
            "peak_backlog_mb": round(self.peak_backlog_mb, 3),
            "final_backlog_mb": round(self.final_backlog_mb, 3),
            "latency_p50_s": round(self.latency_p50_s, 1),
            "latency_p99_s": round(self.latency_p99_s, 1),
            "profile_switches": self.profile_switches,
            "final_profile": self.final_profile,
            "ledger_digest": self.ledger_digest,
        }


@dataclass
class NetworkResult:
    """Everything one network run produced, per station and shared."""

    config: NetworkConfig
    stations: list[StationReport]
    schedule_digests: list[str]
    store_hits: int
    store_misses: int

    def station(self, station_id: str) -> StationReport:
        for report in self.stations:
            if report.station_id == station_id:
                return report
        raise KeyError(station_id)

    def network_digest(self) -> str:
        """One hash over every determinism-relevant artefact.

        Serial and sharded runs of the same config must agree on this:
        per-station ledger digests (request life cycles), the schedule
        digests (what the demand scheduler decided each epoch).
        """
        h = hashlib.sha256()
        for report in self.stations:
            h.update(report.station_id.encode())
            h.update(report.ledger_digest.encode())
        for digest in self.schedule_digests:
            h.update(digest.encode())
        return h.hexdigest()

    def to_json_dict(self) -> dict:
        return {
            "n_stations": self.config.n_stations,
            "hours": self.config.hours,
            "n_pages": self.config.n_pages,
            "seed": self.config.seed,
            "network_digest": self.network_digest(),
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "stations": [s.to_json_dict() for s in self.stations],
        }


class BroadcastNetwork:
    """N regional stations over one shared bundle store.

    Owns the registry (one transmitter per region, grouped by station),
    the per-region ledgers, the region-local Tranco priors, and the
    :class:`DemandScheduler` that allocates pages to stations at every
    epoch boundary.
    """

    def __init__(self, config: NetworkConfig = NetworkConfig()) -> None:
        self.config = config
        self.regions = config.resolved_regions()
        self.generator = SiteGenerator(seed=config.seed, n_sites=config.n_pages // 4)
        self.urls: tuple[str, ...] = tuple(self.generator.all_urls())
        self.size_model = PageSizeModel(self.generator, quality=config.quality)
        self.store = BundleStore(capacity=4 * config.n_pages)
        self.registry = TransmitterRegistry()
        self.stations: dict[str, Station] = {}
        self.ledgers: dict[str, RequestLedger] = {}
        priors: dict[str, np.ndarray] = {}
        for i, region in enumerate(self.regions):
            tx = Transmitter(
                station_id=f"{region.name}-fm",
                location=region.center,
                frequency_mhz=88.0 + (i % 10) * 2.0,
                coverage_km=region.radius_km,
                rate_bps=config.profiles[0][1],
                station=region.name,
            )
            self.registry.add(tx)
            self.stations[region.name] = Station(
                region.name,
                [tx],
                selector=_build_selector(config),
                ledger=RequestLedger(),
            )
            self.ledgers[region.name] = self.stations[region.name].ledger
            priors[region.name] = self._region_prior(region.name)
        self.scheduler = DemandScheduler(
            [r.name for r in self.regions],
            config.n_pages,
            priors=priors,
            config=DemandConfig(
                decay=config.demand_decay,
                pages_per_station=config.pages_per_station,
                seed=config.seed,
            ),
        )

    def _region_prior(self, name: str) -> np.ndarray:
        """Region-local Tranco prior: the global rank order, locally
        permuted (every market has its own hometown favourites), with
        the global ``1/(rank+1)^0.9`` weight law on the local ranks."""
        n = self.config.n_pages
        local_rank = derive_rng(self.config.seed, "region-rank", name).permutation(n)
        prior = (1.0 / (local_rank + 1.0)) ** 0.9
        return prior / prior.sum()

    def region_trace(self, region: RegionSpec):
        """The region's deterministic SMS request trace for the horizon."""
        return generate_requests(
            RequestTraceConfig(
                hours=float(self.config.hours),
                n_pages=self.config.n_pages,
                rate_per_s=region.rate_per_s,
                seed=derive_key(self.config.seed, "region-trace", region.name),
            )
        )

    def close(self) -> None:
        for ledger in self.ledgers.values():
            ledger.close()

    # -- the epoch-synchronous run ------------------------------------------

    def _make_cores(self) -> dict[str, _SimCore]:
        cores = {}
        for region in self.regions:
            station = self.stations[region.name]
            selector = station.selector
            assert selector is not None
            rates = {name: rate for name, rate, _, _ in self.config.profiles}
            profile = selector.select(region.snr_start_db)
            tx = station.transmitters[0]
            tx.carousel.rate_bps = rates[profile]
            cores[region.name] = _SimCore(
                station_id=region.name,
                urls=self.urls,
                carousel=tx.carousel,
                selector=selector,
                profile_rates=rates,
                profile=profile,
            )
        return cores

    def _epoch_pages(self, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """(sizes, versions) of every corpus page at ``epoch``."""
        versions = np.array(
            [self.generator.effective_epoch(url, epoch) for url in self.urls],
            dtype=np.int64,
        )
        sizes = np.array(
            [
                self.size_model.size_at(url, int(versions[i]))
                for i, url in enumerate(self.urls)
            ],
            dtype=np.int64,
        )
        return sizes, versions

    def _apply_ops(self, ledger: RequestLedger, ops: list[tuple]) -> None:
        for op in ops:
            if op[0] == "insert":
                _, rids, u, ats, acked, scheduled, status = op
                ledger.insert(rids, u, ats, acked, scheduled, status)
            else:
                _, rids, t = op
                ledger.mark_broadcast(np.asarray(rids), t)
        ledger.commit()

    def run(
        self, sharded: bool = False, processes: int | None = None
    ) -> NetworkResult:
        """Simulate the broadcast horizon; serial or sharded.

        ``sharded=True`` steps each epoch's stations concurrently (a
        process pool when ``processes`` allows, otherwise inline in
        deliberately *reversed* station order — proving order cannot
        matter).  Either way the result is bit-identical to the serial
        run: cores are station-local, ledger ops are applied in
        canonical station order, and the scheduler only ever runs in the
        parent at epoch boundaries.
        """
        cfg = self.config
        cores = self._make_cores()
        station_ids = [r.name for r in self.regions]
        traces = {r.name: self.region_trace(r) for r in self.regions}
        cursors = {sid: 0 for sid in station_ids}
        schedule_digests: list[str] = []

        processes = worker_count(processes, len(station_ids)) if sharded else 1
        with WorkerPool(processes, _epoch_params, cfg) as pool:
            for epoch in range(cfg.hours):
                sizes, versions = self._epoch_pages(epoch)
                allocations = self.scheduler.rebalance(epoch)
                schedule_digests.append(schedule_digest(allocations))

                # Push the epoch's allocation through the *shared* store:
                # the first station needing a (url, version) encodes it,
                # every later one reuses the bytes.  Done in the parent,
                # in canonical order, so sharding can't change accounting.
                for sid in station_ids:
                    core = cores[sid]
                    core.snr_db = self._region(sid).snr_at(epoch)
                    for u, score in allocations[sid]:
                        url = self.urls[u]
                        version = int(versions[u])
                        key = bundle_key(
                            url, version, 0, None, cfg.quality, cfg.seed
                        )
                        if self.store.get(key) is None:
                            self.store.put(key, f"{url}|{version}".encode())
                        core.carousel.enqueue(
                            CarouselItem(
                                url,
                                int(sizes[u]),
                                priority=score,
                                digest=f"{u}|{version}",
                            )
                        )

                payloads = []
                for sid in station_ids:
                    trace = traces[sid]
                    lo = cursors[sid]
                    hi = int(
                        np.searchsorted(trace.times, (epoch + 1) * 3600.0, "left")
                    )
                    cursors[sid] = hi
                    payloads.append(
                        (
                            cores[sid],
                            (
                                epoch,
                                trace.times[lo:hi],
                                trace.url_index[lo:hi],
                                np.arange(lo, hi),
                                sizes,
                                versions,
                            ),
                        )
                    )

                if sharded and processes == 1:
                    # Inline sharding steps the stations in reversed order:
                    # a different execution order must (and does) produce
                    # the same cores and ops.
                    stepped = pool.map(_epoch_worker, payloads[::-1])[::-1]
                else:
                    stepped = pool.map(_epoch_worker, payloads)

                for sid, (core, ops) in zip(station_ids, stepped):
                    cores[sid] = core
                    self._apply_ops(self.ledgers[sid], ops)

                # Close the demand loop: each station's measured request
                # counts for this epoch feed the next rebalance.
                for sid in station_ids:
                    counts = self.ledgers[sid].demand_counts(
                        since=epoch * 3600.0, until=(epoch + 1) * 3600.0
                    )
                    self.scheduler.observe(sid, counts)

        return self._collect(cores, schedule_digests)

    def _region(self, sid: str) -> RegionSpec:
        return next(r for r in self.regions if r.name == sid)

    def _collect(
        self, cores: dict[str, _SimCore], schedule_digests: list[str]
    ) -> NetworkResult:
        cfg = self.config
        duration_s = cfg.hours * 3600.0
        ticks = int(round(3600.0 / cfg.tick_s)) * cfg.hours
        sample_times_h = (np.arange(1, ticks + 1) * cfg.tick_s) / 3600.0
        reports = []
        for region in self.regions:
            core = cores[region.name]
            ledger = self.ledgers[region.name]
            stats = ledger.stats()
            backlog_mb = np.asarray(core.backlog_samples, dtype=np.float64) / 1e6
            reports.append(
                StationReport(
                    station_id=region.name,
                    region=region,
                    n_requests=core.n_requests,
                    n_broadcast=stats.n_broadcast,
                    n_shed=core.n_shed,
                    goodput_bps=core.carousel.total_sent_bytes * 8.0 / duration_s,
                    peak_backlog_mb=float(backlog_mb.max(initial=0.0)),
                    final_backlog_mb=float(backlog_mb[-1]) if backlog_mb.size else 0.0,
                    backlog_mb=backlog_mb,
                    sample_times_h=sample_times_h,
                    latency_p50_s=stats.percentile(50.0),
                    latency_p99_s=stats.percentile(99.0),
                    profile_switches=core.profile_switches,
                    final_profile=core.profile,
                    profile_history=core.profile_history,
                    ledger_digest=ledger.digest(),
                )
            )
        return NetworkResult(
            config=cfg,
            stations=reports,
            schedule_digests=schedule_digests,
            store_hits=self.store.stats.hits,
            store_misses=self.store.stats.misses,
        )


def run_network(
    config: NetworkConfig = NetworkConfig(),
    sharded: bool = False,
    processes: int | None = None,
) -> NetworkResult:
    """Build a :class:`BroadcastNetwork` and simulate the horizon."""
    network = BroadcastNetwork(config)
    try:
        return network.run(sharded=sharded, processes=processes)
    finally:
        network.close()


def network_partition(config: NetworkConfig) -> RegionPartition:
    """Nearest-station partition over the network's region masts."""
    regions = config.resolved_regions()
    return RegionPartition(
        names=tuple(r.name for r in regions),
        centers=tuple(r.center for r in regions),
    )


def network_coverage(
    config: NetworkConfig,
    n_receivers: int = 20_000,
    result: NetworkResult | None = None,
):
    """Per-station Tier-2 coverage for the network's listener fleet.

    Scatters each station's share of the listeners over its own
    coverage disc (capped at the 2 km propagation-sane radius of the
    TR508-class mast), runs the statistical population tier per
    station under the loss curve of the profile the station ended the
    broadcast day on (``result``; the fastest rung when no run is
    given), and attributes every receiver to its nearest station via
    :func:`repro.sim.population.per_station_coverage` — the fleet's
    per-station coverage report.
    """
    from repro.sim.population import (
        PopulationConfig,
        StationCoverage,
        per_station_coverage,
        run_population,
    )

    regions = config.resolved_regions()
    partition = network_partition(config)
    models = {
        name: FrameLossModel(fer_midpoint_db=mid, fer_scale_db=scale)
        for name, _, mid, scale in config.profiles
    }
    share = max(1, n_receivers // len(regions))
    merged: list[StationCoverage] = []
    for region in regions:
        profile = config.profiles[0][0]
        if result is not None:
            profile = result.station(region.name).final_profile
        pop = run_population(
            models[profile],
            PopulationConfig(
                n_receivers=share,
                hours=1.0,
                master_seed=derive_key(config.seed, "coverage", region.name),
                pages=config.n_pages,
                frames_per_page=64,
                geometry=PopulationGeometry(
                    center=region.center,
                    radius_km=min(region.radius_km, 2.0),
                ),
                frame_duration_s=0.1,
            ),
        )
        for cov in per_station_coverage(pop, partition):
            if cov.n_receivers:
                merged.append(cov)
    # A station's disc can straddle a partition boundary (satellite
    # markets); merge slices attributed to the same station.
    by_station: dict[str, list[StationCoverage]] = {}
    for cov in merged:
        by_station.setdefault(cov.station, []).append(cov)
    out = []
    for name in partition.names:
        slices = by_station.get(name, [])
        n = sum(s.n_receivers for s in slices)
        if n == 0:
            out.append(StationCoverage(name, 0, float("nan"), float("nan"), float("nan")))
            continue
        out.append(
            StationCoverage(
                station=name,
                n_receivers=n,
                mean_loss_rate=sum(s.mean_loss_rate * s.n_receivers for s in slices) / n,
                mean_readability=sum(s.mean_readability * s.n_receivers for s in slices) / n,
                mean_pages_fraction=sum(
                    s.mean_pages_fraction * s.n_receivers for s in slices
                )
                / n,
            )
        )
    return out
