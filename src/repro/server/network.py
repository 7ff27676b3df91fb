"""Multi-station broadcast network with demand-driven scheduling.

SONIC's deployment story is a *national* FM data service: "the FM radio
infrastructure consists of multiple transmitters (and frequencies) at
different locations" (Section 3.1).  This module grows the single-server
model into that network:

* :class:`BroadcastNetwork` — N regional stations over one shared
  :class:`~repro.server.cache.BundleStore` (a page encoded for Lahore is
  never re-encoded for Karachi), scheduled by a
  :class:`~repro.server.scheduler.DemandScheduler` fed from each
  region's measured SMS demand.  Each station is a carousel, an
  :class:`AdaptiveProfileSelector` and its bookkeeping (the station
  state, one per region) plus a :class:`~repro.server.ledger.RequestLedger`.
* :func:`run_network` — an epoch-synchronous broadcast-day simulation.
  Stations evolve *independently within an epoch* (one hour) and the
  scheduler rebalances only at epoch boundaries, so a run whose
  stations are stepped by any number of worker processes is
  bit-identical to the one-process run: same per-station ledger
  digests, same schedule digests.  ``tests/test_server_network.py``
  pins that determinism contract, and the ``network_day`` workload of
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
    REQUEST_PRIORITY,
    AdaptiveProfileSelector,
    DemandConfig,
    DemandScheduler,
    schedule_digest,
)
from repro.sim.geometry import Location, PopulationGeometry, RegionPartition
from repro.sim.workload import PageSizeModel, RequestTraceConfig, generate_requests
from repro.sms.protocol import LinkReport
from repro.transport.bundle import BROADCAST_QUALITY
from repro.transport.carousel import BroadcastCarousel, CarouselItem
from repro.util.parallel import WorkerPool, worker_count
from repro.util.rng import derive_key, derive_rng
from repro.web.sites import SiteGenerator
from repro.web.tranco import ZIPF_EXPONENT

__all__ = [
    "REQUEST_PRIORITY",
    "DEFAULT_PROFILE_LADDER",
    "DEFAULT_REGIONS",
    "RegionSpec",
    "NetworkConfig",
    "StationReport",
    "NetworkResult",
    "BroadcastNetwork",
    "run_network",
    "network_partition",
    "network_coverage",
]

#: (name, net payload bps, FER midpoint dB, FER scale dB) — a synthetic
#: four-rung rate ladder spanning the modem family's envelope: fast
#: rungs need a clean channel, the robust rung decodes near 0 dB.
DEFAULT_PROFILE_LADDER: tuple[tuple[str, float, float, float], ...] = (
    ("turbo", 16_000.0, 12.0, 1.5),
    ("fast", 10_000.0, 8.0, 1.5),
    ("base", 6_000.0, 4.0, 1.5),
    ("robust", 3_000.0, 0.0, 1.5),
)
_PROFILE_RATES = {name: rate for name, rate, _, _ in DEFAULT_PROFILE_LADDER}

#: Backpressure: arrivals are shed while a station's backlog exceeds
#: this (a shed request still counts as demand).
MAX_BACKLOG_BYTES = 48_000_000
#: Frames per synthetic per-epoch receiver link report.
LINK_REPORT_FRAMES = 256
#: Adaptation deadline: a carousel cycle that has not completed within
#: this long forces a profile-adoption boundary anyway.  Under sustained
#: overload, request-priority arrivals can preempt the cycle snapshot
#: indefinitely — without the deadline a station would stay pinned to a
#: dying rate rung forever.
PROFILE_DEADLINE_S = 7200.0


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


@dataclass(frozen=True)
class NetworkConfig:
    """One multi-region broadcast-day simulation."""

    n_stations: int = 4
    hours: int = 24
    n_pages: int = 100
    seed: int = 42
    #: Simulation step; must divide the 3600 s epoch evenly.
    tick_s: float = 60.0
    #: Requests-per-second override applied to every region (None keeps
    #: each region's own rate).
    request_rate_per_s: float | None = None
    pages_per_station: int = 24
    regions: tuple[RegionSpec, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_stations < 1:
            raise ValueError("network needs at least one station")
        if self.hours < 1:
            raise ValueError("hours must be >= 1")
        if self.n_pages % 4 != 0:
            raise ValueError("n_pages must be a multiple of 4")
        if self.tick_s <= 0 or 3600.0 % self.tick_s != 0.0:
            raise ValueError("tick_s must evenly divide the 3600 s epoch")

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


def _build_selector() -> AdaptiveProfileSelector:
    return AdaptiveProfileSelector(
        {
            name: (rate, FrameLossModel(fer_midpoint_db=mid, fer_scale_db=scale))
            for name, rate, mid, scale in DEFAULT_PROFILE_LADDER
        }
    )


@dataclass
class _SimCore:
    """The picklable per-station state one epoch of simulation mutates.

    Everything a worker process needs travels inside: the carousel (no
    frame payloads, so items pickle small), the profile selector, and
    the bookkeeping.  The request ledger stays in the parent — workers
    return ledger-event *ops* the parent applies in canonical station
    order, which is what makes every worker count bit-identical.
    """

    station_id: str
    urls: tuple[str, ...]
    carousel: BroadcastCarousel
    selector: AdaptiveProfileSelector
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
    deadline_ticks: int,
) -> list[tuple]:
    """Advance one station through one epoch; returns its ledger ops.

    Pure station-local computation — touches nothing shared — so any
    partition of stations across workers (or any execution order)
    reproduces identical cores and ops.
    """
    ops: list[tuple] = []
    carousel = core.carousel
    url_index = {url: u for u, url in enumerate(core.urls)}

    # One synthetic receiver report per epoch: the region's representative
    # listener measured the current profile at the epoch's SNR.  Loss
    # counts are the model's own expectation — deterministic feedback
    # that keeps the selector's refit loop exercised.
    fer = core.selector.predicted_loss(core.profile, core.snr_db)
    n_lost = int(round(min(max(fer, 0.0), 1.0) * LINK_REPORT_FRAMES))
    core.selector.observe(
        LinkReport(core.profile, core.snr_db, n_lost, LINK_REPORT_FRAMES)
    )

    t0 = epoch * 3600.0
    ticks = int(round(3600.0 / tick_s))
    cursor = 0
    n_arrivals = int(times.size)
    for k in range(ticks):
        t_end = t0 + (k + 1) * tick_s
        # Ingest this tick's SMS arrivals, in arrival order; each outcome
        # keeps its rows as (req_ids, url_indices, times).
        queued: tuple[list[int], list[int], list[float]] = ([], [], [])
        shed: tuple[list[int], list[int], list[float]] = ([], [], [])
        while cursor < n_arrivals and times[cursor] < t_end:
            u = int(url_idx[cursor])
            rid = int(req_ids[cursor])
            at = float(times[cursor])
            core.n_requests += 1
            if u in core.pending:
                # Page already queued for earlier requesters: coalesce
                # (the repeat enqueue below only bumps priority).
                core.pending[u].append(rid)
                rows = queued
            elif carousel.backlog_bytes() > MAX_BACKLOG_BYTES:
                core.n_shed += 1
                rows = shed
            else:
                core.pending[u] = [rid]
                rows = queued
                carousel.enqueue(
                    CarouselItem(
                        core.urls[u],
                        int(sizes[u]),
                        priority=REQUEST_PRIORITY,
                        digest=f"{u}|{int(versions[u])}",
                    )
                )
            rows[0].append(rid)
            rows[1].append(u)
            rows[2].append(at)
            cursor += 1
        if queued[0]:
            ops.append(("insert", *queued, t_end, t_end, "queued"))
        if shed[0]:
            ops.append(("insert", *shed, t_end, None, "shed"))

        completed = carousel.drain(tick_s)
        done_ids: list[int] = []
        for url in completed:
            # Every page a station's carousel completes came from its urls.
            u = url_index[url]
            if u in core.pending:
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
                carousel.rate_bps = _PROFILE_RATES[choice]
                core.profile_switches += 1
            core.cycle_pending = {item.url for item in carousel.queued_items()}
            core.cycle_ticks = 0

        core.backlog_samples.append(carousel.backlog_bytes())
    core.profile_history.append(core.profile)
    return ops


def _epoch_params(cfg: NetworkConfig) -> tuple:
    """Per-worker state: the run-wide arguments of ``_step_station_epoch``."""
    return cfg.tick_s, int(PROFILE_DEADLINE_S // cfg.tick_s)


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

        Runs of the same config on any worker count agree on this:
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

    Owns, per region (dicts keyed by region name), the station state —
    carousel, profile selector and bookkeeping — and one request ledger;
    also the region-local Tranco priors and the :class:`DemandScheduler`
    that allocates pages to stations at every epoch boundary.  A run
    replaces each station's state with the copy its worker returns, so
    :attr:`stations` always holds the state the reports were built from.
    """

    def __init__(self, config: NetworkConfig = NetworkConfig()) -> None:
        self.config = config
        self.regions = config.resolved_regions()
        self.generator = SiteGenerator(seed=config.seed, n_sites=config.n_pages // 4)
        self.urls: tuple[str, ...] = tuple(self.generator.all_urls())
        self.size_model = PageSizeModel(self.generator)
        # Each page's version and size at the last epoch priced (-1: none).
        self._page_versions = np.full(len(self.urls), -1, dtype=np.int64)
        self._page_sizes = np.zeros(len(self.urls), dtype=np.int64)
        self.store = BundleStore(capacity=4 * config.n_pages)
        self.stations: dict[str, _SimCore] = {}
        self.ledgers: dict[str, RequestLedger] = {}
        priors: dict[str, np.ndarray] = {}
        for region in self.regions:
            selector = _build_selector()
            profile = selector.select(region.snr_start_db)
            self.stations[region.name] = _SimCore(
                station_id=region.name,
                urls=self.urls,
                carousel=BroadcastCarousel(_PROFILE_RATES[profile]),
                selector=selector,
                profile=profile,
            )
            self.ledgers[region.name] = RequestLedger()
            priors[region.name] = self._region_prior(region.name)
        self.scheduler = DemandScheduler(
            [r.name for r in self.regions],
            config.n_pages,
            priors=priors,
            config=DemandConfig(
                pages_per_station=config.pages_per_station, seed=config.seed
            ),
        )

    def _region_prior(self, name: str) -> np.ndarray:
        """Region-local Tranco prior: the global rank order, locally
        permuted (every market has its own hometown favourites), with
        the global ``1/(rank+1)^s`` weight law on the local ranks."""
        n = self.config.n_pages
        local_rank = derive_rng(self.config.seed, "region-rank", name).permutation(n)
        prior = (1.0 / (local_rank + 1.0)) ** ZIPF_EXPONENT
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

    def _epoch_pages(self, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """(sizes, versions) of every corpus page at ``epoch``.

        A size is a pure function of ``(url, version)``, so only pages
        whose version changed since the last epoch priced are priced again.
        """
        versions = self.generator.versions(epoch)
        sizes = self._page_sizes.copy()
        for i in np.flatnonzero(versions != self._page_versions):
            sizes[i] = self.size_model.size_at(self.urls[i], int(versions[i]))
        self._page_versions, self._page_sizes = versions, sizes
        return sizes, versions

    def _apply_ops(self, ledger: RequestLedger, ops: list[tuple]) -> None:
        for op in ops:
            if op[0] == "insert":
                _, rids, urls, ats, acked, scheduled, status = op
                ledger.insert(rids, urls, ats, acked, scheduled, status)
            else:
                _, rids, t = op
                ledger.mark_broadcast(np.asarray(rids), t)
        ledger.commit()

    def run(self, processes: int | None = 1) -> NetworkResult:
        """Simulate the broadcast horizon over ``processes`` workers.

        Each epoch's stations are stepped on a worker pool (``None``: one
        worker per core, never more than stations; one worker steps them
        in this process).  Every worker count gives a bit-identical
        result: cores are station-local, ledger ops are applied in
        canonical station order, and the scheduler only ever runs in the
        parent at epoch boundaries.
        """
        cfg = self.config
        stations = self.stations
        station_ids = [r.name for r in self.regions]
        traces = {r.name: self.region_trace(r) for r in self.regions}
        cursors = {sid: 0 for sid in station_ids}
        schedule_digests: list[str] = []

        processes = worker_count(processes, len(station_ids))
        with WorkerPool(processes, _epoch_params, cfg) as pool:
            for epoch in range(cfg.hours):
                sizes, versions = self._epoch_pages(epoch)
                allocations = self.scheduler.rebalance(epoch)
                schedule_digests.append(schedule_digest(allocations))

                # Push the epoch's allocation through the *shared* store:
                # the first station needing a (url, version) encodes it,
                # every later one reuses the bytes.  Done in the parent,
                # in canonical order, so workers can't change accounting.
                for region in self.regions:
                    core = stations[region.name]
                    core.snr_db = region.snr_at(epoch)
                    for u, score in allocations[region.name]:
                        url = self.urls[u]
                        version = int(versions[u])
                        key = bundle_key(
                            url, version, 0, None, BROADCAST_QUALITY, cfg.seed
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
                            stations[sid],
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

                stepped = pool.map(_epoch_worker, payloads)
                for sid, (core, ops) in zip(station_ids, stepped):
                    stations[sid] = core  # a worker returns a copy
                    self._apply_ops(self.ledgers[sid], ops)

                # Close the demand loop: each station's measured request
                # counts for this epoch feed the next rebalance.
                for sid in station_ids:
                    counts = self.ledgers[sid].demand_counts(
                        since=epoch * 3600.0, until=(epoch + 1) * 3600.0
                    )
                    self.scheduler.observe(sid, counts)

        return self._collect(schedule_digests)

    def _collect(self, schedule_digests: list[str]) -> NetworkResult:
        cfg = self.config
        duration_s = cfg.hours * 3600.0
        ticks = int(round(3600.0 / cfg.tick_s)) * cfg.hours
        sample_times_h = (np.arange(1, ticks + 1) * cfg.tick_s) / 3600.0
        reports = []
        for region in self.regions:
            core = self.stations[region.name]
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
    config: NetworkConfig = NetworkConfig(), processes: int | None = 1
) -> NetworkResult:
    """Build a :class:`BroadcastNetwork` and simulate the horizon on
    ``processes`` workers (``None``: one per core)."""
    network = BroadcastNetwork(config)
    try:
        return network.run(processes)
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
        for name, _, mid, scale in DEFAULT_PROFILE_LADDER
    }
    share = max(1, n_receivers // len(regions))
    merged: list[StationCoverage] = []
    for region in regions:
        profile = DEFAULT_PROFILE_LADDER[0][0]
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
