"""The five benchmark workloads, from SMS request to page on screen.

Each workload drives the program only through its public entry points
and splits one repetition into three phases:

* ``setup`` — everything before the timed phase (trace generation, pool
  start, the delivery pages' render + encode); reported as ``setup_s``;
* ``run`` — the timed phase; ``ops`` units of work per repetition;
* ``check`` — correctness of the outputs, outside the timing.

Inputs come from the seed: it draws the request arrivals and the
channel noise.  The web corpus is the fixed :data:`CORPUS_SEED` catalog,
so two seeds ask the program for comparable work and the spread between
runs stays small; ``network_day`` is the exception, because one
``NetworkConfig.seed`` drives its corpus and its traffic together.  Every
repetition of a run replays the same inputs, so its digest must match
the first repetition's; for the pinned seed it must also match
``bench/pinned.json``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

import repro.sim.population as population_mod
from repro.client.client import ClientProfile
from repro.core.config import SystemConfig
from repro.core.system import SonicSystem
from repro.modem.modem import Modem
from repro.radio.channels import FmRadioLink
from repro.radio.streams import AwgnStream
from repro.server.cache import BundleStore
from repro.server.catalog import CatalogConfig, CatalogPipeline
from repro.server.frontend import (
    CatalogResolver,
    FrontendConfig,
    RequestFrontend,
    SizeModelResolver,
)
from repro.server.ledger import RequestLedger
from repro.server.network import BroadcastNetwork, NetworkConfig, network_coverage
from repro.sim.geometry import Location
from repro.sim.workload import RequestTraceConfig, RequestTrace, generate_requests
from repro.transport.bundle import PageBundle
from repro.util.rng import derive_rng
from repro.web.sites import SiteGenerator

from bench.trace import Tracer, patched

__all__ = ["WORKLOADS", "Outcome", "request_trace", "require_same_catalog"]

#: The synthetic web every serving and delivery workload requests from.
CORPUS_SEED = 42

_HANDSET = ClientProfile("handset", Location(31.5204, 74.3587), connection="cable")


def require_same_catalog(trace: RequestTrace, urls: list[str]) -> None:
    """Fail fast when a trace and the resolver's catalog disagree in size.

    The front end indexes ``resolver.urls`` with the trace's page indices,
    so a trace drawn over more pages than the catalog holds would crash
    deep inside ``resolver.epoch`` with an ``IndexError``.
    """
    if trace.n_pages != len(urls):
        raise ValueError(
            f"request trace is drawn over {trace.n_pages} pages but the "
            f"resolver's catalog has {len(urls)} URLs; derive n_pages from "
            "len(resolver.urls)"
        )


def request_trace(
    urls: list[str], hours: float, n_requests: int, seed: int
) -> RequestTrace:
    """Open-loop Poisson/Zipf arrivals over exactly the catalog's pages."""
    return generate_requests(
        RequestTraceConfig(
            hours=hours, n_pages=len(urls), n_requests=n_requests, seed=seed
        )
    )


def _percentiles(values) -> dict:
    """Median and p99 in simulated seconds, with the sample count."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return {"air_p50_s": float("nan"), "air_p99_s": float("nan"), "air_samples": 0}
    return {
        "air_p50_s": float(np.percentile(values, 50.0)),
        "air_p99_s": float(np.percentile(values, 99.0)),
        "air_samples": int(values.size),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Outcome:
    """What the correctness check found in one repetition."""

    attempted: int
    failed: int
    digest: str
    errors: list[str] = field(default_factory=list)
    #: Deterministic results (fractions, simulated-time latencies).
    fidelity: dict = field(default_factory=dict)
    #: Layer counts read from the program's own stats after the run.
    layers: dict = field(default_factory=dict)


def _ledger_outcome(ledger: RequestLedger, n_requests: int) -> tuple[int, list[str], dict]:
    """Every request must end in exactly one terminal ledger state.

    Returns (failed, errors, counts): shed or never-broadcast requests
    are failed operations; a missing, duplicated or non-terminal row is
    a correctness error.
    """
    errors = []
    try:
        counts = ledger.reconcile()
    except ValueError as exc:
        return n_requests, [f"ledger inconsistent: {exc}"], {}
    rows = sum(counts.values())
    if rows != n_requests:
        errors.append(f"ledger holds {rows} rows for {n_requests} requests")
    stuck = {s: n for s, n in counts.items() if s not in ("broadcast", "shed")}
    if stuck:
        errors.append(f"requests left in non-terminal states: {stuck}")
    return n_requests - counts.get("broadcast", 0), errors, counts


# -- serving workloads ---------------------------------------------------------


@dataclass(frozen=True)
class ServeSize:
    n_sites: int
    hours: float
    n_requests: int


class SmsFlood:
    """SMS front end, ledger and carousel with pages priced by the size model."""

    name = "sms_flood"
    why = (
        "front end, ledger and carousel with no rendering; the 60 KB page cap "
        "makes backpressure defer about a third of the requests"
    )
    op_unit = "request"
    #: This workload's own name for ``ops_per_s``, and the per-repetition
    #: results printed beside it (see ``bench.run.WORKLOAD_METRICS``).
    primary = "requests_per_s"
    reported = ("served_fraction", "air_p50_s", "air_p99_s")
    sizes = {
        "full": ServeSize(n_sites=25, hours=12.0, n_requests=200_000),
        "tiny": ServeSize(n_sites=25, hours=4.0, n_requests=20_000),
    }
    max_page_bytes = 60_000

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = self.sizes[size]

    def make_resolver(self):
        return SizeModelResolver(
            SiteGenerator(seed=CORPUS_SEED, n_sites=self.size.n_sites),
            max_page_bytes=self.max_page_bytes,
        )

    def setup(self, tracer: Tracer) -> dict:
        resolver = self.make_resolver()
        trace = tracer.call(
            "sim.workload.trace",
            request_trace,
            resolver.urls,
            self.size.hours,
            self.size.n_requests,
            self.seed,
        )
        require_same_catalog(trace, resolver.urls)
        ledger = RequestLedger()
        frontend = RequestFrontend(resolver, FrontendConfig(), ledger=ledger)
        return {"trace": trace, "frontend": frontend, "ledger": ledger}

    def run(self, state: dict, tracer: Tracer) -> float:
        state["result"] = state["frontend"].run(state["trace"])
        return float(state["trace"].n_requests)

    def check(self, state: dict, first: bool) -> Outcome:
        ledger = state["ledger"]
        n = state["trace"].n_requests
        failed, errors, counts = _ledger_outcome(ledger, n)
        result = state["result"]
        stats = result.stats
        fidelity = {"served_fraction": _ratio(counts.get("broadcast", 0), n)}
        fidelity.update(_percentiles(ledger.latencies()))
        layers = {
            "server.ledger.rows": float(sum(counts.values())),
            "server.frontend.cohorts": float(stats.batches),
            "server.frontend.deferred": float(stats.deferred),
            "server.frontend.shed": float(stats.shed),
            "server.frontend.coalesce_ratio": stats.coalesce_ratio,
        }
        return Outcome(n, failed, ledger.digest(), errors, fidelity, layers)

    def close(self, state: dict) -> None:
        state["ledger"].close()


class CatalogDay(SmsFlood):
    """The same front end resolving through real render + encode."""

    name = "catalog_day"
    why = (
        "same front end as sms_flood, but every miss renders and encodes in a "
        "2-process pool against a 256-entry store smaller than the working set"
    )
    sizes = {
        "full": ServeSize(n_sites=25, hours=8.0, n_requests=6_600),
        "tiny": ServeSize(n_sites=3, hours=2.0, n_requests=600),
    }
    processes = 2  # fixed, so the load does not follow the host's core count
    store_entries = 256
    samples = 8  # store entries re-encoded serially by the check

    def catalog_config(self) -> CatalogConfig:
        return CatalogConfig(
            seed=CORPUS_SEED,
            n_sites=self.size.n_sites,
            width=360,
            max_height=600,
            quality=10,
        )

    def make_resolver(self):
        pipeline = CatalogPipeline(
            self.catalog_config(), store=BundleStore(self.store_entries)
        )
        pipeline.start(self.processes)
        return CatalogResolver(pipeline, processes=self.processes)

    def check(self, state: dict, first: bool) -> Outcome:
        outcome = super().check(state, first)
        pipeline = state["frontend"].resolver.pipeline
        outcome.layers["server.catalog.prefetch_used_ratio"] = _ratio(
            pipeline.prefetch_used, pipeline.prefetch_submitted
        )
        outcome.layers["server.cache.hit_rate"] = pipeline.store.stats.hit_rate
        if first:
            outcome.errors += self._check_store(pipeline)
        return outcome

    def _check_store(self, pipeline: CatalogPipeline) -> list[str]:
        """Sampled store entries equal a serial ``encode_page`` of the page.

        Store keys are digests, so the check rebuilds key -> (url, hour)
        over every hour the run (drain grace and prefetch included) could
        have touched.
        """
        last_hour = math.ceil(
            self.size.hours + FrontendConfig().drain_grace_hours
        ) + 1
        where = {}
        for url in pipeline.generator.all_urls():
            for hour in range(last_hour + 1):
                where.setdefault(pipeline.page_key(url, hour)[0], (url, hour))
        items = pipeline.store.items()
        rng = derive_rng(self.seed, "bench-store-sample")
        picks = rng.choice(len(items), size=min(self.samples, len(items)), replace=False)
        serial = CatalogPipeline(self.catalog_config())
        errors = []
        for i in sorted(picks.tolist()):
            key, data = items[i]
            if key not in where:
                errors.append(f"store key {key[:12]} matches no (url, hour)")
            elif serial.encode_page(*where[key]).data != data:
                errors.append(f"store entry for {where[key]} differs from serial encode")
        return errors

    def close(self, state: dict) -> None:
        state["frontend"].resolver.close()
        super().close(state)


# -- delivery workloads ----------------------------------------------------------


@dataclass(frozen=True)
class DeliverySize:
    n_pages: int
    width: int
    max_height: int


class FmDelivery:
    """Pages pushed by the server, streamed over FM, decoded on a handset."""

    name = "fm_delivery"
    why = (
        "radio-bound: small pages cross the streaming FM link at -80 dBm to one "
        "cable handset that decodes them"
    )
    op_unit = "audio second"
    primary = "audio_realtime_x"
    reported = ("pages_on_screen_fraction", "frame_loss_fraction")
    sizes = {
        "full": DeliverySize(n_pages=2, width=360, max_height=600),
        "tiny": DeliverySize(n_pages=1, width=360, max_height=300),
    }
    rssi_dbm = -80.0

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = self.sizes[size]
        # Channel level calibration, as `repro stream` does it: one probe
        # burst, built once per process and outside every timed phase.
        modem = Modem()
        self.probe = modem.transmit_burst([bytes(modem.frame_payload_size)] * 4)

    def make_channel(self):
        return FmRadioLink(seed=self.seed).stream(
            self.rssi_dbm, peak_estimate=float(np.max(np.abs(self.probe)))
        )

    def setup(self, tracer: Tracer) -> dict:
        size = self.size
        system = SonicSystem(
            SystemConfig(
                seed=CORPUS_SEED,
                n_sites=max(1, -(-size.n_pages // 4)),
                render_width=size.width,
                max_pixel_height=size.max_height,
                auto_hourly_push=False,
            ),
            profiles=[_HANDSET],
        )
        tx = system.registry.all()[0]
        urls = system.generator.all_urls()[: size.n_pages]
        pushed = system.server.push_catalog(tx, now=0.0, urls=urls, processes=1)
        session = system.open_stream(channel=self.make_channel())
        return {"system": system, "tx": tx, "pushed": pushed, "session": session}

    def run(self, state: dict, tracer: Tracer) -> float:
        stats = state["session"].run()
        return stats.audio_seconds

    def check(self, state: dict, first: bool) -> Outcome:
        session, pushed = state["session"], state["pushed"]
        client = state["system"].clients[0]
        stats = session.stats
        errors, on_screen, times = [], 0, []
        for page in pushed.pages:
            shown = client.cache.get(page.url, session.now)
            if shown is None:
                continue
            if np.array_equal(shown.image, PageBundle.from_bytes(page.data).image):
                on_screen += 1
                times.append(client.cache.received_at(page.url))
            else:
                errors.append(f"{page.url}: image on screen differs from the sent bundle")
        n = len(pushed.pages)
        h = hashlib.sha256(b"".join(p.data for p in pushed.pages))
        h.update(f"{stats.samples}|{stats.frames_decoded}|{stats.frames_ok}".encode())
        digest = h.hexdigest()
        cache = state["tx"].cache.stats
        fidelity = {
            "pages_on_screen_fraction": _ratio(on_screen, n),
            "frame_loss_fraction": _ratio(
                stats.frames_decoded - stats.frames_ok, stats.frames_decoded
            ),
            "audio_s": stats.audio_seconds,
        }
        fidelity.update(_percentiles(times))
        layers = {
            "fec.frames_failed": float(stats.frames_decoded - stats.frames_ok),
            "client.pages_completed": float(len(client.cache)),
            "server.transmitters.burst_hit_ratio": _ratio(
                cache.burst_hits, cache.burst_hits + cache.burst_misses
            ),
            "server.cache.hit_rate": state["system"].server.bundle_store.stats.hit_rate,
        }
        return Outcome(n, n - on_screen, digest, errors, fidelity, layers)

    def close(self, state: dict) -> None:
        state["system"].server.close()


class WireDelivery(FmDelivery):
    """Large pages on the same path, over a 7 dB AWGN wire instead of FM."""

    name = "wire_delivery"
    why = (
        "bypasses the FM radio and is FEC-bound; large 1080-wide pages exercise "
        "SWebp decode on the handset"
    )
    sizes = {
        "full": DeliverySize(n_pages=1, width=1080, max_height=2000),
        "tiny": DeliverySize(n_pages=1, width=360, max_height=300),
    }
    # Relative to the probe burst's power.  Frames start failing near
    # 5 dB; 7 dB keeps every frame of every seed decodable while Viterbi
    # still does full work.
    snr_db = 7.0

    def make_channel(self):
        power = float(np.mean(self.probe**2))
        sigma = math.sqrt(power / 10.0 ** (self.snr_db / 10.0))
        return AwgnStream(derive_rng(self.seed, "bench-awgn"), sigma)


# -- multi-station network -----------------------------------------------------------


@dataclass(frozen=True)
class NetworkSize:
    n_stations: int
    hours: int
    n_receivers: int


class NetworkDay:
    """Eight regional stations for four days, then country-wide coverage."""

    name = "network_day"
    why = (
        "multi-station path: demand scheduler, per-station carousels and "
        "ledgers, then a million-listener statistical population"
    )
    op_unit = "station-hour"
    primary = "station_hours_per_s"
    reported = ("served_fraction", "min_goodput_bps", "receiver_frames_per_s")
    sizes = {
        "full": NetworkSize(n_stations=8, hours=48, n_receivers=500_000),
        "tiny": NetworkSize(n_stations=3, hours=6, n_receivers=30_000),
    }

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = self.sizes[size]
        self.config = NetworkConfig(
            n_stations=self.size.n_stations,
            hours=self.size.hours,
            tick_s=60.0,
            seed=seed,
        )

    def setup(self, tracer: Tracer) -> dict:
        return {"network": BroadcastNetwork(self.config), "frames": 0}

    def run(self, state: dict, tracer: Tracer) -> float:
        run_population = population_mod.run_population

        def counted(*args, **kwargs):
            # network_coverage reports listeners, not receiver-frames.
            result = run_population(*args, **kwargs)
            state["frames"] += result.receiver_frames
            return result

        network = state["network"]
        state["result"] = result = tracer.call("server.network", network.run)
        t0 = time.perf_counter()
        with patched(population_mod, "run_population", counted):
            state["coverage"] = network_coverage(
                self.config, self.size.n_receivers, result=result
            )
        state["coverage_s"] = time.perf_counter() - t0
        return float(self.config.n_stations * self.config.hours)

    def check(self, state: dict, first: bool) -> Outcome:
        network, result = state["network"], state["result"]
        errors = []
        attempted = failed = broadcast = 0
        latencies = []
        for report in result.stations:
            ledger = network.ledgers[report.station_id]
            try:
                counts = ledger.reconcile()
            except ValueError as exc:
                errors.append(f"{report.station_id} ledger inconsistent: {exc}")
                continue
            if sum(counts.values()) != report.n_requests:
                errors.append(
                    f"{report.station_id}: {sum(counts.values())} ledger rows for "
                    f"{report.n_requests} requests"
                )
            attempted += report.n_requests
            failed += counts.get("shed", 0)
            broadcast += counts.get("broadcast", 0)
            latencies.append(ledger.latencies())
        listeners = sum(c.n_receivers for c in state["coverage"])
        if listeners != self.size.n_receivers:
            errors.append(f"coverage placed {listeners} of {self.size.n_receivers} listeners")
        fidelity = {
            # Requests still queued when the horizon ends are in flight,
            # not failed: only backpressure shedding refuses a request.
            "served_fraction": _ratio(broadcast, attempted),
            "min_goodput_bps": min(s.goodput_bps for s in result.stations),
            "receiver_frames_per_s": state["frames"] / state["coverage_s"],
        }
        fidelity.update(_percentiles(np.concatenate(latencies) if latencies else []))
        layers = {
            "server.ledger.rows": float(attempted),
            "sim.population.receiver_frames": float(state["frames"]),
            "server.cache.hit_rate": _ratio(
                result.store_hits, result.store_hits + result.store_misses
            ),
        }
        return Outcome(attempted, failed, result.network_digest(), errors, fidelity, layers)

    def close(self, state: dict) -> None:
        state["network"].close()


WORKLOADS = {
    cls.name: cls for cls in (SmsFlood, CatalogDay, FmDelivery, WireDelivery, NetworkDay)
}
