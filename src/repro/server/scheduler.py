"""Preemptive popularity pushes and adaptive profile selection.

"[the server] maintains a list of the most popular websites in a region
that are preemptively pushed to users in an attempt to improve their
experience.  For example, popular news sites can be pushed early in the
morning." (Section 3.1).  The scheduler decides, each hour, which corpus
pages to re-render and queue — popular pages first, news boosted in the
morning push window.

:class:`AdaptiveProfileSelector` closes the loop the paper leaves open:
given each modem profile's net payload rate and fitted frame-loss curve
(seeded from the tournament, refined by receiver ``RPT`` feedback over
the SMS uplink), pick the fastest profile whose predicted loss at the
reported SNR stays under threshold — and fall back down the rate ladder
as the channel degrades.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.radio.lossmodel import FrameLossModel, fit_logistic_fer
from repro.sms.protocol import LinkReport
from repro.util.rng import counter_uniforms, derive_key
from repro.web.sites import SiteGenerator
from repro.web.tranco import ZIPF_EXPONENT

__all__ = [
    "REQUEST_PRIORITY",
    "PopularityScheduler",
    "AdaptiveProfileSelector",
    "DemandConfig",
    "DemandScheduler",
    "schedule_digest",
]


#: Carousel priority of every user-requested page, on all three request
#: paths (:class:`~repro.server.server.SonicServer`, the request front
#: end and the station network).  A popularity push is at most a Tranco
#: weight (<= 1) x 2 for a landing page x :data:`MORNING_NEWS_BOOST`,
#: and a demand score sums bounded EWMA/prior terms plus a slowly
#: growing aging term, so this keeps the paper's invariant — requests
#: outrank every push — by a margin no realistic run can close.
REQUEST_PRIORITY = 1e12

#: Airtime guard: pages queued by one hourly push.
MAX_PAGES_PER_HOUR = 100
#: Local hours of the morning news push ("popular news sites can be
#: pushed early in the morning", Section 3.1) ...
MORNING_PUSH_HOURS = (6, 7, 8)
#: ... and the priority factor news pages get inside it.
MORNING_NEWS_BOOST = 3.0
#: Unchanged popular pages rebroadcast by each later hourly push.
REFRESH_TOP_N = 3


class PopularityScheduler:
    """Ranks corpus pages for each hourly push."""

    def __init__(self, generator: SiteGenerator) -> None:
        self.generator = generator

    def page_priority(self, url: str, hour: int) -> float:
        """Push priority of a page at a given hour."""
        domain = url.partition("/")[0]
        site = self.generator.website(domain)
        weight = site.weight
        is_landing = url.endswith("/")
        priority = weight * (2.0 if is_landing else 1.0)
        if site.category == "news" and hour % 24 in MORNING_PUSH_HOURS:
            priority *= MORNING_NEWS_BOOST
        return priority

    def pages_to_push(self, hour: int) -> list[tuple[str, float]]:
        """(url, priority) of pages to (re)broadcast this hour.

        Hour 0 seeds the whole catalog; afterwards only changed pages
        are queued, capped by the per-hour airtime guard.
        """
        gen = self.generator
        urls = gen.all_urls()
        if hour == 0:
            due = list(urls)
        else:
            changed = (gen.versions(hour) != gen.versions(hour - 1)).tolist()
            due = [u for u, c in zip(urls, changed) if c]
            # Rebroadcast the top unchanged pages so lossy receivers can
            # fill reception gaps on a later carousel cycle.
            unchanged = sorted(
                (u for u, c in zip(urls, changed) if not c),
                key=lambda u: -self.page_priority(u, hour),
            )
            due.extend(unchanged[:REFRESH_TOP_N])
        ranked = sorted(
            ((u, self.page_priority(u, hour)) for u in due),
            key=lambda pair: -pair[1],
        )
        return ranked[:MAX_PAGES_PER_HOUR]


@dataclass
class _ProfileState:
    """One profile's rate, loss curve, and accumulated feedback."""

    net_bps: float
    model: FrameLossModel
    samples: list[tuple[float, int, int]] = field(default_factory=list)


class AdaptiveProfileSelector:
    """Fastest-profile-that-survives selection over fitted loss curves.

    Seeded with per-profile ``(net_bps, FrameLossModel)`` pairs — most
    naturally from a :class:`repro.sim.tournament.TournamentResult` via
    :meth:`from_tournament` — and updated online from receivers' ``RPT``
    link reports: once a profile has enough feedback samples its curve
    is refitted to the measured outcomes, so advice tracks the deployed
    channel rather than the bench sweep.
    """

    #: Feedback samples before a profile's curve is refitted.
    MIN_FIT_SAMPLES = 3

    def __init__(
        self,
        profiles: dict[str, tuple[float, FrameLossModel]],
        loss_threshold: float = 0.1,
    ) -> None:
        if not profiles:
            raise ValueError("selector needs at least one profile")
        self.loss_threshold = loss_threshold
        self._states = {
            name: _ProfileState(net_bps=rate, model=model)
            for name, (rate, model) in profiles.items()
        }

    @classmethod
    def from_tournament(cls, result) -> "AdaptiveProfileSelector":
        """Seed the ladder, and its loss threshold, from a finished
        profile tournament."""
        models = result.loss_models()
        profiles = {
            name: (result.net_rates[name], models[name])
            for name in result.config.profiles
        }
        return cls(profiles, loss_threshold=result.config.loss_threshold)

    @property
    def profiles(self) -> list[str]:
        """Profile names, fastest first (the rate ladder)."""
        return sorted(self._states, key=lambda n: -self._states[n].net_bps)

    def predicted_loss(self, profile: str, snr_db: float) -> float:
        return self._states[profile].model.frame_error_probability(snr_db)

    def select(self, snr_db: float) -> str:
        """The fastest profile predicted to survive ``snr_db``.

        If no profile meets the loss threshold, returns the one with the
        lowest predicted loss — some advice beats silence.  Loss ties
        (e.g. everything saturated at 1.0 on a hopeless channel) break
        toward the slowest profile, the robust end of the ladder.
        """
        for name in self.profiles:
            if self.predicted_loss(name, snr_db) <= self.loss_threshold:
                return name
        return min(
            self.profiles,
            key=lambda n: (self.predicted_loss(n, snr_db), self._states[n].net_bps),
        )

    def observe(self, report: LinkReport) -> bool:
        """Fold one receiver report in; ``True`` if the curve refitted.

        Reports for unknown profiles are ignored (a client may be ahead
        of or behind the server's registry) — the caller still gets
        advice from :meth:`select`.
        """
        state = self._states.get(report.profile)
        if state is None:
            return False
        state.samples.append((report.snr_db, report.n_frames, report.n_lost))
        if len(state.samples) < self.MIN_FIT_SAMPLES:
            return False
        distinct_snrs = {s[0] for s in state.samples}
        if len(distinct_snrs) < 2:
            return False  # a one-point curve is not a curve
        mid, scale = fit_logistic_fer(
            [s[0] for s in state.samples],
            [s[1] for s in state.samples],
            [s[2] for s in state.samples],
        )
        state.model = FrameLossModel(fer_midpoint_db=mid, fer_scale_db=scale)
        return True


#: Score weight of measured (EWMA) request demand.
DEMAND_WEIGHT = 1.0
#: Score weight of the region-local Tranco rank prior.
PRIOR_WEIGHT = 0.25
#: Score weight of the aging counter (the starvation-freeness guarantee).
AGING_WEIGHT = 0.05
#: Carry-over of last epoch's demand into this one (exponential decay).
DEMAND_DECAY = 0.5
#: EWMA demand below this is snapped to zero.  Exponential decay never
#: reaches 0.0 in floats, so without the snap a single ancient request
#: would keep a page "live" (and aging) forever.
QUIET_THRESHOLD = 1e-6


@dataclass(frozen=True)
class DemandConfig:
    """Demand-driven allocation knobs for the multi-station scheduler."""

    #: Pages each station may carry per epoch (airtime budget).
    pages_per_station: int = 24
    #: Seed keying the deterministic tie-break stream.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pages_per_station < 1:
            raise ValueError("pages_per_station must be positive")


class DemandScheduler:
    """Allocates corpus pages to regional stations from measured demand.

    Each station scores every page as::

        score = DEMAND_WEIGHT * ewma_demand
              + PRIOR_WEIGHT  * region_prior
              + AGING_WEIGHT  * age

    ``ewma_demand`` folds the station ledger's per-URL request counts in
    with exponential decay (:data:`DEMAND_DECAY`), so yesterday's
    fashion fades; ``region_prior`` is the station's local popularity
    prior (region-permuted Tranco weights); ``age`` counts consecutive
    epochs a page had live demand yet no slot — it grows without bound
    while demand and prior stay bounded, so every demanded page is
    eventually allocated (starvation-freeness, property-tested).

    Ties break by a seed-keyed counter-RNG draw — a pure function of
    ``(seed, station, epoch, url)`` — then by URL index, so allocations
    are bit-identical however stations are partitioned across workers.
    """

    def __init__(
        self,
        station_ids: list[str],
        n_pages: int,
        priors: dict[str, np.ndarray] | None = None,
        config: DemandConfig = DemandConfig(),
    ) -> None:
        if not station_ids:
            raise ValueError("scheduler needs at least one station")
        if len(set(station_ids)) != len(station_ids):
            raise ValueError("duplicate station ids")
        if n_pages < 1:
            raise ValueError("n_pages must be positive")
        self.config = config
        self.n_pages = n_pages
        self.station_ids = list(station_ids)
        # Default prior: the global Tranco weight law 1/(rank+1)^s.
        flat = (1.0 / np.arange(1.0, n_pages + 1.0)) ** ZIPF_EXPONENT
        flat /= flat.sum()
        self._priors: dict[str, np.ndarray] = {}
        for sid in self.station_ids:
            prior = flat if priors is None else np.asarray(priors[sid], float)
            if prior.shape != (n_pages,):
                raise ValueError(f"prior for {sid} must have length {n_pages}")
            self._priors[sid] = prior
        self._demand = {sid: np.zeros(n_pages) for sid in self.station_ids}
        self._age = {sid: np.zeros(n_pages) for sid in self.station_ids}
        self._pending = {sid: np.zeros(n_pages) for sid in self.station_ids}

    def observe(self, station_id: str, counts: dict[int, int]) -> None:
        """Fold one epoch's ledger demand counts into a station's state.

        Accumulates until the next :meth:`rebalance`; multiple observes
        between rebalances sum (e.g. a ledger read split across ticks).
        """
        pending = self._pending[station_id]
        for url_index, n in counts.items():
            if not 0 <= url_index < self.n_pages:
                raise ValueError(f"url index {url_index} out of range")
            pending[url_index] += n

    def demand(self, station_id: str) -> np.ndarray:
        """The station's current EWMA demand vector (copy)."""
        return self._demand[station_id].copy()

    def rebalance(self, epoch: int) -> dict[str, list[tuple[int, float]]]:
        """Per-station ``(url_index, score)`` allocations for ``epoch``.

        Decays each station's demand EWMA, folds in counts observed
        since the last rebalance, scores every page, and returns each
        station's top :attr:`DemandConfig.pages_per_station` pages in
        descending score order.  Pure function of the observe history —
        no wall clock, no global RNG.
        """
        cfg = self.config
        allocations: dict[str, list[tuple[int, float]]] = {}
        indices = np.arange(self.n_pages, dtype=np.uint64)
        for sid in self.station_ids:
            demand = self._demand[sid]
            demand *= DEMAND_DECAY
            demand += self._pending[sid]
            demand[demand < QUIET_THRESHOLD] = 0.0
            self._pending[sid] = np.zeros(self.n_pages)
            score = (
                DEMAND_WEIGHT * demand
                + PRIOR_WEIGHT * self._priors[sid]
                + AGING_WEIGHT * self._age[sid]
            )
            tiebreak = counter_uniforms(
                derive_key(cfg.seed, "sched-tiebreak", sid, str(epoch)), indices
            )
            order = np.lexsort((indices, tiebreak, -score))
            chosen = order[: cfg.pages_per_station]
            allocations[sid] = [(int(i), float(score[i])) for i in chosen]
            # Aging: demanded-but-unallocated pages accrue priority;
            # allocation (or demand going quiet) resets the counter.
            age = self._age[sid]
            age[demand > 0.0] += 1.0
            age[demand <= 0.0] = 0.0
            age[chosen] = 0.0
        return allocations


def schedule_digest(allocations: dict[str, list[tuple[int, float]]]) -> str:
    """Content hash of one rebalance result, station order included.

    Network runs on any number of worker processes must produce
    identical digests — the schedule half of the determinism contract.
    """
    h = hashlib.sha256()
    for sid, pages in allocations.items():
        h.update(sid.encode())
        for url_index, score in pages:
            h.update(f"{url_index}:{score:.9e};".encode())
    return h.hexdigest()
