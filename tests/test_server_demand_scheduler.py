"""Demand-driven page allocation for the multi-station scheduler.

The :class:`DemandScheduler` is the piece that turns each region's
measured SMS demand into per-station airtime: EWMA demand plus a
region-local popularity prior plus an aging counter.  The properties
pinned here are the ones the network's determinism and fairness story
rests on:

* rebalance convergence — steady demand produces a stable allocation;
* starvation-freeness — every demanded page is eventually allocated,
  however small the airtime budget (the aging term);
* deterministic tie-break — allocations are a pure function of
  ``(seed, observe history, epoch)``, never of dict order or hash seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.server.scheduler import (
    DEMAND_DECAY,
    DemandConfig,
    DemandScheduler,
    schedule_digest,
)

N_PAGES = 16


def _scheduler(
    stations=("lahore", "karachi"),
    n_pages=N_PAGES,
    pages_per_station=4,
    seed=0,
) -> DemandScheduler:
    return DemandScheduler(
        list(stations),
        n_pages,
        config=DemandConfig(pages_per_station=pages_per_station, seed=seed),
    )


def _uniform_priors(stations, n_pages):
    return {sid: np.full(n_pages, 1.0 / n_pages) for sid in stations}


class TestValidation:
    def test_rejects_empty_and_duplicate_stations(self):
        with pytest.raises(ValueError):
            DemandScheduler([], N_PAGES)
        with pytest.raises(ValueError):
            DemandScheduler(["a", "a"], N_PAGES)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            DemandConfig(pages_per_station=0)

    def test_rejects_wrong_prior_shape(self):
        with pytest.raises(ValueError):
            DemandScheduler(["a"], N_PAGES, priors={"a": np.ones(N_PAGES + 1)})

    def test_observe_rejects_out_of_range_url(self):
        sched = _scheduler()
        with pytest.raises(ValueError):
            sched.observe("lahore", {N_PAGES: 1})
        with pytest.raises(ValueError):
            sched.observe("lahore", {-1: 1})


class TestDemandDynamics:
    def test_observes_accumulate_until_rebalance(self):
        sched = _scheduler()
        sched.observe("lahore", {3: 2})
        sched.observe("lahore", {3: 5, 7: 1})
        sched.rebalance(0)
        demand = sched.demand("lahore")
        assert demand[3] == pytest.approx(7.0)
        assert demand[7] == pytest.approx(1.0)

    def test_demand_decays_exponentially(self):
        assert 0.0 < DEMAND_DECAY < 1.0
        sched = _scheduler()
        sched.observe("lahore", {0: 8})
        sched.rebalance(0)
        sched.rebalance(1)
        sched.rebalance(2)
        assert sched.demand("lahore")[0] == pytest.approx(8.0 * DEMAND_DECAY**2)

    def test_demand_outranks_prior(self):
        # A page buried at the bottom of the prior jumps to the top of
        # the allocation on one epoch of real demand.
        sched = _scheduler()
        worst = N_PAGES - 1
        sched.observe("lahore", {worst: 10})
        allocations = sched.rebalance(0)
        assert allocations["lahore"][0][0] == worst

    def test_stations_are_independent(self):
        sched = _scheduler()
        sched.observe("lahore", {5: 100})
        allocations = sched.rebalance(0)
        assert allocations["lahore"][0][0] == 5
        assert allocations["karachi"][0][0] != 5
        assert sched.demand("karachi").sum() == 0.0


class TestRebalanceConvergence:
    def test_steady_demand_stabilises(self):
        # Constant demand on K <= budget pages: once the EWMA has burned
        # in, consecutive epochs allocate the same demanded pages.
        sched = _scheduler(pages_per_station=6)
        hot = {1: 4, 5: 3, 9: 2, 13: 1}
        history = []
        for epoch in range(8):
            sched.observe("lahore", hot)
            allocations = sched.rebalance(epoch)
            history.append([u for u, _ in allocations["lahore"]])
        for chosen in history[2:]:
            assert set(hot).issubset(chosen)
        # The demanded pages hold their *rank order* too: demand weights
        # dominate the prior and the allocation lists scores descending.
        for chosen in history[2:]:
            assert chosen[:4] == [1, 5, 9, 13]

    def test_scores_descend_and_indices_unique(self):
        sched = _scheduler()
        sched.observe("lahore", {2: 3, 4: 1})
        allocations = sched.rebalance(0)
        for pages in allocations.values():
            scores = [s for _, s in pages]
            assert scores == sorted(scores, reverse=True)
            assert len({u for u, _ in pages}) == len(pages)


class TestStarvationFreeness:
    def test_every_demanded_page_eventually_allocated(self):
        # 12 pages with identical steady demand, budget of 3: the aging
        # counter must round-robin the backlog so no page starves.
        n_pages, budget = 12, 3
        sched = DemandScheduler(
            ["solo"],
            n_pages,
            priors=_uniform_priors(["solo"], n_pages),
            config=DemandConfig(pages_per_station=budget, seed=7),
        )
        demanded = set(range(n_pages))
        never_seen = set(demanded)
        for epoch in range(3 * (n_pages // budget)):
            sched.observe("solo", {u: 1 for u in demanded})
            allocations = sched.rebalance(epoch)
            never_seen -= {u for u, _ in allocations["solo"]}
        assert never_seen == set()

    def test_age_resets_when_demand_goes_quiet(self):
        sched = _scheduler(pages_per_station=1)
        sched.observe("lahore", {10: 1, 11: 1})
        sched.rebalance(0)
        # Page left unallocated keeps aging only while demand persists;
        # after the EWMA decays to zero the counter resets, so stale
        # pages do not creep back into the schedule years later.
        for epoch in range(1, 60):
            sched.rebalance(epoch)
        top = sched.rebalance(60)["lahore"][0][0]
        assert top == 0  # the prior's favourite, not a long-dead request


class TestDeterminism:
    def test_identical_histories_identical_allocations(self):
        a = _scheduler(seed=3)
        b = _scheduler(seed=3)
        for epoch in range(4):
            for sched in (a, b):
                sched.observe("lahore", {epoch: 2, 8: 1})
                sched.observe("karachi", {15 - epoch: 3})
            assert schedule_digest(a.rebalance(epoch)) == schedule_digest(
                b.rebalance(epoch)
            )

    def test_tiebreak_is_seed_keyed(self):
        # All-ties field (zero demand, uniform prior): the allocation is
        # pure tie-break, and the tie-break is keyed by the seed.
        stations = ["solo"]
        priors = _uniform_priors(stations, N_PAGES)
        a = DemandScheduler(
            stations, N_PAGES, priors=priors,
            config=DemandConfig(pages_per_station=4, seed=0),
        )
        b = DemandScheduler(
            stations, N_PAGES, priors=priors,
            config=DemandConfig(pages_per_station=4, seed=1),
        )
        assert schedule_digest(a.rebalance(0)) != schedule_digest(b.rebalance(0))

    def test_tiebreak_varies_by_epoch_and_station(self):
        stations = ["a", "b"]
        sched = DemandScheduler(
            stations, N_PAGES, priors=_uniform_priors(stations, N_PAGES),
            config=DemandConfig(pages_per_station=4, seed=0),
        )
        first = sched.rebalance(0)
        second = sched.rebalance(1)
        assert [u for u, _ in first["a"]] != [u for u, _ in first["b"]]
        assert [u for u, _ in first["a"]] != [u for u, _ in second["a"]]

    @settings(max_examples=20, deadline=None)
    @given(
        counts=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=N_PAGES - 1),
                st.integers(min_value=1, max_value=50),
            ),
            max_size=12,
        ),
        epochs=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_allocation_replays_bit_identically(self, counts, epochs, seed):
        digests = []
        for _ in range(2):
            sched = _scheduler(seed=seed)
            run = []
            for epoch in range(epochs):
                sched.observe("lahore", {u: n for u, n in counts})
                allocations = sched.rebalance(epoch)
                assert all(
                    len(pages) == sched.config.pages_per_station
                    for pages in allocations.values()
                )
                run.append(schedule_digest(allocations))
            digests.append(run)
        assert digests[0] == digests[1]


class TestScheduleDigest:
    def test_digest_tracks_content(self):
        base = {"a": [(0, 1.0), (1, 0.5)]}
        assert schedule_digest(base) == schedule_digest(
            {"a": [(0, 1.0), (1, 0.5)]}
        )
        assert schedule_digest(base) != schedule_digest({"a": [(0, 1.0)]})
        assert schedule_digest(base) != schedule_digest(
            {"b": [(0, 1.0), (1, 0.5)]}
        )
        assert schedule_digest(base) != schedule_digest(
            {"a": [(0, 1.0), (2, 0.5)]}
        )
