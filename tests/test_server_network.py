"""Multi-station broadcast network: determinism, adaptation, demand.

The contract this file pins:

* **The worker count is an execution detail** — one-process and
  two-process runs of the same config produce bit-identical per-station
  ledgers and schedule digests, for randomized station counts.
* **Profile adaptation is regional** — a degrading region's station
  walks down the rate ladder at carousel-cycle boundaries while a
  healthy region never switches.
* **Demand drives the schedule** — measured SMS request counts from each
  region's ledger feed the next epoch's allocation.
* **Registry iteration is deterministic** — two registries built from
  the same ``add`` sequence iterate identically (property test).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.server.ledger import RequestLedger
from repro.server.network import (
    DEFAULT_PROFILE_LADDER,
    MAX_BACKLOG_BYTES,
    REQUEST_PRIORITY,
    BroadcastNetwork,
    NetworkConfig,
    RegionSpec,
    _step_station_epoch,
    network_coverage,
    network_partition,
    run_network,
)
from repro.server.transmitters import Transmitter, TransmitterRegistry
from repro.sim.geometry import Location, RegionPartition
from repro.sim.workload import PageSizeModel
from repro.transport.carousel import CarouselItem

_LAHORE = Location(31.5204, 74.3587)
_KARACHI = Location(24.8607, 67.0011)

#: Small-but-real run: 2 epochs, 6 ticks each, 40-page corpus.
_FAST = dict(hours=2, n_pages=40, tick_s=600.0, pages_per_station=8)


def _tx(call_sign="lhr-fm", where=_LAHORE, radius=30.0):
    return Transmitter(
        station_id=call_sign,
        location=where,
        frequency_mhz=93.0,
        coverage_km=radius,
        rate_bps=16_000.0,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(n_stations=0)
        with pytest.raises(ValueError):
            NetworkConfig(n_pages=30)  # not a multiple of 4
        with pytest.raises(ValueError):
            NetworkConfig(tick_s=7.0)  # does not divide the epoch

    def test_resolved_regions_extend_past_defaults(self):
        regions = NetworkConfig(n_stations=11, tick_s=600.0).resolved_regions()
        assert len(regions) == 11
        assert len({r.name for r in regions}) == 11

    def test_rate_override_applies_everywhere(self):
        regions = NetworkConfig(
            n_stations=3, request_rate_per_s=0.5
        ).resolved_regions()
        assert all(r.rate_per_s == 0.5 for r in regions)


class TestDeterminism:
    def test_serial_vs_process_pool_bit_identical(self):
        # Three stations on two workers: one worker steps two of them.
        config = NetworkConfig(n_stations=3, seed=11, **_FAST)
        serial = run_network(config)
        pooled = run_network(config, processes=2)
        assert serial.network_digest() == pooled.network_digest()
        assert serial.schedule_digests == pooled.schedule_digests
        for a, b in zip(serial.stations, pooled.stations):
            assert a.ledger_digest == b.ledger_digest
            assert a.profile_history == b.profile_history
            assert np.array_equal(a.backlog_mb, b.backlog_mb)

    @settings(max_examples=5, deadline=None)
    @given(
        n_stations=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_randomized_station_counts_stay_deterministic(self, n_stations, seed):
        config = NetworkConfig(
            n_stations=n_stations, seed=seed, hours=1,
            n_pages=20, tick_s=900.0, pages_per_station=5,
        )
        serial = run_network(config)
        pooled = run_network(config, processes=2)
        assert serial.network_digest() == pooled.network_digest()

    def test_station_state_after_run_matches_reports(self):
        # A pooled run steps copies of the stations in its workers; the
        # network must keep the copies they return, not the originals.
        config = NetworkConfig(n_stations=2, hours=3, tick_s=120.0, seed=42)
        duration_s = config.hours * 3600.0
        states = []
        for processes in (1, 2):
            network = BroadcastNetwork(config)
            try:
                result = network.run(processes)
            finally:
                network.close()
            state = {}
            for report in result.stations:
                station = network.stations[report.station_id]
                sent = station.carousel.total_sent_bytes
                assert sent * 8.0 / duration_s == report.goodput_bps
                assert station.profile == report.final_profile
                assert len(station.profile_history) == config.hours
                link_reports = sum(
                    len(p.samples) for p in station.selector._states.values()
                )
                assert link_reports == config.hours  # one per epoch
                state[report.station_id] = (
                    sent,
                    station.carousel.backlog_bytes(),
                    station.profile_history,
                    station.backlog_samples,
                    station.n_requests,
                    station.n_shed,
                    station.pending,
                )
            states.append(state)
        assert states[0] == states[1]

    def test_ci_day_digest_pinned(self):
        # The CI run `repro network --stations 3 --hours 6 --tick-s 120
        # --seed 42` prints this digest.
        network = BroadcastNetwork(
            NetworkConfig(n_stations=3, hours=6, tick_s=120.0, seed=42)
        )
        try:
            digest = network.run().network_digest()
        finally:
            network.close()
        assert digest == (
            "fe5a0c051c14c6fd6db7c42cd512ed7f9f8992d9442b25cd571cedee1d6f3d8b"
        )

    def test_epoch_sizes_match_a_fresh_size_model(self):
        # Sizes are re-priced only when a page's version changes.
        network = BroadcastNetwork(NetworkConfig(n_stations=1, seed=5, **_FAST))
        fresh = PageSizeModel(network.generator)
        try:
            for epoch in range(30):
                sizes, versions = network._epoch_pages(epoch)
                expected = [
                    fresh.size_at(url, int(v)) for url, v in zip(network.urls, versions)
                ]
                assert sizes.tolist() == expected
        finally:
            network.close()

    def test_different_seeds_diverge(self):
        a = run_network(NetworkConfig(n_stations=2, seed=1, **_FAST))
        b = run_network(NetworkConfig(n_stations=2, seed=2, **_FAST))
        assert a.network_digest() != b.network_digest()


class TestRateLadder:
    def test_degrading_region_walks_down_fresh_region_does_not(self):
        # One healthy region, one whose SNR falls 1 dB per hour: by the
        # end of the day the fading station has stepped down the ladder
        # to the robust rung, the steady one never left turbo.
        regions = (
            RegionSpec("steady", _LAHORE, rate_per_s=0.02),
            RegionSpec(
                "fading", _KARACHI, rate_per_s=0.02,
                snr_start_db=16.0, snr_drift_db_per_hour=-1.0,
            ),
        )
        config = NetworkConfig(
            n_stations=2, hours=24, tick_s=300.0, regions=regions,
            seed=3, pages_per_station=8,
        )
        result = run_network(config)

        steady = result.station("steady")
        assert steady.profile_switches == 0
        assert set(steady.profile_history) == {"turbo"}

        fading = result.station("fading")
        rates = dict((name, rate) for name, rate, _, _ in DEFAULT_PROFILE_LADDER)
        history_bps = [rates[p] for p in fading.profile_history]
        assert history_bps == sorted(history_bps, reverse=True)  # monotone walk
        assert fading.profile_history[0] == "turbo"
        assert fading.final_profile == "robust"
        assert fading.profile_switches >= 2  # multiple rungs, not one cliff

    def test_station_keyerror_for_unknown_region(self):
        result = run_network(NetworkConfig(n_stations=1, seed=0, **_FAST))
        with pytest.raises(KeyError):
            result.station("atlantis")

    def test_busy_day_keeps_every_station_above_half_the_slowest_rung(self):
        # Demand keeps every carousel busy, so each station broadcasts
        # and sustains at least half the slowest rung's payload rate.
        # Goodput is simulated bytes over simulated time: deterministic.
        result = run_network(
            NetworkConfig(n_stations=3, hours=6, tick_s=120.0, seed=42)
        )
        floor_bps = 0.5 * min(rate for _, rate, _, _ in DEFAULT_PROFILE_LADDER)
        assert len(result.stations) == 3
        for s in result.stations:
            assert s.n_broadcast > 0, s.station_id
            assert s.goodput_bps >= floor_bps, s.station_id


class TestDemandLoop:
    def test_ledger_counts_feed_scheduler(self):
        config = NetworkConfig(n_stations=2, seed=9, **_FAST)
        network = BroadcastNetwork(config)
        try:
            result = network.run()
            # Fold the final epoch's observed counts into the EWMA (the
            # run leaves them pending for the *next* rebalance).
            network.scheduler.rebalance(config.hours)
            for report in result.stations:
                ledger = network.ledgers[report.station_id]
                counts = ledger.demand_counts()
                # Every arrival is demand, whatever its fate.
                assert sum(counts.values()) == report.n_requests
                # ... and the scheduler saw it: its EWMA state for the
                # station is live exactly where the ledger counted.
                demand = network.scheduler.demand(report.station_id)
                assert all(demand[u] > 0 for u in counts)
        finally:
            network.close()

    def test_demanded_page_wins_next_allocation(self):
        network = BroadcastNetwork(
            NetworkConfig(n_stations=2, seed=9, **_FAST)
        )
        try:
            name = network.regions[0].name
            worst = int(np.argmin(network.scheduler._priors[name]))
            network.scheduler.observe(name, {worst: 50})
            allocations = network.scheduler.rebalance(0)
            assert allocations[name][0][0] == worst
        finally:
            network.close()

    def test_requests_outrank_any_demand_score(self):
        network = BroadcastNetwork(NetworkConfig(n_stations=1, seed=0, **_FAST))
        try:
            name = network.regions[0].name
            network.scheduler.observe(name, {0: 10_000})
            allocations = network.scheduler.rebalance(0)
            top_score = allocations[name][0][1]
            assert top_score < REQUEST_PRIORITY / 1e3
        finally:
            network.close()

    def test_shared_store_hits_across_stations(self):
        # Same corpus, N stations: the first station to need a page
        # encodes it; everyone else's epochs land store hits.
        result = run_network(NetworkConfig(n_stations=3, seed=4, **_FAST))
        solo = run_network(NetworkConfig(n_stations=1, seed=4, **_FAST))
        assert result.store_hits > 0
        assert result.store_misses > 0
        # Sharing pays: three stations land proportionally more hits
        # than one station's own allocation re-use alone.
        assert result.store_hits / max(1, result.store_misses) > (
            solo.store_hits / max(1, solo.store_misses)
        )


class TestStationLedgerOps:
    def test_one_insert_op_per_tick_and_outcome(self):
        # A backlog over the cap sheds every new page; page 5 already has
        # a requester queued, so requests for it coalesce.
        network = BroadcastNetwork(NetworkConfig(n_stations=1, seed=3, **_FAST))
        try:
            core = next(iter(network.stations.values()))
            core.carousel.enqueue(
                CarouselItem("blocker", 2 * MAX_BACKLOG_BYTES, priority=REQUEST_PRIORITY)
            )
            core.pending[5] = [10_000]
            urls = np.array([5, 1, 2, 5, 1, 7, 5, 3, 2])
            times = np.array([10.0, 20.0, 30.0, 40.0, 700.0, 710.0, 720.0, 730.0, 1300.0])
            ids = np.arange(urls.size)
            sizes, versions = network._epoch_pages(0)
            ops = _step_station_epoch(
                core, 0, times, urls, ids, sizes, versions, 600.0, 1_000
            )
            inserts = [op for op in ops if op[0] == "insert"]
            ticks_outcomes = [(op[4], op[6]) for op in inserts]
            assert len(ticks_outcomes) == len(set(ticks_outcomes))
            assert sorted(ticks_outcomes) == [
                (600.0, "queued"), (600.0, "shed"), (1200.0, "queued"),
                (1200.0, "shed"), (1800.0, "shed"),
            ]
            ledger = RequestLedger()
            network._apply_ops(ledger, ops)
            assert ledger.counts() == {"queued": 3, "shed": 6}
            assert core.n_shed == 6
            assert ledger.demand_counts() == {1: 2, 2: 2, 3: 1, 5: 3, 7: 1}
        finally:
            network.close()


class TestRegistryDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(
        call_signs=st.lists(
            st.integers(min_value=0, max_value=999), max_size=20, unique=True
        )
    )
    def test_same_add_sequence_iterates_identically(self, call_signs):
        def build():
            registry = TransmitterRegistry()
            for call_sign in call_signs:
                registry.add(_tx(f"tx-{call_sign}"))
            return registry

        a, b = build(), build()
        assert [t.station_id for t in a.all()] == [
            t.station_id for t in b.all()
        ]
        # all() preserves add order.
        assert [t.station_id for t in a.all()] == [f"tx-{c}" for c in call_signs]


class TestRegionPartition:
    def test_assign_picks_nearest(self):
        partition = RegionPartition(
            names=("lahore", "karachi"), centers=(_LAHORE, _KARACHI)
        )
        lats = np.array([_LAHORE.lat, _KARACHI.lat, 31.6])
        lons = np.array([_LAHORE.lon, _KARACHI.lon, 74.4])
        assert partition.assign(lats, lons).tolist() == [0, 1, 0]
        assert partition.nearest(_KARACHI) == "karachi"

    def test_rejects_mismatched_and_duplicate_names(self):
        with pytest.raises(ValueError):
            RegionPartition(names=("a",), centers=(_LAHORE, _KARACHI))
        with pytest.raises(ValueError):
            RegionPartition(names=("a", "a"), centers=(_LAHORE, _KARACHI))

    def test_network_partition_matches_config_regions(self):
        config = NetworkConfig(n_stations=3, **_FAST)
        partition = network_partition(config)
        assert partition.names == tuple(
            r.name for r in config.resolved_regions()
        )


class TestNetworkCoverage:
    def test_per_station_coverage_accounts_for_every_receiver(self):
        config = NetworkConfig(n_stations=2, seed=6, **_FAST)
        coverage = network_coverage(config, n_receivers=400)
        names = [c.station for c in coverage]
        assert names == [r.name for r in config.resolved_regions()]
        total = sum(c.n_receivers for c in coverage)
        assert total == 400  # every scattered listener attributed once
        for cov in coverage:
            assert cov.n_receivers > 0
            assert 0.0 <= cov.mean_loss_rate <= 1.0
