"""Request ledger: batched writes, digests, the journal, crash recovery."""

import os
import signal
import sqlite3
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.ledger import RequestLedger
from tests.reference.ledger import RequestLedgerRef


class TestLedgerBasics:
    def test_insert_and_counts(self):
        led = RequestLedger()
        led.insert([0, 1, 2], 5, [0.0, 1.0, 2.0], 10.0, 10.0, "queued")
        led.insert([3], 6, [3.0], 10.0, None, "deferred")
        assert len(led) == 4
        assert led.counts() == {"queued": 3, "deferred": 1}

    def test_unknown_status_rejected(self):
        led = RequestLedger()
        with pytest.raises(ValueError):
            led.insert([0], 0, [0.0], None, None, "lost-in-space")

    def test_lifecycle_updates(self):
        led = RequestLedger()
        led.insert([0, 1], 3, [0.0, 5.0], 10.0, None, "deferred")
        led.mark_scheduled(np.array([0, 1]), 20.0)
        led.mark_broadcast(np.array([0, 1]), 120.0)
        assert led.counts() == {"broadcast": 2}
        assert led.latencies().tolist() == [120.0, 115.0]

    def test_updates_after_flush_hit_sqlite(self):
        # The in-buffer fold only covers unflushed rows; committed rows
        # take the stored-row path and must land identically.
        led = RequestLedger()
        led.insert([0], 1, [0.0], 5.0, None, "deferred")
        led.commit()
        led.mark_scheduled(np.array([0]), 30.0)
        led.mark_broadcast(np.array([0]), 90.0)
        assert led.counts() == {"broadcast": 1}
        assert led.latencies().tolist() == [90.0]

    def test_digest_is_content_not_insertion_order(self):
        a = RequestLedger()
        a.insert([0], 1, [0.0], 1.0, 1.0, "queued")
        a.insert([1], 2, [0.5], 1.0, 1.0, "queued")
        b = RequestLedger()
        b.insert([1], 2, [0.5], 1.0, 1.0, "queued")
        b.insert([0], 1, [0.0], 1.0, 1.0, "queued")
        assert a.digest() == b.digest()

    def test_latencies_stream_the_row_values(self):
        """``latencies`` gives the sqlite ledger's values, order and
        dtype for the same operations."""
        rng = np.random.default_rng(3)
        led, ref = RequestLedger(), RequestLedgerRef()
        assert led.latencies().dtype == np.float64
        assert led.latencies().shape == (0,)
        n = 5_000
        submitted = np.sort(rng.uniform(0.0, 3_600.0, n))
        served = rng.permutation(n)[: n // 2]
        for ledger in (led, ref):
            for start in range(0, n, 500):
                ids = np.arange(start, start + 500)
                ledger.insert(ids, start // 500, submitted[ids], 1.0, None, "deferred")
            ledger.mark_scheduled(served, 4_000.0)
            ledger.commit()
            ledger.mark_broadcast(served[: n // 4], 4_000.1)
            ledger.mark_broadcast(served[n // 4 :], 7_333.3)
        got = led.latencies()  # flushes the pending marks
        expected = ref.latencies()
        assert got.dtype == np.float64 and got.shape == (n // 2,)
        assert got.tobytes() == expected.tobytes()

    def test_stats_empty(self):
        stats = RequestLedger().stats()
        assert stats.n_requests == 0
        assert np.isnan(stats.percentile(99.0))

    def test_reconcile_flags_inconsistency(self, tmp_path):
        path = tmp_path / "bad.sqlite"
        led = RequestLedger(path)
        led.insert([0], 1, [0.0], 1.0, 1.0, "queued")
        led.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE requests SET status = 'broadcast'")  # no timestamp
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="broadcast state"):
            RequestLedger(path).reconcile()


class TestDuplicateIds:
    """A duplicate ``req_id`` is refused at the flush and jams nothing."""

    def test_duplicate_in_one_window_discards_the_window(self):
        led = RequestLedger()
        led.insert([0, 1], 1, [0.0, 1.0], 2.0, 2.0, "queued")
        led.insert([1, 2], 1, [3.0, 4.0], 5.0, 5.0, "queued")
        with pytest.raises(ValueError, match="duplicate req_id 1"):
            led.commit()
        assert len(led) == 0  # nothing of that window was written
        led.insert([1], 1, [3.0], 5.0, 5.0, "queued")
        led.commit()
        assert led.counts() == {"queued": 1}

    def test_duplicate_of_a_committed_row_leaves_the_journal_usable(self, tmp_path):
        path = tmp_path / "dup.sqlite"
        led, clean = RequestLedger(path), RequestLedger()
        for ledger in (led, clean):
            ledger.insert([7, 8], 2, [0.0, 1.0], 2.0, 2.0, "queued")
            ledger.commit()
        led.insert([9, 7], 3, [4.0, 5.0], 6.0, 6.0, "queued")
        led.mark_broadcast(np.array([8]), 9.0)
        with pytest.raises(ValueError, match="duplicate req_id 7"):
            led.commit()
        for ledger in (led, clean):
            ledger.mark_broadcast(np.array([7]), 10.0)
        led.close()
        reopened = RequestLedger(path)
        assert reopened.digest() == clean.digest()
        assert reopened.reconcile() == clean.reconcile()


_STATUS = st.sampled_from(["queued", "deferred", "shed"])
_TIME = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
_WHEN = st.none() | _TIME
_MARK_IDS = st.lists(st.integers(min_value=0, max_value=49), max_size=6)
_STEP = st.one_of(
    st.tuples(
        st.just("insert"), st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=5), st.lists(_TIME, min_size=4, max_size=4),
        _WHEN, _WHEN, _STATUS,
    ),
    st.tuples(st.sampled_from(["mark_scheduled", "mark_broadcast"]), _MARK_IDS, _TIME),
    st.tuples(st.sampled_from(["flush", "commit"])),
    st.tuples(st.just("read"), _WHEN, _WHEN),
)


def _reads(led, since, until) -> tuple:
    """Every read the ledger answers, in comparable form."""
    try:
        reconciled = ("ok", list(led.reconcile().items()))
    except ValueError as exc:
        reconciled = ("error", str(exc))
    return (
        list(led.counts().items()),
        led.latencies().tobytes(),
        list(led.demand_counts(since, until).items()),
        len(led),
        led.digest(),
        reconciled,
    )


def _apply(ledgers, step, fresh) -> None:
    """Run one drawn step on every ledger; inserts take ids from ``fresh``."""
    kind = step[0]
    if kind == "insert":
        _, k, url, times, acked, scheduled, status = step
        ids = [next(fresh) for _ in range(k)]
        for led in ledgers:
            led.insert(ids, url, times[:k], acked, scheduled, status)
    elif kind.startswith("mark"):
        for led in ledgers:
            getattr(led, kind)(np.array(step[1], dtype=np.int64), step[2])
    else:
        for led in ledgers:
            getattr(led, kind)()


class TestMatchesSqliteReference:
    """The column ledger against the sqlite ledger frozen in
    ``tests/reference/ledger.py``.

    Random runs of inserts (fresh ids in shuffled order), marks of
    buffered, committed, not-yet-inserted and never-inserted ids
    (repeated too), flushes and commits give the same counts (key
    order included), latencies (bytes), demand windows, length,
    digest and reconcile outcome after every read.  Inserts draw the
    statuses callers insert: a row inserted as ``broadcast`` has no
    ``broadcast_at``, which the reference's ``latencies`` cannot read.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        order=st.permutations(range(40)),
        steps=st.lists(_STEP, max_size=40),
    )
    def test_same_reads_after_every_step(self, order, steps):
        led, ref = RequestLedger(), RequestLedgerRef()
        fresh = iter(order)
        for step in steps:
            if step[0] == "read":
                assert _reads(led, *step[1:]) == _reads(ref, *step[1:])
            else:
                _apply((led, ref), step, fresh)
        assert _reads(led, None, None) == _reads(ref, None, None)

    def test_nan_and_negative_zero_read_back_as_sqlite_stores_them(self):
        led, ref = RequestLedger(), RequestLedgerRef()
        for ledger in (led, ref):
            ledger.insert([2, 0], 1, [-0.0, 3.5], float("nan"), -0.0, "queued")
            ledger.insert([1], 4, [1.0], 2.0, None, "deferred")
            ledger.commit()
            ledger.mark_scheduled(np.array([1]), float("nan"))  # COALESCE keeps NULL
            ledger.mark_broadcast(np.array([0, 2]), -0.0)
            ledger.insert([3], 4, [5.0], None, None, "shed")
            ledger.mark_scheduled(np.array([3]), float("nan"))  # folds: stays NULL
        assert _reads(led, 0.0, 4.0) == _reads(ref, 0.0, 4.0)
        assert _reads(led, None, None) == _reads(ref, None, None)


class TestPerRowUrlIndex:
    """One ``insert`` of an outcome's rows with a per-row ``url_index``
    (the front end's and the stations' write) equals one insert per URL."""

    @settings(max_examples=40, deadline=None)
    @given(
        cohorts=st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12),
                _STATUS,
            ),
            min_size=1,
            max_size=6,
        ),
        scheduled=st.lists(st.integers(min_value=0, max_value=71), max_size=20),
        served=st.lists(st.integers(min_value=0, max_value=71), max_size=20),
    )
    def test_equals_one_insert_per_url(self, cohorts, scheduled, served):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("rows.sqlite", "urls.sqlite")]
            per_row, per_url = (RequestLedger(p) for p in paths)
            first = 0
            for k, (urls, status) in enumerate(cohorts):
                ids = list(range(first, first + len(urls)))
                first += len(urls)
                times = [10.0 * k + 0.25 * j for j in range(len(urls))]
                t = 10.0 * (k + 1)
                at = t if status == "queued" else None
                per_row.insert(np.array(ids), np.array(urls), np.array(times), t, at, status)
                for u in dict.fromkeys(urls):
                    rows = [j for j, v in enumerate(urls) if v == u]
                    per_url.insert(
                        [ids[j] for j in rows], u, [times[j] for j in rows], t, at, status
                    )
            for led in (per_row, per_url):
                led.mark_scheduled(np.array(scheduled, dtype=np.int64), 500.0)
                led.mark_broadcast(np.array(served, dtype=np.int64), 900.0)
            assert per_row.digest() == per_url.digest()
            assert per_row.demand_counts() == per_url.demand_counts()
            assert per_row.demand_counts(5.0, 35.0) == per_url.demand_counts(5.0, 35.0)
            assert per_row.latencies().tobytes() == per_url.latencies().tobytes()
            digest = per_url.digest()
            per_row.close()
            per_url.close()
            for path in paths:
                reopened = RequestLedger(path)
                assert reopened.digest() == digest
                reopened.close()

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="differ in length"):
            RequestLedger().insert([0, 1], [3], [0.0, 1.0], 1.0, 1.0, "queued")


def _ops_a(led) -> None:
    led.insert([5, 3, 9], 1, [0.0, 1.0, 2.0], 3.0, 3.0, "queued")
    led.insert([4, 6], 2, [2.5, 2.75], 3.0, None, "deferred")
    led.mark_broadcast(np.array([3, 5]), 60.0)
    led.commit()
    led.insert([1], 2, [4.0], 5.0, None, "shed")


def _ops_b(led) -> None:
    led.insert([12, 2, 10], 3, [70.0, 71.0, 72.0], 73.0, 73.0, "queued")
    led.mark_scheduled(np.array([4, 6]), 80.0)  # deferred rows from session A
    led.mark_broadcast(np.array([9, 4, 12]), 90.0)
    led.mark_broadcast(np.array([11]), 91.0)  # inserted later in this window
    led.insert([11], 3, [75.0], 76.0, 76.0, "queued")


def _file_rows(conn) -> list[tuple]:
    return conn.execute("SELECT * FROM requests ORDER BY req_id").fetchall()


class TestJournal:
    """A file ledger's sqlite journal across sessions."""

    def test_reopened_sessions_equal_one_in_memory_ledger(self, tmp_path):
        path = tmp_path / "journal.sqlite"
        mem, ref = RequestLedger(), RequestLedgerRef()
        led = RequestLedger(path)
        for ledger in (led, mem, ref):
            _ops_a(ledger)
        led.close()
        led = RequestLedger(path)
        assert len(led) == 6
        for ledger in (led, mem, ref):
            _ops_b(ledger)
            ledger.commit()
        led.close()

        led = RequestLedger(path)
        assert led.digest() == mem.digest() == ref.digest()
        assert list(led.counts().items()) == list(mem.counts().items())
        assert led.latencies().tobytes() == mem.latencies().tobytes()
        led.close()
        conn = sqlite3.connect(path)
        assert _file_rows(conn) == _file_rows(ref._conn)
        conn.close()

    def test_dropped_ledger_loses_exactly_the_uncommitted_window(self, tmp_path):
        path = tmp_path / "dropped.sqlite"
        committed = RequestLedger()
        led = RequestLedger(path)
        for ledger in (led, committed):
            _ops_a(ledger)
            ledger.commit()
        _ops_b(led)
        led.flush()  # a flush journals nothing
        del led
        reopened = RequestLedger(path)
        assert reopened.digest() == committed.digest()
        assert reopened.reconcile() == committed.reconcile()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("UPDATE requests SET status = 'lost' WHERE req_id = 1", "unknown statuses"),
            ("UPDATE requests SET broadcast_at = NULL WHERE req_id = 0", "broadcast state"),
            ("UPDATE requests SET broadcast_at = -1.0 WHERE req_id = 0", "out-of-order"),
            ("UPDATE requests SET status = 'shed' WHERE req_id = 2", "shed rows carry"),
        ],
    )
    def test_reconcile_flags_each_edit_behind_its_back(self, tmp_path, edit, message):
        path = tmp_path / "edited.sqlite"
        led = RequestLedger(path)
        led.insert([0, 1, 2], 1, [0.0, 1.0, 2.0], 3.0, 3.0, "queued")
        led.mark_broadcast(np.array([0]), 10.0)
        led.close()
        assert RequestLedger(path).reconcile() == {"broadcast": 1, "queued": 2}
        conn = sqlite3.connect(path)
        conn.execute(edit)
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match=message):
            RequestLedger(path).reconcile()


_CRASH_SCRIPT = """
import sys
from repro.server.frontend import FrontendConfig, RequestFrontend, SizeModelResolver
from repro.server.ledger import RequestLedger
from repro.sim.workload import RequestTraceConfig, generate_requests
from repro.web.sites import SiteGenerator

path = sys.argv[1]
trace = generate_requests(
    RequestTraceConfig(hours=2.0, n_pages=100, n_requests=50_000, seed=21)
)
frontend = RequestFrontend(
    SizeModelResolver(SiteGenerator(seed=7, n_sites=25), max_page_bytes=12 * 1024),
    FrontendConfig(commit_every_ticks=20),
    ledger=RequestLedger(path),
)

def progress(f):
    # Committed at least once: signal readiness for the kill, then stall
    # so the parent's SIGKILL lands mid-run with the WAL half-written.
    print("READY", flush=True)
    import time
    time.sleep(30)

frontend.run(trace, progress=progress, progress_every=40)
"""


class TestCrashRecovery:
    def test_sigkill_mid_run_reconciles(self, tmp_path):
        """Kill the service mid-day; the reopened ledger must reconcile."""
        path = tmp_path / "ledger.sqlite"
        proc = subprocess.Popen(
            [sys.executable, "-c", _CRASH_SCRIPT, str(path)],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONUNBUFFERED": "1"},
        )
        try:
            line = proc.stdout.readline()
            assert b"READY" in line, f"worker never got going: {line!r}"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        led = RequestLedger(path)
        counts = led.reconcile()  # raises on inconsistency
        n = sum(counts.values())
        # At least one commit window landed, and no partial batch did.
        assert n > 0
        assert set(counts) <= {"queued", "deferred", "shed", "broadcast"}
        led.close()
        # Every broadcast row on disk carries a complete, ordered timeline.
        conn = sqlite3.connect(path)
        rows = conn.execute(
            "SELECT submitted_at, scheduled_at, broadcast_at FROM requests"
            " WHERE status = 'broadcast'"
        ).fetchall()
        conn.close()
        for submitted, scheduled, broadcast in rows:
            assert submitted <= scheduled <= broadcast
