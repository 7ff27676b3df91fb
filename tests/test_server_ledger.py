"""Request ledger: batched writes, digests, crash recovery."""

import os
import signal
import sqlite3
import subprocess
import sys

import numpy as np
import pytest

from repro.server.ledger import RequestLedger


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
        # must take the UPDATE path and land identically.
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
        """``latencies`` streams the cursor into the array; the values,
        order and dtype are those of building it from ``fetchall``."""
        rng = np.random.default_rng(3)
        led = RequestLedger()
        assert led.latencies().dtype == np.float64
        assert led.latencies().shape == (0,)
        n = 5_000
        submitted = np.sort(rng.uniform(0.0, 3_600.0, n))
        for start in range(0, n, 500):
            ids = np.arange(start, start + 500)
            led.insert(ids, start // 500, submitted[ids], 1.0, None, "deferred")
        served = rng.permutation(n)[: n // 2]
        led.mark_scheduled(served, 4_000.0)
        led.commit()
        led.mark_broadcast(served[: n // 4], 4_000.1)
        led.mark_broadcast(served[n // 4 :], 7_333.3)
        got = led.latencies()  # flushes the pending updates
        rows = led._conn.execute(
            "SELECT broadcast_at - submitted_at FROM requests"
            " WHERE status = 'broadcast'"
        ).fetchall()
        expected = np.array([r[0] for r in rows], dtype=np.float64)
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
        # Every broadcast row carries a complete, ordered timeline.
        rows = led._conn.execute(
            "SELECT submitted_at, scheduled_at, broadcast_at FROM requests"
            " WHERE status = 'broadcast'"
        ).fetchall()
        for submitted, scheduled, broadcast in rows:
            assert submitted <= scheduled <= broadcast
        led.close()
