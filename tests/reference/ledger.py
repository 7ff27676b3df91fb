"""The sqlite-backed request ledger.

``RequestLedgerRef`` is :class:`repro.server.ledger.RequestLedger` as it
was while sqlite held its rows, copied verbatim: buffered inserts and
life-cycle marks become ``executemany`` INSERTs and ``COALESCE``
UPDATEs at each flush, and every read is a SQL query.  The property
test in ``tests/test_server_ledger.py`` runs the same operations on it
(always on ``":memory:"``) and on the column ledger and compares every
read, the digest's byte stream included.
"""

from __future__ import annotations

import hashlib
import sqlite3
from pathlib import Path

import numpy as np

from repro.server.ledger import LedgerStats

__all__ = ["RequestLedgerRef"]

#: Request life-cycle states.  ``queued`` means scheduled on the carousel
#: and waiting for airtime; ``deferred`` parked by backpressure; ``shed``
#: dropped by backpressure; ``broadcast`` delivered over FM.
STATUSES = ("queued", "deferred", "shed", "broadcast")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS requests (
    req_id       INTEGER PRIMARY KEY,
    url_index    INTEGER NOT NULL,
    submitted_at REAL NOT NULL,
    acked_at     REAL,
    scheduled_at REAL,
    broadcast_at REAL,
    status       TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_requests_submitted
    ON requests (submitted_at, url_index);
"""


class RequestLedgerRef:
    """sqlite-backed request ledger with batched writes.

    ``path`` may be ``":memory:"`` (tests, throwaway runs) or a file
    path; file-backed ledgers run in WAL mode with ``synchronous=NORMAL``
    so batched commits stay cheap while surviving a process kill.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        if self.path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        # Write buffers: the front end records thousands of tiny dispatch
        # groups per simulated hour; buffering turns those into two
        # ``executemany`` calls per commit window instead of one each.
        # Rows are mutable lists so a life-cycle update landing before the
        # insert is flushed folds into the row in place — most requests
        # then cost one INSERT and no UPDATE at all.
        self._pending_rows: list[list] = []
        self._pending_by_id: dict[int, list] = {}
        self._pending_updates: list[tuple] = []

    def close(self) -> None:
        self.commit()
        self._conn.close()

    # -- batched writes ------------------------------------------------------

    def insert(
        self,
        req_ids: np.ndarray | list[int],
        url_index: int,
        submitted_at: np.ndarray | list[float],
        acked_at: float | None,
        scheduled_at: float | None,
        status: str,
    ) -> None:
        """Record one dispatch group (uniform URL and outcome)."""
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
        url_index = int(url_index)
        if not isinstance(req_ids, list):
            req_ids = np.asarray(req_ids).tolist()
        if not isinstance(submitted_at, list):
            submitted_at = np.asarray(submitted_at, dtype=np.float64).tolist()
        rows = self._pending_rows
        by_id = self._pending_by_id
        for r, t in zip(req_ids, submitted_at):
            row = [r, url_index, t, acked_at, scheduled_at, None, status]
            rows.append(row)
            by_id[r] = row

    def mark_scheduled(self, req_ids: np.ndarray, t: float) -> None:
        """A deferred request made it onto the carousel after all."""
        by_id = self._pending_by_id
        for r in np.asarray(req_ids).tolist():
            row = by_id.get(r)
            if row is not None:
                row[4] = t
                row[6] = "queued"
            else:
                self._pending_updates.append((t, "queued", None, r))

    def mark_broadcast(self, req_ids: np.ndarray, t: float) -> None:
        """The page transmission serving these requests completed at ``t``."""
        by_id = self._pending_by_id
        for r in np.asarray(req_ids).tolist():
            row = by_id.get(r)
            if row is not None:
                row[5] = t
                row[6] = "broadcast"
            else:
                self._pending_updates.append((None, "broadcast", t, r))

    def flush(self) -> None:
        """Push buffered writes into sqlite (without committing).

        Inserts run before updates: a request is always inserted before
        any of its life-cycle updates, so this order is the only one the
        buffers can need.  Within the update buffer, call order is kept.
        """
        if self._pending_rows:
            self._conn.executemany(
                "INSERT INTO requests (req_id, url_index, submitted_at,"
                " acked_at, scheduled_at, broadcast_at, status)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                self._pending_rows,
            )
            self._pending_rows.clear()
            self._pending_by_id.clear()
        if self._pending_updates:
            self._conn.executemany(
                "UPDATE requests SET"
                " scheduled_at = COALESCE(?, scheduled_at),"
                " status = ?,"
                " broadcast_at = COALESCE(?, broadcast_at)"
                " WHERE req_id = ?",
                self._pending_updates,
            )
            self._pending_updates.clear()

    def commit(self) -> None:
        self.flush()
        self._conn.commit()

    # -- reads ---------------------------------------------------------------

    def __len__(self) -> int:
        self.flush()
        (n,) = self._conn.execute("SELECT COUNT(*) FROM requests").fetchone()
        return int(n)

    def counts(self) -> dict[str, int]:
        """Requests per life-cycle status."""
        self.flush()
        return dict(
            self._conn.execute(
                "SELECT status, COUNT(*) FROM requests GROUP BY status"
            ).fetchall()
        )

    def demand_counts(
        self, since: float | None = None, until: float | None = None
    ) -> dict[int, int]:
        """Per-URL request counts — the demand signal station scheduling eats.

        Every request counts, whatever its fate: a shed request is still
        demand (arguably the loudest kind).  ``since``/``until`` bound the
        window by submission time (half-open, ``since <= t < until``), so
        an epoch scheduler can ask "what was requested this hour" as one
        cheap indexed read; with no bounds it is the whole ledger.
        """
        self.flush()
        clauses, params = [], []
        if since is not None:
            clauses.append("submitted_at >= ?")
            params.append(float(since))
        if until is not None:
            clauses.append("submitted_at < ?")
            params.append(float(until))
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            "SELECT url_index, COUNT(*) FROM requests"
            f"{where} GROUP BY url_index",
            params,
        ).fetchall()
        return {int(u): int(n) for u, n in rows}

    def latencies(self) -> np.ndarray:
        """Request→broadcast latency (seconds) of every served request."""
        self.flush()
        cursor = self._conn.execute(
            "SELECT broadcast_at - submitted_at FROM requests"
            " WHERE status = 'broadcast'"
        )
        # Stream the rows into the array: no tuple per served request.
        return np.fromiter((r[0] for r in cursor), dtype=np.float64)

    def stats(self) -> LedgerStats:
        return LedgerStats(self.counts(), self.latencies())

    def digest(self) -> str:
        """Content hash over every row, in ``req_id`` order.

        Two runs produced identical ledger outcomes iff their digests
        match — the serial vs batched determinism check without
        materialising millions of rows in memory.
        """
        self.flush()
        h = hashlib.sha256()
        cursor = self._conn.execute(
            "SELECT req_id, url_index, submitted_at, acked_at, scheduled_at,"
            " broadcast_at, status FROM requests ORDER BY req_id"
        )
        while True:
            # Small batches bound the row tuples held at once; hashing a
            # batch's joined reprs feeds sha256 the same bytes as one
            # update per row.
            rows = cursor.fetchmany(1_024)
            if not rows:
                break
            h.update("".join(map(repr, rows)).encode())
        return h.hexdigest()

    def reconcile(self) -> dict[str, int]:
        """Consistency check after a (possibly dirty) reopen.

        Verifies the invariants every committed batch satisfies; raises
        ``ValueError`` if the ledger is internally inconsistent, else
        returns the status counts.
        """
        counts = self.counts()  # flushes pending writes
        unknown = set(counts) - set(STATUSES)
        if unknown:
            raise ValueError(f"unknown statuses in ledger: {sorted(unknown)}")
        (bad_broadcast,) = self._conn.execute(
            "SELECT COUNT(*) FROM requests WHERE"
            " (status = 'broadcast') != (broadcast_at IS NOT NULL)"
        ).fetchone()
        if bad_broadcast:
            raise ValueError(f"{bad_broadcast} rows with inconsistent broadcast state")
        (bad_order,) = self._conn.execute(
            "SELECT COUNT(*) FROM requests WHERE broadcast_at IS NOT NULL"
            " AND (broadcast_at < submitted_at OR scheduled_at IS NULL"
            "      OR broadcast_at < scheduled_at)"
        ).fetchone()
        if bad_order:
            raise ValueError(f"{bad_order} rows with out-of-order timestamps")
        (bad_shed,) = self._conn.execute(
            "SELECT COUNT(*) FROM requests WHERE status = 'shed'"
            " AND scheduled_at IS NOT NULL"
        ).fetchone()
        if bad_shed:
            raise ValueError(f"{bad_shed} shed rows carry a scheduled timestamp")
        return counts
