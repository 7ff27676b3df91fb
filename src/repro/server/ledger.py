"""Request→delivery ledger for the SMS front end.

Every page request that enters :class:`~repro.server.frontend.RequestFrontend`
leaves a row here carrying the four timestamps of its life cycle —
submitted (SMS arrival), acked (batch dispatch replied), scheduled
(enqueued on the carousel), broadcast (page transmission completed) —
so p50/p99 request→broadcast latency is computable per run and survives
process restarts.

The rows live in numpy columns, one per field, and every read is
answered from them.  Writes are buffered: ``insert`` appends a whole
dispatch group, the life-cycle marks queue in call order, and each
flush folds the window into the columns in a few array operations.  A
``":memory:"`` ledger is nothing more; it opens no sqlite connection.

A ledger opened on a file path also keeps a sqlite journal in WAL mode
with ``synchronous=NORMAL``.  Opening the file loads its rows, and
``commit`` writes the rows inserted or changed since the last commit
in one transaction.  A crash therefore loses at most the ticks since
the last commit, while every committed batch reconciles cleanly on
reopen (see ``tests/test_server_ledger.py``).
"""

from __future__ import annotations

import hashlib
import itertools
import sqlite3
from pathlib import Path

import numpy as np

__all__ = ["LedgerStats", "RequestLedger"]

#: Request life-cycle states.  ``queued`` means scheduled on the carousel
#: and waiting for airtime; ``deferred`` parked by backpressure; ``shed``
#: dropped by backpressure; ``broadcast`` delivered over FM.
STATUSES = ("queued", "deferred", "shed", "broadcast")
_CODES = {status: code for code, status in enumerate(STATUSES)}
_QUEUED, _SHED, _BROADCAST = _CODES["queued"], _CODES["shed"], _CODES["broadcast"]

#: The columns, in the order of the journal's rows and the digest's tuples.
_FIELDS = (
    "req_id", "url_index", "submitted_at", "acked_at", "scheduled_at",
    "broadcast_at", "status",
)
_DTYPES = (np.int64, np.int64) + (np.float64,) * 4 + (np.int8,)

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
"""


class LedgerStats:
    """Latency summary over the ledger's completed requests."""

    def __init__(
        self, counts: dict[str, int], latencies_s: np.ndarray
    ) -> None:
        self.counts = counts
        self.latencies_s = latencies_s

    @property
    def n_requests(self) -> int:
        return sum(self.counts.values())

    @property
    def n_broadcast(self) -> int:
        return self.counts.get("broadcast", 0)

    def percentile(self, q: float) -> float:
        """Request→broadcast latency percentile (seconds); NaN if none."""
        if self.latencies_s.size == 0:
            return float("nan")
        return float(np.percentile(self.latencies_s, q))


def _row_ends(pos: np.ndarray) -> np.ndarray:
    """Indices of the last entry of each run of equal values in sorted ``pos``."""
    return np.flatnonzero(np.append(pos[1:] != pos[:-1], True)) if pos.size else pos


def _nullable(values: np.ndarray) -> list:
    """Column values as sqlite returns them: NaN reads back as ``None``."""
    return np.where(np.isnan(values), None, values).tolist()


class RequestLedger:
    """Request ledger in numpy columns with batched writes.

    ``path`` may be ``":memory:"`` (tests, throwaway runs, every station
    of a network) or a file path, journalled to sqlite at each commit.
    Rows are stored in flush order; a sorted ``req_id`` index (ids and
    row positions) finds them and gives every read its ``req_id`` order.
    Float columns hold NaN for SQL NULL and store what sqlite would
    (``-0.0`` as ``0.0``), so every read equals the sqlite ledger's.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        self._n = 0
        self._cols = {f: np.empty(0, d) for f, d in zip(_FIELDS, _DTYPES)}
        self._ix_id = np.empty(0, np.int64)
        self._ix_pos = np.empty(0, np.int64)
        # Status name -> code; a journal may add names the ledger does
        # not know, so that ``reconcile`` can flag them.
        self._codes = dict(_CODES)
        # Write buffers: the front end records thousands of tiny dispatch
        # groups per simulated hour, so a call only appends to lists.  No
        # per-row object outlives the flush that folds them in.
        self._ids: list[int] = []
        self._urls: list[int] = []
        self._submitted: list[float] = []
        # Four entries per group: rows, acked, scheduled, status.
        self._groups: list = []
        self._marks: list[tuple] = []  # (ids, t, status, rows buffered before)
        self._conn: sqlite3.Connection | None = None
        if self.path != ":memory:":
            self._conn = sqlite3.connect(self.path)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
            self._load()
        self._journaled = self._n  # rows [0, _journaled) were committed
        self._touched: list[np.ndarray] = []  # rows marked since the commit

    def close(self) -> None:
        self.commit()
        if self._conn is not None:
            self._conn.close()

    def _load(self) -> None:
        cursor = self._conn.execute(
            f"SELECT {', '.join(_FIELDS)} FROM requests ORDER BY req_id"
        )
        codes = self._codes
        while rows := cursor.fetchmany(65_536):
            *values, status = zip(*rows)
            self._append(
                [np.array(v, dtype=d) for v, d in zip(values, _DTYPES)]
                + [np.array([codes.setdefault(s, len(codes)) for s in status],
                            dtype=np.int8)]
            )

    # -- batched writes ------------------------------------------------------

    def insert(
        self,
        req_ids: np.ndarray | list[int],
        url_index: int | np.ndarray | list[int],
        submitted_at: np.ndarray | list[float],
        acked_at: float | None,
        scheduled_at: float | None,
        status: str,
    ) -> None:
        """Record one dispatch group (uniform outcome).

        ``url_index`` is one URL for every row, or one per row.
        """
        code = _CODES.get(status)
        if code is None:
            raise ValueError(f"unknown status {status!r}")
        if not isinstance(req_ids, list):
            req_ids = np.asarray(req_ids).tolist()
        if not isinstance(submitted_at, list):
            submitted_at = np.asarray(submitted_at, dtype=np.float64).tolist()
        n = len(req_ids)
        if isinstance(url_index, (int, np.integer)):
            urls = [int(url_index)] * n
        elif isinstance(url_index, list):
            urls = url_index
        else:
            urls = np.asarray(url_index).tolist()
        if len(urls) != n or len(submitted_at) != n:
            raise ValueError("req_ids, url_index and submitted_at differ in length")
        self._ids += req_ids
        self._urls += urls
        self._submitted += submitted_at
        self._groups += (n, acked_at, scheduled_at, code)

    def mark_scheduled(self, req_ids: np.ndarray, t: float) -> None:
        """A deferred request made it onto the carousel after all."""
        self._marks.append(
            (np.array(req_ids, dtype=np.int64), t, _QUEUED, len(self._ids))
        )

    def mark_broadcast(self, req_ids: np.ndarray, t: float) -> None:
        """The page transmission serving these requests completed at ``t``."""
        self._marks.append(
            (np.array(req_ids, dtype=np.int64), t, _BROADCAST, len(self._ids))
        )

    def flush(self) -> None:
        """Fold buffered writes into the columns (the journal waits for ``commit``).

        The window's rows are stored first, so a mark of a row inserted
        later in the window still lands, like a mark of a row stored by
        an earlier flush.  A mark made after its row's insert folds into
        the new row in place; the other marks then apply in call order,
        each setting the status and its own timestamp (a NaN time sets
        none: SQL ``COALESCE``).  A mark of an id never stored does
        nothing.  A duplicate ``req_id`` raises ``ValueError`` and
        discards the whole window, so the ledger stays usable.
        """
        groups, marks = self._groups, self._marks
        if not (groups or marks):
            return
        ids, urls, submitted = self._ids, self._urls, self._submitted
        self._ids, self._urls, self._submitted = [], [], []
        self._groups, self._marks = [], []
        n0 = self._n
        if groups:
            sizes = groups[0::4]

            def per_row(values: list, dtype) -> np.ndarray:
                return np.repeat(np.array(values, dtype=dtype), sizes)

            self._append([
                np.array(ids, dtype=np.int64),
                np.array(urls, dtype=np.int64),
                np.array(submitted, dtype=np.float64),
                per_row(groups[1::4], np.float64),
                per_row(groups[2::4], np.float64),
                np.full(len(ids), np.nan),
                per_row(groups[3::4], np.int8),
            ])
        if marks:
            rows = self._apply_marks(marks, n0)
            if self._conn is not None:
                self._touched.append(rows)

    def _append(self, values: list[np.ndarray]) -> None:
        """Store new rows (one array per field) and merge them into the index."""
        k, n = len(values[0]), self._n
        order = np.argsort(values[0], kind="stable")
        ids = values[0][order]
        at = np.searchsorted(self._ix_id[:n], ids)
        clash = np.zeros(k, dtype=bool)
        clash[1:] = ids[1:] == ids[:-1]
        if n:
            clash |= self._ix_id[np.minimum(at, n - 1)] == ids
        if clash.any():
            raise ValueError(f"duplicate req_id {ids[clash.argmax()]}")
        if np.isnan(values[2]).any():
            raise ValueError("submitted_at must not be NaN")
        if n + k > self._ix_id.size:
            cap = max(n + k, 2 * self._ix_id.size)

            def grown(a: np.ndarray) -> np.ndarray:
                b = np.empty(cap, a.dtype)
                b[:n] = a[:n]
                return b

            self._cols = {f: grown(a) for f, a in self._cols.items()}
            self._ix_id, self._ix_pos = grown(self._ix_id), grown(self._ix_pos)
        for column, v in zip(self._cols.values(), values):
            # Adding 0 stores -0.0 as 0.0, as sqlite's REAL columns do.
            np.add(v, 0, out=column[n : n + k])
        # Only the index entries from the first insertion point on move:
        # none when the new ids all exceed the stored ones.
        lo = int(at[0]) if k else n
        pos = n + order
        if lo < n:
            ids = np.insert(self._ix_id[lo:n], at - lo, ids)
            pos = np.insert(self._ix_pos[lo:n], at - lo, pos)
        self._ix_id[lo : n + k] = ids
        self._ix_pos[lo : n + k] = pos
        self._n = n + k

    def _apply_marks(self, marks: list[tuple], n0: int) -> np.ndarray:
        """Apply a window's marks; returns the rows they changed.

        Rows ``n0`` on are the window's, in insert order, so a mark
        folds into the new rows below its ``rows buffered before``.
        """
        ids, t, status, before = zip(*marks)
        sizes = [a.size for a in ids]
        pos = self._find(np.concatenate(ids))
        fold = (pos >= n0) & (pos - n0 < np.repeat(before, sizes))
        # One stable sort groups the entries by row, folds first, then in
        # call order: the apply order, so each row's last entry wins.
        found = np.flatnonzero(pos >= 0)
        found = found[np.argsort(2 * pos[found] + ~fold[found], kind="stable")]
        pos, fold = pos[found], fold[found]
        t = np.repeat(np.array(t, dtype=np.float64) + 0.0, sizes)[found]  # no -0.0
        status = np.repeat(np.array(status, dtype=np.int8), sizes)[found]
        last = _row_ends(pos)
        self._cols["status"][pos[last]] = status[last]
        for code, field in ((_QUEUED, "scheduled_at"), (_BROADCAST, "broadcast_at")):
            sel = np.flatnonzero((status == code) & (fold | ~np.isnan(t)))
            at = sel[_row_ends(pos[sel])]
            self._cols[field][pos[at]] = t[at]
        return pos[last]

    def _find(self, ids: np.ndarray) -> np.ndarray:
        """Row position of each id, or -1 for an id never stored."""
        n = self._n
        if not n:
            return np.full(ids.size, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self._ix_id[:n], ids), n - 1)
        return np.where(self._ix_id[at] == ids, self._ix_pos[at], -1)

    def commit(self) -> None:
        """Flush; a file ledger then journals every row changed since its
        last commit, in one transaction."""
        self.flush()
        if self._conn is None:
            return
        dirty = np.unique(
            np.concatenate(self._touched + [np.arange(self._journaled, self._n)])
        )
        self._conn.executemany(
            f"INSERT OR REPLACE INTO requests ({', '.join(_FIELDS)})"
            f" VALUES ({', '.join('?' * len(_FIELDS))})",
            itertools.chain.from_iterable(self._row_batches(dirty)),
        )
        self._conn.commit()
        self._journaled, self._touched = self._n, []

    # -- reads ---------------------------------------------------------------

    def _column(self, field: str) -> np.ndarray:
        return self._cols[field][: self._n]

    def _row_batches(self, pos: np.ndarray):
        """The rows at ``pos`` as the tuples sqlite returns, 1,024 at a time."""
        names = list(self._codes)
        c = self._cols
        for lo in range(0, pos.size, 1_024):
            p = pos[lo : lo + 1_024]
            yield list(zip(
                c["req_id"][p].tolist(),
                c["url_index"][p].tolist(),
                c["submitted_at"][p].tolist(),
                _nullable(c["acked_at"][p]),
                _nullable(c["scheduled_at"][p]),
                _nullable(c["broadcast_at"][p]),
                [names[s] for s in c["status"][p].tolist()],
            ))

    def __len__(self) -> int:
        self.flush()
        return self._n

    def counts(self) -> dict[str, int]:
        """Requests per life-cycle status, in status-name order."""
        self.flush()
        tally = np.bincount(self._column("status"), minlength=len(self._codes))
        return {
            name: int(tally[code])
            for name, code in sorted(self._codes.items())
            if tally[code]
        }

    def demand_counts(
        self, since: float | None = None, until: float | None = None
    ) -> dict[int, int]:
        """Per-URL request counts — the demand signal station scheduling eats.

        Every request counts, whatever its fate: a shed request is still
        demand (arguably the loudest kind).  ``since``/``until`` bound the
        window by submission time (half-open, ``since <= t < until``), so
        an epoch scheduler can ask "what was requested this hour" as one
        masked count over the columns; with no bounds it is the whole
        ledger.  Keys ascend by URL index.
        """
        self.flush()
        submitted = self._column("submitted_at")
        keep = np.ones(self._n, dtype=bool)
        if since is not None:
            keep &= submitted >= float(since)
        if until is not None:
            keep &= submitted < float(until)
        urls, n = np.unique(self._column("url_index")[keep], return_counts=True)
        return dict(zip(urls.tolist(), n.tolist()))

    def latencies(self) -> np.ndarray:
        """Request→broadcast latency (seconds) of every served request,
        in ``req_id`` order."""
        self.flush()
        order = self._ix_pos[: self._n]
        served = order[self._cols["status"][order] == _BROADCAST]
        return self._cols["broadcast_at"][served] - self._cols["submitted_at"][served]

    def stats(self) -> LedgerStats:
        return LedgerStats(self.counts(), self.latencies())

    def digest(self) -> str:
        """Content hash over every row, in ``req_id`` order.

        Two runs produced identical ledger outcomes iff their digests
        match — the serial vs batched determinism check.  It hashes the
        ``repr`` of each row's tuple ``(int, int, float, float|None,
        float|None, float|None, str)``, the bytes the sqlite ledger
        hashed, so every pinned digest holds.
        """
        self.flush()
        h = hashlib.sha256()
        # Small batches bound the row tuples held at once; hashing a
        # batch's joined reprs feeds sha256 the same bytes as one update
        # per row.
        for rows in self._row_batches(self._ix_pos[: self._n]):
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
        status = self._column("status")
        submitted = self._column("submitted_at")
        scheduled = self._column("scheduled_at")
        broadcast = self._column("broadcast_at")
        sent = ~np.isnan(broadcast)
        bad_broadcast = np.count_nonzero((status == _BROADCAST) != sent)
        if bad_broadcast:
            raise ValueError(f"{bad_broadcast} rows with inconsistent broadcast state")
        bad_order = np.count_nonzero(
            sent
            & ((broadcast < submitted) | np.isnan(scheduled) | (broadcast < scheduled))
        )
        if bad_order:
            raise ValueError(f"{bad_order} rows with out-of-order timestamps")
        bad_shed = np.count_nonzero((status == _SHED) & ~np.isnan(scheduled))
        if bad_shed:
            raise ValueError(f"{bad_shed} shed rows carry a scheduled timestamp")
        return counts
