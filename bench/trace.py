"""Span recording for the traced benchmark run.

The program is never edited: :func:`instrument` wraps public methods of
the layers at run time (class attributes, restored on exit) and the
benchmark's own calls go through :meth:`Tracer.call`.  Each wrapped call
is a span.  Self time is a span's duration minus the time its child
spans cover, kept per thread with a stack, so a layer's self time never
counts the layers it calls.

Calls that run once per page group or per tick are *hot*: they add to
the totals but leave no span record, which keeps the span list small and
the tracing overhead low.  Calls made once per request are not wrapped
at all, so their cost stays in the caller's self time:
``resolver.epoch`` (about 1.7 million calls a day; the front end's
cohort count stands in for it) and ``RequestLedger.mark_scheduled``
(once per retried request).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path


class _ThreadState:
    """Totals and the open-span stack of one thread (merged at the end)."""

    def __init__(self, thread_name: str) -> None:
        self.thread = thread_name
        self.stack: list[list] = []  # [span id, name, child seconds]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)


class Tracer:
    """In-memory spans plus per-name totals, self times and call counts."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, cohort, thread)
        self.cohort = 0  # run or repetition id stamped on every span
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)  # next() is atomic across threads
        self._hot: dict[str, list] = {}  # name -> [seconds, calls] of hot leaves

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            self._states.append(state)  # list.append is atomic
        return state

    def wrap(self, name: str, fn, record: bool = True):
        """``fn`` wrapped as span ``name``; ``record=False`` for hot calls.

        A hot call must be a leaf (no wrapped calls inside it): it pushes
        no frame of its own, only adds its duration to the caller's.
        """
        clock = time.perf_counter
        if not record:
            # Hot leaves run on the driving thread in every workload, so
            # their totals live in one shared cell, not per-thread state.
            acc = self._hot.setdefault(name, [0.0, 0])
            local = self._local

            def hot(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                dur = clock() - t0
                acc[0] += dur
                acc[1] += 1
                state = getattr(local, "state", None)
                if state is not None and state.stack:
                    state.stack[-1][2] += dur
                return result

            hot.__wrapped__ = fn
            return hot

        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            frame = [next(self._ids), name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                state.total[name] += dur
                state.self_time[name] += dur - frame[2]
                state.count[name] += 1
                if stack:
                    stack[-1][2] += dur
                self.spans.append(
                    (frame[0], name, t0, t1, parent, self.cohort, state.thread)
                )
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one recorded span."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _merged(self, attr: str, name: str) -> float:
        return sum(getattr(s, attr).get(name, 0) for s in self._states)

    def total(self, name: str) -> float:
        """Wall seconds spent in spans called ``name`` (outermost and nested)."""
        return self._merged("total", name) + self._hot.get(name, (0.0, 0))[0]

    def self_s(self, name: str) -> float:
        """Seconds inside ``name`` not covered by a child span."""
        return self._merged("self_time", name) + self._hot.get(name, (0.0, 0))[0]

    def count(self, name: str) -> int:
        return int(self._merged("count", name)) + self._hot.get(name, (0.0, 0))[1]


def write_spans(spans: list[tuple], path: Path) -> None:
    """One JSON object per span: id, name, start, end, parent, cohort, thread."""
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("id", "name", "start", "end", "parent", "cohort", "thread")
    with path.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _patch_table():
    """(owner, attribute, span name, record) for every traced layer."""
    import repro.server.network as network_mod
    import repro.sim.population as population_mod
    from repro.client.client import SonicClient
    from repro.fec.convolutional import ConvolutionalCode
    from repro.fec.reed_solomon import ReedSolomon
    from repro.imaging.codec import SWebpCodec
    from repro.modem.frame import FrameCodec
    from repro.modem.modem import Modem
    from repro.modem.streaming import StreamingReceiver
    from repro.radio.streams import AwgnStream, FmLinkStream
    from repro.server.catalog import CatalogJob
    from repro.server.frontend import CatalogResolver, RequestFrontend, SizeModelResolver
    from repro.server.ledger import RequestLedger
    from repro.server.scheduler import AdaptiveProfileSelector, DemandScheduler
    from repro.transport.carousel import BroadcastCarousel
    from repro.web.render import PageRenderer

    hot = False
    table = [
        (RequestFrontend, "run", "server.frontend", True),
        (SizeModelResolver, "resolve_batch", "server.resolver.resolve", True),
        (CatalogResolver, "resolve_batch", "server.resolver.resolve", True),
        (CatalogResolver, "resolve_commit", "server.resolver.resolve", True),
        (CatalogResolver, "resolve_submit", "server.catalog.submit", True),
        (CatalogResolver, "prefetch_hour", "server.catalog.submit", True),
        (CatalogJob, "wait", "server.catalog.wait", True),
        (RequestLedger, "insert", "server.ledger.write", hot),
        (RequestLedger, "mark_broadcast", "server.ledger.write", hot),
        (RequestLedger, "commit", "server.ledger.flush", True),
        (RequestLedger, "flush", "server.ledger.flush", hot),
        (RequestLedger, "counts", "server.ledger.read", True),
        (RequestLedger, "latencies", "server.ledger.read", True),
        (RequestLedger, "demand_counts", "server.ledger.read", True),
        (RequestLedger, "digest", "server.ledger.read", True),
        (BroadcastCarousel, "enqueue", "transport.carousel.enqueue", hot),
        (BroadcastCarousel, "drain", "transport.carousel.drain", hot),
        (DemandScheduler, "rebalance", "server.scheduler.rebalance", True),
        (DemandScheduler, "observe", "server.scheduler.observe", True),
        (AdaptiveProfileSelector, "select", "server.scheduler.select", hot),
        (network_mod, "generate_requests", "sim.workload.trace", True),
        (PageRenderer, "render", "web.render", True),
        (SWebpCodec, "encode", "imaging.encode", True),
        (SWebpCodec, "decode", "imaging.decode", True),
        (Modem, "transmit_burst", "modem.tx", True),
        (FrameCodec, "encode_batch", "fec.encode", True),
        (StreamingReceiver, "push", "modem.rx", True),
        (StreamingReceiver, "finish", "modem.rx", True),
        (ConvolutionalCode, "decode_soft_batch", "fec.viterbi", True),
        (ReedSolomon, "decode_blocks", "fec.rs_decode", True),
        (FmLinkStream, "process", "radio.channel", True),
        (FmLinkStream, "finish", "radio.channel", True),
        (AwgnStream, "process", "radio.channel", True),
        (AwgnStream, "finish", "radio.channel", True),
        (SonicClient, "on_received_frames", "client.ingest", True),
        (population_mod, "run_population", "sim.population.run", True),
    ]
    return table


@contextmanager
def patched(owner, attr: str, new):
    """Set ``owner.attr`` to ``new`` while the block runs."""
    old = owner.__dict__[attr]
    setattr(owner, attr, new)
    try:
        yield
    finally:
        setattr(owner, attr, old)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer in :func:`_patch_table` while the block runs."""
    with ExitStack() as stack:
        for owner, attr, name, record in _patch_table():
            wrapped = tracer.wrap(name, getattr(owner, attr), record)
            stack.enter_context(patched(owner, attr, wrapped))
        yield tracer
