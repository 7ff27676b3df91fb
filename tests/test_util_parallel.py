"""The shared worker pool: serial == pooled, and failures raise."""

import os
import signal
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.util.parallel import WorkerPool, worker_count


def _state(offset, wave):
    return offset, wave


def _task(state, item):
    offset, wave = state
    return item * 2 + offset, wave[item % wave.size].tobytes()


def _wave(state, _item):
    return state[1]


def _write(state, _item):
    state[1][0] = 0


def _exit(_state, _item):
    os._exit(1)


def _failing_init():
    raise RuntimeError("init failed")


def _same(value):
    return value


def _record(calls, item):
    calls.append(item)
    return item


@contextmanager
def _deadline(seconds):
    """Fail, rather than hang, if the block outlives ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"pool still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSerialEqualsPooled:
    @settings(max_examples=12, deadline=None)
    @given(
        items=st.lists(st.integers(0, 10_000), max_size=24),
        wave=hnp.arrays(
            st.sampled_from([np.float64, np.int32, np.uint8]),
            hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
        ),
        processes=st.sampled_from([1, 2]),
        chunksize=st.integers(1, 5),
    )
    def test_map_and_submit_match_list_comprehension(
        self, items, wave, processes, chunksize
    ):
        flat = wave.reshape(-1)
        expect = [_task((7, flat), item) for item in items]
        with _deadline(60), WorkerPool(
            processes, _state, 7, arrays={"wave": flat}
        ) as pool:
            assert pool.map(_task, items, chunksize=chunksize) == expect
            futures = [pool.submit(_task, item) for item in items]
            assert [f.result() for f in futures] == expect
            seen = pool.submit(_wave, None).result()
        assert seen.dtype == flat.dtype
        np.testing.assert_array_equal(seen, flat)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_arrays_are_read_only(self, processes):
        with _deadline(60), WorkerPool(
            processes, _state, 0, arrays={"wave": np.arange(4.0)}
        ) as pool:
            with pytest.raises(ValueError, match="read-only"):
                pool.submit(_write, None).result()


class TestFailuresRaise:
    def test_dead_worker_breaks_map(self):
        with _deadline(60), WorkerPool(2, _same, None) as pool:
            with pytest.raises(BrokenProcessPool):
                pool.map(_exit, range(4))

    def test_failing_init_breaks_map(self):
        with _deadline(60), WorkerPool(2, _failing_init) as pool:
            with pytest.raises(BrokenProcessPool):
                pool.map(_record, range(4))


class TestInProcess:
    def test_submit_runs_at_first_result(self):
        calls = []
        with WorkerPool(1, _same, calls) as pool:
            future = pool.submit(_record, 7)
            assert calls == [] and not future.done()
            assert future.result() == 7
            assert future.result() == 7
            assert calls == [7]  # ran once, at the first result()

    def test_worker_count(self):
        assert worker_count(None) == (os.cpu_count() or 1)
        assert worker_count(8, 3) == 3
        assert worker_count(4, 0) == 1
        assert worker_count(0) == 1


class TestSharedMemory:
    def test_close_unlinks_segments(self):
        wave = np.arange(16.0)
        serial = WorkerPool(1, _state, 0, arrays={"wave": wave})
        assert serial._segments == []  # one process shares nothing
        pool = WorkerPool(2, _state, 0, arrays={"wave": wave})
        names = [shm.name for shm in pool._segments]
        assert len(names) == 1
        with _deadline(60):
            assert pool.map(_task, [3]) == [(6, wave[3].tobytes())]
        pool.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
