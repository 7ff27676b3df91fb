"""One worker pool for every parallel fan-out in the reproduction.

The fleet, the tournament, the population tier, the multi-station
network and the catalog render pipeline all run the same shape of
parallel work: build some expensive per-worker state once (a modem, a
renderer, the run's constants), then run many small pure tasks against
it.
:class:`WorkerPool` is that shape, on top of
:class:`concurrent.futures.ProcessPoolExecutor`:

* ``init(*args, **arrays)`` builds each worker's state once, and every
  task is a module-level ``task(state, item)``;
* read-only numpy ``arrays`` (a broadcast waveform, probe bursts) reach
  the workers through shared memory instead of being pickled per
  worker; the segments exist only while a multi-process pool is open;
* with one process, the same ``init`` and tasks run in this process, so
  a caller chooses only a worker count, and every count runs one code
  path.  A submitted task then runs at its first ``result()``, so work
  nobody collects costs nothing;
* a worker that dies, or an ``init`` that raises, fails every pending
  task with :class:`~concurrent.futures.process.BrokenProcessPool`
  instead of stalling the run.

Workers are forked: they inherit the parent's imported modules, where a
spawned worker would re-import numpy, scipy and the package first.
That import takes about a second on a 2-CPU Xeon VM, a third of one
repetition of the ``catalog_day`` benchmark workload.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Iterable
from concurrent.futures import Future, ProcessPoolExecutor
from functools import partial
from multiprocessing import shared_memory
from typing import Any

import numpy as np

__all__ = ["WorkerPool", "worker_count"]


def worker_count(processes: int | None, n_tasks: int | None = None) -> int:
    """Resolve a worker count: ``None`` means one per core.

    The count is clipped to ``n_tasks`` when given, and is never below 1.
    """
    if processes is None:
        processes = os.cpu_count() or 1
    if n_tasks is not None:
        processes = min(processes, n_tasks)
    return max(1, int(processes))


# In a worker process: the state ``init`` built, and the shared-memory
# segments its arrays view (kept open for the worker's lifetime).  Every
# worker is a fresh process serving exactly one pool.
_worker_state: Any = None
_worker_segments: list[shared_memory.SharedMemory] = []


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def _init_worker(init: Callable[..., Any], args: tuple, specs: dict) -> None:
    global _worker_state
    arrays = {}
    for name, (segment, shape, dtype) in specs.items():
        shm = shared_memory.SharedMemory(name=segment)
        _worker_segments.append(shm)
        arrays[name] = _read_only(np.ndarray(shape, dtype=dtype, buffer=shm.buf))
    _worker_state = init(*args, **arrays)


def _run(task: Callable[[Any, Any], Any], item: Any) -> Any:
    return task(_worker_state, item)


class _Deferred(Future):
    """An in-process task that runs at the first :meth:`result` call."""

    def __init__(self, call: Callable[[], Any]) -> None:
        super().__init__()
        self._call = call

    def result(self, timeout: float | None = None) -> Any:
        if not self.done():
            try:
                self.set_result(self._call())
            except Exception as exc:  # stored, and raised below, like a worker's
                self.set_exception(exc)
        return super().result(timeout)


class WorkerPool:
    """``processes`` workers, each holding the state ``init`` built once.

    Construct with ``WorkerPool(processes, init, *args, arrays=...)``;
    each worker (or, with one process, this process) calls
    ``init(*args, **arrays)`` once.  ``task`` arguments must be
    module-level functions, called as ``task(state, item)``; items and
    results are pickled, ``init`` and its ``args`` are inherited by the
    forked workers.  Close the pool (or use it as a context manager) to
    stop the workers and unlink the shared memory.
    """

    def __init__(
        self,
        processes: int,
        init: Callable[..., Any],
        *args: Any,
        arrays: dict[str, np.ndarray] | None = None,
    ) -> None:
        self.processes = processes
        self._executor: ProcessPoolExecutor | None = None
        self._segments: list[shared_memory.SharedMemory] = []
        arrays = arrays or {}
        if processes == 1:
            self._state = init(*args, **{k: _read_only(a) for k, a in arrays.items()})
            return
        try:
            specs = {}
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                shm = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
                self._segments.append(shm)
                np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)[...] = array
                specs[name] = (shm.name, array.shape, array.dtype)
            # The executor forks its workers at the first submit.
            self._executor = ProcessPoolExecutor(
                processes,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(init, args, specs),
            )
        except BaseException:
            self.close()
            raise

    def map(
        self, task: Callable[[Any, Any], Any], items: Iterable[Any], chunksize: int = 1
    ) -> list[Any]:
        """``[task(state, item) for item in items]``, in item order."""
        if self._executor is None:
            return [task(self._state, item) for item in items]
        return list(self._executor.map(partial(_run, task), items, chunksize=chunksize))

    def submit(self, task: Callable[[Any, Any], Any], item: Any) -> Future:
        """A future of ``task(state, item)``."""
        if self._executor is None:
            return _Deferred(partial(task, self._state, item))
        return self._executor.submit(_run, task, item)

    def close(self) -> None:
        """Cancel queued tasks, wait for running ones, free the shared memory."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
        for shm in self._segments:
            shm.close()
            shm.unlink()
        self._segments.clear()

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
