"""Order-preserving maps over a process pool that lives for one call.

Results are consumed in input order, so aggregate outcomes never depend on
completion order. Worker count 1 makes no pool: fn runs in process, lazily.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import AbstractContextManager
from typing import Callable, Iterator, Sequence

_fn = None  # in a worker process: the function of the pool it serves


def _install(fn) -> None:
    global _fn
    _fn = fn


def _call(item):
    return _fn(item)


class Pool(AbstractContextManager):
    """Maps fn over item lists in input order; exit cancels queued work and
    joins the workers. They start on the first map of more than one item,
    one per item up to `workers`, and get fn once, from the initializer
    (inherited under fork, pickled under spawn or forkserver), so only items
    and results cross the process boundary. All must be picklable."""

    def __init__(self, fn: Callable, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.fn, self.workers, self._executor = fn, workers, None

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)

    def map(self, items: Sequence) -> Iterator:
        if self._executor is None:
            if self.workers == 1 or len(items) <= 1:
                return map(self.fn, items)
            self._executor = ProcessPoolExecutor(
                min(self.workers, len(items)), initializer=_install, initargs=(self.fn,)
            )
        chunksize = max(1, len(items) // (self.workers * 4))
        return self._executor.map(_call, items, chunksize=chunksize)


def ordered_map(fn: Callable, items: Sequence, workers: int = 1) -> Iterator:
    """Yield fn(item) in input order through a Pool opened for this map
    alone, refusing workers < 1 at call time. The pool is torn down once
    the consumer stops, cancelling unconsumed work."""
    return _drain(Pool(fn, workers), items)


def _drain(pool: Pool, items: Sequence) -> Iterator:
    with pool:
        yield from pool.map(items)
