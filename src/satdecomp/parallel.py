"""Order-preserving map over an optional process pool.

Workers speed up independent solver launches; results are always consumed
in submission order, so aggregate outcomes never depend on completion
order. Worker count 1 bypasses the pool entirely.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(
    fn: Callable[[T], R], items: Sequence[T], workers: int = 1
) -> Iterator[R]:
    """Yield fn(item) in input order, using a process pool when workers > 1.

    fn and items must be picklable when workers > 1. The pool is torn down
    eagerly if the consumer stops early, cancelling unconsumed work.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(items) <= 1:
        for item in items:
            yield fn(item)
        return
    chunksize = max(1, len(items) // (workers * 4))
    # the pool starts all its processes at once, so none beyond the items
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        yield from pool.map(fn, items, chunksize=chunksize)
