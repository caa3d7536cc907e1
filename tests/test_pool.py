"""One worker pool per top-level call, fed with branch indices only.

`parallel.Pool` hands its function to each worker once, through the
executor's initializer, and `estimate_d_hardness` opens one pool for all its
rounds. These tests record every executor that `satdecomp.parallel` builds
and hold the estimate to one pool, int items and no worker left alive after
it returns, whether it converged, stopped on a satisfiable branch or raised.
"""
import dataclasses
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

import satdecomp.estimator
import satdecomp.parallel
from satdecomp.estimator import estimate_d_hardness, map_branches, sweep_branches
from satdecomp.parallel import ordered_map

from test_branch_map import B5, F, SAT_B5, SAT_F, SWITCH

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def pools(monkeypatch):
    """Every executor satdecomp.parallel builds, each with its item lists."""
    built = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.maps = []
            built.append(self)

        def map(self, fn, *iterables, timeout=None, chunksize=1):
            items = list(iterables[0])
            self.maps.append(items)
            return super().map(fn, items, timeout=timeout, chunksize=chunksize)

    monkeypatch.setattr(satdecomp.parallel, "ProcessPoolExecutor", Recording)
    return built


def _estimate(formula, B, workers):
    return estimate_d_hardness(formula, B, dataclasses.replace(SWITCH, workers=workers))


@pytest.mark.parametrize("case", ["converged", "sat"])
def test_an_estimate_opens_one_pool_for_all_its_rounds(pools, case):
    formula, B = (F, B5) if case == "converged" else (SAT_F, SAT_B5)
    est = _estimate(formula, B, 2)
    assert multiprocessing.active_children() == []
    assert len(pools) == 1
    (pool,) = pools
    assert all(type(i) is int for items in pool.maps for i in items)
    if case == "converged":
        assert est.exhaustive and len(pool.maps) >= 3  # 8 and 16 draws, then 32
    else:
        assert est.sat_found
    assert est == _estimate(formula, B, 1)
    assert len(pools) == 1  # one worker makes no pool


def test_an_estimate_that_raises_leaves_no_worker(pools, monkeypatch):
    # the third round enumerates 32 branches, past this cap
    monkeypatch.setattr(satdecomp.estimator, "ENUMERATION_CAP", 16)
    with pytest.raises(ValueError, match="enumeration cap"):
        _estimate(F, B5, 2)
    assert len(pools) == 1 and len(pools[0].maps) == 2
    assert multiprocessing.active_children() == []


def _fail_on_three(i):
    if i == 3:
        raise RuntimeError("item 3")
    return i


def test_a_raising_item_leaves_no_worker(pools):
    with pytest.raises(RuntimeError, match="item 3"):
        list(ordered_map(_fail_on_three, range(8), workers=2))
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("call", [
    lambda: ordered_map(abs, [-1, -2], workers=0),
    lambda: map_branches(F, B5, [0, 1], workers=0),
    lambda: sweep_branches(F, B5, workers=-1),
], ids=["ordered_map", "map_branches", "sweep_branches"])
def test_a_worker_count_below_one_is_refused_at_call_time(call):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        call()  # not iterated


SPAWN = """
import multiprocessing, sys
sys.path[:0] = sys.argv[1:]
multiprocessing.set_start_method("spawn")
from test_branch_map import RUNS
for name in ("estimate_d_hardness", "solve_with_backdoors"):
    if RUNS[name](2) != RUNS[name](1):
        sys.exit(f"{name}: two spawned workers differ from one")
print(multiprocessing.get_start_method())
"""


def test_two_spawned_workers_give_the_one_worker_result():
    # under spawn the branch function reaches each worker by pickle
    proc = subprocess.run(
        [sys.executable, "-c", SPAWN,
         os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "spawn\n"
