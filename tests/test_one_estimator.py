"""One estimator: `estimate_d_hardness` probes every branch by unit
propagation first, and the CLI evaluates each branch once.

`estimate_d_hardness_with_up_preprocessing` is the same function under the
name the benchmark calls, and the estimate always reports easy_count. The
first round's probe results give rho, so the CLI `estimate` makes no kernel
call beyond those of the library estimate.
"""
import dataclasses
import itertools
import time
from functools import partial

import pytest

import satdecomp.estimator
import satdecomp.parallel
from satdecomp.cli import EXIT_ERROR, EXIT_OK, main
from satdecomp.estimator import EstimatorConfig, estimate_d_hardness, estimate_rho
from satdecomp.formula import CnfFormula, write_dimacs
from satdecomp.instances import pigeonhole, sgen_style
from satdecomp.parallel import ordered_map
from satdecomp.solver import evaluate_branch

from conftest import dset

# the first samples with repeats and may stop unconverged at max_n; the
# second samples 8 and 16 draws, then enumerates once 2^|B| <= 32
CONFIGS = [
    EstimatorConfig(epsilon=0.05, initial_n=6, max_n=24, seed=3),
    EstimatorConfig(epsilon=1e-3, initial_n=8, max_n=64, seed=0),
]


def test_the_benchmark_name_is_the_estimate_and_easy_count_an_int(unsat_fixtures):
    assert satdecomp.estimator.estimate_d_hardness_with_up_preprocessing is (
        estimate_d_hardness
    )
    assert not hasattr(satdecomp, "estimate_d_hardness_with_up_preprocessing")
    sampled = switched = 0
    for name, f in unsat_fixtures:
        B = dset(range(1, min(5, f.num_vars) + 1), f.num_vars)
        for base, measure in itertools.product(CONFIGS, ["propagations", "conflicts"]):
            cfg = dataclasses.replace(base, measure=measure)
            est = estimate_d_hardness(f, B, cfg)
            assert type(est.easy_count) is int, (name, cfg)
            assert 0 <= est.easy_count <= est.stats.n
            sampled += not est.exhaustive
            switched += est.exhaustive and (1 << len(B)) > cfg.initial_n
    assert sampled > 0 and switched > 0


@pytest.mark.parametrize("width", [6, 5], ids=["sampled", "enumerated"])
def test_rho_is_the_first_round_of_the_estimate(width):
    cfg = EstimatorConfig(epsilon=1e-3, initial_n=32, max_n=128, seed=7)
    for f in (sgen_style(4, seed=0), pigeonhole(4, 3)):
        B = dset(range(1, width + 1), f.num_vars)
        est = estimate_d_hardness(f, B, cfg)
        assert not est.sat_found
        assert est.rho == estimate_rho(f, B, cfg.initial_n, cfg.seed)
        assert est.rho.exhaustive == (width == 5)


def test_a_branch_that_propagation_satisfies_gives_its_partial_witness():
    # x1 = 0 forces x2 and satisfies every clause, leaving x3 unassigned
    f = CnfFormula(3, ((1, 2), (-1, 3)))
    est = estimate_d_hardness(f, dset([1], 3), EstimatorConfig(initial_n=2))
    assert est.sat_found and est.rho is None
    assert est.witness == {1: 0, 2: 1}
    assert all(
        any(est.witness.get(abs(lit)) == (lit > 0) for lit in clause)
        for clause in f.clauses
    )


def _counting(monkeypatch):
    calls = []

    def count(formula, beta, *args, **kwargs):
        calls.append(dict(beta))
        return evaluate_branch(formula, beta, *args, **kwargs)

    monkeypatch.setattr(satdecomp.estimator, "evaluate_branch", count)
    return calls


def test_cli_estimate_makes_only_the_library_estimates_kernel_calls(
    monkeypatch, capsys, tmp_path
):
    f = sgen_style(4, seed=0)
    path = tmp_path / "sgen4.cnf"
    path.write_text(write_dimacs(f))
    B = dset(range(1, 7), f.num_vars)
    calls = _counting(monkeypatch)
    argv = ["estimate", str(path), "--backdoor", *map(str, B.members),
            "--sample-size", "40", "--max-sample-size", "80", "--seed", "7"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    cli_calls = list(calls)

    calls.clear()
    cfg = EstimatorConfig(initial_n=40, max_n=80, seed=7)
    est = estimate_d_hardness(f, B, cfg)
    assert cli_calls == calls
    assert len(calls) == len({tuple(beta.items()) for beta in calls})
    assert f"rho_easy={est.rho.easy_count}\n" in out
    assert f"easy_count={est.easy_count}\n" in out
    assert "up_preprocessing=true\n" in out


def test_estimate_has_no_no_up_flag(tmp_path):
    path = tmp_path / "php43.cnf"
    path.write_text(write_dimacs(pigeonhole(4, 3)))
    argv = ["estimate", str(path), "--backdoor", "1", "2", "3", "--no-up"]
    assert main(argv) == EXIT_ERROR


def test_find_backdoor_has_no_no_up_flag(tmp_path):
    path = tmp_path / "php43.cnf"
    path.write_text(write_dimacs(pigeonhole(4, 3)))
    argv = ["find-backdoor", str(path), "--generations", "1", "--no-up"]
    assert main(argv) == EXIT_ERROR


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size, runs the
    initializer and maps in process."""

    sizes: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def test_the_pool_has_no_more_workers_than_items(monkeypatch):
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(satdecomp.parallel, "ProcessPoolExecutor", _InProcessPool)
    assert list(ordered_map(abs, [-1, -2, -3], workers=64)) == [1, 2, 3]
    assert _InProcessPool.sizes == [3]


def _sleep_and_mark(directory, i):
    time.sleep(0.05)
    (directory / f"item_{i}").touch()
    return i


def test_a_stopped_consumer_drops_queued_work(tmp_path):
    results = ordered_map(partial(_sleep_and_mark, tmp_path), range(64), workers=2)
    first = next(results)
    results.close()
    assert first == 0
    # the pool is torn down once the consumer stops: queued items never run
    assert len(list(tmp_path.iterdir())) < 64
