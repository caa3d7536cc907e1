"""Every branch evaluation goes through one map and every draw through one rule.

The estimators, rho, the exact oracle and decomposed solving all evaluate
their branches through `estimator.map_branches`, and the random draw is the
one behind `sample_assignments`. These tests hold the results to that: where
a function takes a worker count, they do not depend on it, and each estimator
sees exactly the branches of `sample_assignments(B, n, seed)`, in its order.
"""
import dataclasses

import pytest

import satdecomp.estimator
from satdecomp.decompose import solve_with_backdoors
from satdecomp.estimator import (
    EstimatorConfig,
    compute_stats,
    estimate_d_hardness,
    estimate_rho,
    sample_assignments,
)
from satdecomp.instances import random_cnf, sgen_style
from satdecomp.solver import UNDECIDED, evaluate_branch

from conftest import dset

F = sgen_style(4, seed=0)  # 16 variables, unsatisfiable
B5 = dset(range(1, 6), F.num_vars)  # 32 branches
B6 = dset(range(1, 7), F.num_vars)  # 64 branches

# 8 and then 16 draws of 32 branches repeat some, and the next doubling
# (32) switches to enumeration; a tiny epsilon keeps it from converging
SWITCH = EstimatorConfig(epsilon=1e-3, initial_n=8, max_n=64, seed=0)
# satisfiable; search satisfies one of the first 8 draws over its B5
SAT_F = random_cnf(20, 70, 3, seed=0)
SAT_B5 = dset(range(1, 6), SAT_F.num_vars)


def _untimed(verdict):
    return dataclasses.replace(
        verdict,
        elapsed_s=0.0,
        branches=tuple(dataclasses.replace(b, elapsed_s=0.0) for b in verdict.branches),
    )


def _multi(workers):
    sets = [dset([1, 2, 3], F.num_vars), dset([3, 4, 5], F.num_vars)]
    return _untimed(solve_with_backdoors(F, sets, workers=workers))


RUNS = {
    "estimate_d_hardness": lambda w: estimate_d_hardness(
        F, B5, dataclasses.replace(SWITCH, workers=w)
    ),
    "estimate_witness": lambda w: estimate_d_hardness(
        SAT_F, SAT_B5, dataclasses.replace(SWITCH, workers=w)
    ),
    "solve_with_backdoors": _multi,
}


def test_the_switch_case_samples_with_repeats_then_enumerates():
    for n in (8, 16):
        draw = sample_assignments(B5, n, SWITCH.seed)
        assert not draw.exhaustive
        assert len({tuple(beta.values()) for beta in draw.assignments}) < n
    est = estimate_d_hardness(F, B5, SWITCH)
    assert est.exhaustive and est.stats.n == 32


def test_the_merge_case_has_vacuous_and_solved_merges():
    verdict = _multi(1)
    assert verdict.vacuous_count > 0
    assert any(b.backdoor_id == -1 for b in verdict.branches)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_two_workers_give_the_one_worker_result(name):
    assert RUNS[name](2) == RUNS[name](1)


def _recording(monkeypatch):
    """Record the beta of every branch evaluated through the estimator."""
    seen = []

    def record(formula, beta, *args, **kwargs):
        seen.append(dict(beta))
        return evaluate_branch(formula, beta, *args, **kwargs)

    monkeypatch.setattr(satdecomp.estimator, "evaluate_branch", record)
    return seen


@pytest.mark.parametrize("B", [B6, B5], ids=["sampled", "enumerated"])
def test_estimators_see_the_branches_of_sample_assignments(monkeypatch, B):
    n, seed = 40, 7
    draw = sample_assignments(B, n, seed)
    assert draw.exhaustive == ((1 << len(B)) <= n)
    betas = list(draw.assignments)
    seen = _recording(monkeypatch)

    est = estimate_d_hardness(F, B, EstimatorConfig(initial_n=n, max_n=n, seed=seed))
    costs = [evaluate_branch(F, beta, up_first=False).propagations for beta in betas]
    assert est.stats == compute_stats(costs)
    assert est.exhaustive == draw.exhaustive
    # each distinct branch is evaluated once, in order of first draw
    distinct = {tuple(beta.items()): beta for beta in betas}
    assert seen == list(distinct.values())

    seen.clear()
    rho = estimate_rho(F, B, n, seed)
    probes = [evaluate_branch(F, beta, search=False) for beta in betas]
    assert rho.easy_count == sum(1 for out in probes if out.tier != UNDECIDED)
    assert (rho.n, rho.exhaustive) == (len(betas), draw.exhaustive)
    assert seen == betas
