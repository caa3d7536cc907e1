"""The one walk over a whole decomposition set, and what rides on it."""

import pytest

import satdecomp
from satdecomp.decompose import solve_with_backdoors
from satdecomp.estimator import (
    ENUMERATION_CAP,
    DecompositionSet,
    branch_assignment,
    exact_d_hardness,
    sweep_branches,
)
from satdecomp.instances import pigeonhole
from satdecomp.solver import evaluate_branch

import conftest


def dset(vars_, nv):
    return DecompositionSet.from_vars(vars_, nv)


class TestSweepBranches:
    def test_pairs_in_lexicographic_order(self):
        f = pigeonhole(3, 2)
        B = dset([2, 5, 6], f.num_vars)
        pairs = list(sweep_branches(f, B, search=False))
        assert [beta for beta, _ in pairs] == [branch_assignment(B, i) for i in range(8)]
        for beta, out in pairs:
            ref = evaluate_branch(f, beta, search=False)
            assert (out.tier, out.verdict, out.propagations) == (
                ref.tier, ref.verdict, ref.propagations
            )

    def test_checks_run_before_any_branch(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            satdecomp.estimator, "evaluate_branch", lambda *a, **k: calls.append(a)
        )
        f = conftest.implication_chain(30)
        with pytest.raises(ValueError, match="num_vars"):
            sweep_branches(f, dset([1], 31))
        with pytest.raises(ValueError, match="enumeration cap"):
            sweep_branches(f, dset(range(1, 22), 30))
        with pytest.raises(ValueError, match="enumeration cap"):
            sweep_branches(f, dset([1, 2, 3], 30), cap=4)
        assert calls == []

    def test_default_cap_is_two_to_the_twenty(self):
        assert ENUMERATION_CAP == 1 << 20
        assert not hasattr(satdecomp, "ENUMERATION_CAP")

    def test_lazy_at_one_worker(self, monkeypatch):
        f = conftest.implication_chain(12)
        seen = []
        real = satdecomp.estimator.evaluate_branch

        def counting(*args, **kwargs):
            seen.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(satdecomp.estimator, "evaluate_branch", counting)
        sweep = sweep_branches(f, dset(range(1, 11), 12), search=False)
        assert seen == []
        next(sweep)
        assert len(seen) == 1

    def test_empty_set_is_the_formula_itself(self):
        f = pigeonhole(3, 2)
        B = DecompositionSet(f.num_vars, 0)
        assert exact_d_hardness(f, B) == satdecomp.solve(f).propagations

    def test_every_set_is_checked_before_any_is_probed(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            satdecomp.estimator, "evaluate_branch", lambda *a, **k: calls.append(a)
        )
        f = conftest.implication_chain(30)
        sets = [dset([1], 30), dset(range(1, 22), 30)]
        with pytest.raises(ValueError, match="enumeration cap"):
            solve_with_backdoors(f, sets)
        assert calls == []
