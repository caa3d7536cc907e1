"""The one walk over a whole decomposition set, and what rides on it."""

import pytest

import satdecomp
from satdecomp.decompose import solve_with_backdoor, solve_with_backdoors
from satdecomp.estimator import (
    ENUMERATION_CAP,
    DecompositionSet,
    EstimatorConfig,
    branch_assignment,
    estimate_d_hardness,
    exact_d_hardness,
    sweep_branches,
)
from satdecomp.formula import CnfFormula
from satdecomp.instances import pigeonhole
from satdecomp.proofs import check_proof_bundle, generate_proof_bundle
from satdecomp.solver import SAT, evaluate_branch

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

    def test_a_satisfiable_branch_carries_beta_in_its_model(self):
        # x1 = 0 leaves the residual (x2), which propagation satisfies alone
        f = CnfFormula(3, ((1, 2), (-1, 3)))
        beta, out = next(sweep_branches(f, dset([1], 3)))
        assert beta == {1: 0}
        assert out.verdict == SAT and out.model == {1: 0, 2: 1}

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


PHP = pigeonhole(4, 3)  # 12 variables, unsatisfiable
B4 = dset([1, 2, 3, 4], 12)  # 16 branches, over the patched cap of 8
# each has 8 branches, 3 of them hard: their product has 9 elements
PAIR = [dset([1, 2, 3], 12), dset([4, 5, 6], 12)]


def _raised(fn, *args):
    with pytest.raises(ValueError) as exc:
        fn(*args)
    return str(exc.value)


# name -> (run giving the refusal message, branches probed before it, count)
REFUSALS = {
    "sweep_branches": (lambda _: _raised(sweep_branches, PHP, B4), 0, 16),
    "solve_with_backdoor": (lambda _: _raised(solve_with_backdoor, PHP, B4), 0, 16),
    "estimator_switch": (
        lambda _: _raised(estimate_d_hardness, PHP, B4, EstimatorConfig(initial_n=16)),
        0, 16,
    ),
    "product": (lambda _: _raised(solve_with_backdoors, PHP, PAIR), 16, 9),
    "bundle_header": (lambda bundle: check_proof_bundle(bundle).reason, 0, 16),
}


@pytest.fixture
def bundle(tmp_path):
    """A bundle over B4, written at the real cap."""
    generate_proof_bundle(PHP, B4, k_groups=2, out_dir=tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_the_one_cap_is_read_at_call_time(name, bundle, monkeypatch):
    run, probes, count = REFUSALS[name]
    calls = []
    real = satdecomp.estimator.evaluate_branch

    def recording(*args, **kwargs):
        calls.append(kwargs["search"])
        return real(*args, **kwargs)

    monkeypatch.setattr(satdecomp.estimator, "evaluate_branch", recording)
    monkeypatch.setattr(satdecomp.estimator, "ENUMERATION_CAP", 8)
    assert run(bundle).endswith(f"{count} branches exceed the enumeration cap 8")
    # only the product is refused after branches run: both sets' probes
    assert calls == [False] * probes
