import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satdecomp.estimator import (
    DecompositionSet,
    EstimatorConfig,
    SampleStats,
    branch_assignment,
    branch_bits,
    compute_stats,
    estimate_d_hardness,
    estimate_rho,
    exact_d_hardness,
    mask_seed,
    required_sample_size,
    sample_assignments,
)
from satdecomp.formula import CnfFormula
from satdecomp.instances import complete_contradiction, pigeonhole, sgen_style
import satdecomp.solver
from satdecomp.solver import solve

import conftest
from oracles import (
    brute_force_hardness,
    brute_force_rho,
    brute_force_two_tier,
)
from test_formula import formulas


class TestDecompositionSet:
    def test_members_sorted(self):
        B = DecompositionSet.from_vars([5, 2, 9], 10)
        assert B.members == (2, 5, 9)
        assert len(B) == 3

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            DecompositionSet.from_vars([1, 1], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DecompositionSet.from_vars([4], 3)

    def test_mask_bits_outside_range_rejected(self):
        with pytest.raises(ValueError):
            DecompositionSet(2, 0b100)


class TestSampling:
    def test_small_sets_enumerate_in_order(self):
        B = DecompositionSet.from_vars([2, 5], 6)
        draw = sample_assignments(B, 10, seed=0)
        assert draw.exhaustive
        assert [tuple(sorted(b.items())) for b in draw.assignments] == [
            ((2, 0), (5, 0)),
            ((2, 0), (5, 1)),
            ((2, 1), (5, 0)),
            ((2, 1), (5, 1)),
        ]

    def test_seeded_draws_reproduce(self):
        B = DecompositionSet.from_vars(range(1, 21), 20)
        a = sample_assignments(B, 3, seed=42)
        b = sample_assignments(B, 3, seed=42)
        assert not a.exhaustive
        assert a.assignments == b.assignments

    def test_prefix_stability(self):
        B = DecompositionSet.from_vars(range(1, 21), 20)
        short = sample_assignments(B, 3, seed=7).assignments
        long = sample_assignments(B, 10, seed=7).assignments
        assert long[:3] == short

    def test_marginals_near_uniform(self):
        B = DecompositionSet.from_vars(range(1, 21), 20)
        draw = sample_assignments(B, 10000, seed=1)
        for v in range(1, 21):
            freq = sum(b[v] for b in draw.assignments) / 10000
            assert abs(freq - 0.5) <= 0.02

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            sample_assignments(DecompositionSet.from_vars([], 3), 4, seed=0)

    def test_branch_assignment_order_and_bits(self):
        B = DecompositionSet.from_vars([1, 3], 3)
        beta = branch_assignment(B, 2)
        assert beta == {1: 1, 3: 0}
        assert branch_bits(B, beta) == "10"
        with pytest.raises(ValueError):
            branch_assignment(B, 4)


HAND_TABLE = [
    ((4.0, 10.0, 0.1, 0.1), 40),
    ((1.0, 1.0, 0.5, 0.5), 8),
    ((9.0, 3.0, 0.5, 0.2), 20),
    ((2.0, 1.0, 0.5, 0.5), 16),
    ((5.0, 2.0, 0.25, 0.4), 50),
    ((7.0, 1.0, 0.5, 0.7), 40),
    ((1.0, 10.0, 0.1, 0.1), 10),
    ((3.0, 2.0, 0.3, 0.5), 17),
    ((100.0, 5.0, 0.2, 0.1), 1000),
    ((1.0, 4.0, 0.25, 0.25), 4),
]


class TestRequiredSampleSize:
    @pytest.mark.parametrize("inputs,expected", HAND_TABLE)
    def test_hand_computed_values(self, inputs, expected):
        s2, mean, eps, delta = inputs
        stats = SampleStats(n=10, mean=mean, variance=s2)
        assert required_sample_size(stats, eps, delta) == expected

    def test_zero_variance_returns_one(self):
        assert required_sample_size(SampleStats(10, 7.0, 0.0), 0.1, 0.1) == 1

    def test_zero_mean_returns_one(self):
        assert required_sample_size(SampleStats(10, 0.0, 2.5), 0.1, 0.1) == 1

    def test_invalid_parameters_rejected(self):
        stats = SampleStats(10, 1.0, 1.0)
        with pytest.raises(ValueError):
            required_sample_size(stats, 0.0, 0.1)
        with pytest.raises(ValueError):
            required_sample_size(stats, 0.1, 1.0)

    def test_compute_stats(self):
        s = compute_stats([1, 3])
        assert (s.n, s.mean, s.variance) == (2, 2.0, 2.0)
        with pytest.raises(ValueError):
            compute_stats([])


class TestEstimate:
    def test_unit_pair_full_backdoor_exact(self):
        f = CnfFormula(1, ((1,), (-1,)))
        B = DecompositionSet.from_vars([1], 1)
        est = estimate_d_hardness(f, B, EstimatorConfig(initial_n=2))
        assert est.exhaustive and est.converged
        assert est.value == 0.0
        assert est.log2_value == -math.inf
        assert est.value == exact_d_hardness(f, B)

    def test_zero_variance_converges_after_first_batch(self):
        f = conftest.zero_variance_pad(14)
        B = DecompositionSet.from_vars(range(3, 15), 14)
        est = estimate_d_hardness(f, B, EstimatorConfig(initial_n=1000, max_n=100000))
        assert est.converged and not est.exhaustive
        assert est.stats.n == 1000
        assert est.stats.variance == 0.0
        assert est.value == math.ldexp(3.0, 12)

    def test_php43_exhaustive_matches_brute_force(self):
        f = pigeonhole(4, 3)
        B = DecompositionSet.from_vars([1, 2, 3, 4], 12)
        est = estimate_d_hardness(f, B, EstimatorConfig(initial_n=16))
        assert est.exhaustive
        assert est.value == brute_force_hardness(f, [1, 2, 3, 4], "propagations") == 83
        assert est.value == exact_d_hardness(f, B)

    def test_conflicts_measure_matches_brute_force(self):
        f = pigeonhole(4, 3)
        B = DecompositionSet.from_vars([1, 2, 3, 4], 12)
        est = estimate_d_hardness(
            f, B, EstimatorConfig(initial_n=16, measure="conflicts")
        )
        assert est.value == brute_force_hardness(f, [1, 2, 3, 4], "conflicts")

    def test_identity_scale_factor(self):
        f = pigeonhole(4, 3)
        B = DecompositionSet.from_vars([1, 2], 12)
        est = estimate_d_hardness(f, B, EstimatorConfig(initial_n=4))
        assert est.value == math.ldexp(est.stats.mean, 2)

    def test_sat_branch_aborts_with_witness(self):
        f = CnfFormula(2, ((1, 2),))
        B = DecompositionSet.from_vars([1], 2)
        est = estimate_d_hardness(f, B, EstimatorConfig(initial_n=2))
        assert est.sat_found
        assert est.witness is not None

    def test_empty_backdoor_is_direct_solve(self):
        f = pigeonhole(3, 2)
        B = DecompositionSet.from_vars([], 6)
        assert exact_d_hardness(f, B) == 11
        with pytest.raises(ValueError):
            estimate_d_hardness(f, B, EstimatorConfig(initial_n=2))

    def test_enumeration_cap_enforced(self):
        # the first round's 2^21 draws switch to enumerating 2^21 branches
        f = pigeonhole(6, 5)
        B = DecompositionSet.from_vars(range(1, 22), f.num_vars)
        cfg = EstimatorConfig(initial_n=1 << 21, max_n=1 << 21)
        with pytest.raises(ValueError, match="enumeration cap"):
            estimate_d_hardness(f, B, cfg)

    def test_exhaustive_switch_evaluates_each_branch_once(self, monkeypatch):
        # rounds of 300 and 600 draws, then 2^10 <= 1200 switches to
        # enumeration: the sampled branches are reused, none is solved twice
        f = sgen_style(6)
        B = DecompositionSet.from_vars(range(1, 11), f.num_vars)
        cfg = EstimatorConfig(initial_n=300, max_n=4096, epsilon=0.02, delta=0.05)
        exact = exact_d_hardness(f, B)
        calls = []
        real = satdecomp.solver.substitute

        def counting(formula, beta):
            calls.append(tuple(sorted(beta.items())))
            return real(formula, beta)

        monkeypatch.setattr(satdecomp.solver, "substitute", counting)
        est = estimate_d_hardness(f, B, cfg)
        assert est.exhaustive and est.converged
        assert est.value == exact
        assert len(calls) == len(set(calls)) == 1024

    def test_backdoor_var_out_of_formula_rejected(self):
        f = CnfFormula(2, ((1, 2),))
        with pytest.raises(ValueError):
            estimate_d_hardness(f, DecompositionSet.from_vars([3], 3))


class TestUpPreprocessing:
    def test_supbs_branches_all_easy(self):
        f = complete_contradiction(3)
        B = DecompositionSet.from_vars([1, 2], 3)
        est = estimate_d_hardness(f, B, EstimatorConfig(initial_n=4))
        assert est.exhaustive
        assert est.easy_count == 4

    def test_mixed_case_matches_two_tier_brute_force(self):
        f = pigeonhole(4, 3)
        vars_ = [1, 2, 3]
        B = DecompositionSet.from_vars(vars_, 12)
        est = estimate_d_hardness(f, B, EstimatorConfig(initial_n=8))
        assert est.exhaustive
        assert est.value == brute_force_two_tier(f, vars_, "propagations")

    def test_up_tier_agrees_with_plain_on_integer_measures(self, unsat_fixtures):
        for name, f in unsat_fixtures:
            vars_ = list(range(1, min(4, f.num_vars) + 1))
            B = DecompositionSet.from_vars(vars_, f.num_vars)
            for measure in ("propagations", "conflicts"):
                cfg = EstimatorConfig(initial_n=1 << len(B), measure=measure)
                tiered = estimate_d_hardness(f, B, cfg)
                assert tiered.exhaustive
                # exact_d_hardness solves every branch without the probe
                assert tiered.value == exact_d_hardness(f, B, measure), (name, measure)

    def test_sat_witness_is_total(self):
        f = CnfFormula(2, ((1, 2),))
        B = DecompositionSet.from_vars([1], 2)
        est = estimate_d_hardness(f, B, EstimatorConfig(initial_n=2))
        assert est.sat_found
        assert set(est.witness) == {1, 2}


class TestRho:
    def test_supbs_rho_exactly_one(self):
        f = complete_contradiction(3)
        B = DecompositionSet.from_vars([1, 2], 3)
        r = estimate_rho(f, B, n=4)
        assert r.exhaustive
        assert r.rho == 1.0

    def test_inert_backdoor_rho_zero(self):
        f = conftest.double_xor()
        B = DecompositionSet.from_vars([3], 4)
        r = estimate_rho(f, B, n=2)
        assert r.exhaustive
        assert r.rho == 0.0

    def test_mixed_rho_exhaustive_exact(self):
        f = conftest.rho_mix()
        B = DecompositionSet.from_vars(range(1, 11), 12)
        r = estimate_rho(f, B, n=1 << 10)
        assert r.exhaustive
        assert r.rho == 0.75 == brute_force_rho(f, range(1, 11))

    def test_mixed_rho_sampled_close(self):
        f = conftest.rho_mix()
        B = DecompositionSet.from_vars(range(1, 11), 12)
        r = estimate_rho(f, B, n=1000, seed=7)
        assert not r.exhaustive
        assert abs(r.rho - 0.75) <= 0.05

    def test_php_rho_matches_brute_force(self):
        f = pigeonhole(4, 3)
        r = estimate_rho(f, DecompositionSet.from_vars([1, 2], 12), n=4)
        assert r.rho == brute_force_rho(f, [1, 2]) == 0.25


class TestExact:
    def test_matches_decomposed_sum_on_corpus(self, unsat_fixtures):
        for name, f in unsat_fixtures[:8]:
            vars_ = list(range(1, min(3, f.num_vars) + 1))
            B = DecompositionSet.from_vars(vars_, f.num_vars)
            assert exact_d_hardness(f, B) == brute_force_hardness(
                f, vars_, "propagations"
            ), name

    def test_identity_with_exhaustive_estimate(self, unsat_fixtures):
        for name, f in unsat_fixtures[:8]:
            vars_ = list(range(1, min(3, f.num_vars) + 1))
            B = DecompositionSet.from_vars(vars_, f.num_vars)
            est = estimate_d_hardness(f, B, EstimatorConfig(initial_n=1 << len(vars_)))
            assert est.value == exact_d_hardness(f, B), name


class TestSeeds:
    def test_mask_seed_order_independent(self):
        assert mask_seed(3, 0b101) == mask_seed(3, 0b101)
        assert mask_seed(3, 0b101) != mask_seed(3, 0b110)
        assert mask_seed(3, 0b101) != mask_seed(4, 0b101)

    def test_different_seeds_change_draws(self):
        B = DecompositionSet.from_vars(range(1, 21), 20)
        a = sample_assignments(B, 5, seed=0).assignments
        b = sample_assignments(B, 5, seed=1).assignments
        assert a != b


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exhaustive_estimate_equals_exact(data):
    f = data.draw(formulas())
    if solve(f).verdict != "UNSAT":
        return
    k = data.draw(st.integers(min_value=1, max_value=min(3, f.num_vars)))
    vars_ = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=f.num_vars),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    B = DecompositionSet.from_vars(vars_, f.num_vars)
    est = estimate_d_hardness(f, B, EstimatorConfig(initial_n=1 << k))
    if est.sat_found:
        return
    assert est.exhaustive
    assert est.value == exact_d_hardness(f, B)


class TestEstimateOverflow:
    """2^|B| times the mean overflows a double once |B| passes about 1020."""

    def test_value_saturates_and_log2_stays_exact(self):
        chain = conftest.implication_chain(50)
        f = CnfFormula(1150, chain.clauses)
        B = DecompositionSet.from_vars(range(51, 1151), 1150)
        est = estimate_d_hardness(f, B, EstimatorConfig(initial_n=8, max_n=8))
        assert not est.sat_found
        assert est.stats.n == 8 and est.stats.mean > 0
        assert est.value == math.inf
        assert est.log2_value == math.log2(est.stats.mean) + 1100
        assert math.isfinite(est.log2_value)

    def test_value_below_the_limit_is_exact(self):
        chain = conftest.implication_chain(50)
        f = CnfFormula(1050, chain.clauses)
        B = DecompositionSet.from_vars(range(51, 1051), 1050)
        est = estimate_d_hardness(f, B, EstimatorConfig(initial_n=8, max_n=8))
        assert est.value == math.ldexp(est.stats.mean, 1000)
